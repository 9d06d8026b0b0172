//! # mtsim-bench
//!
//! The evaluation harness: one function per table/figure of Boothe &
//! Ranade (ISCA 1992), each with a `--bin` that prints the paper-style
//! rows (see `src/bin/`) and a plain `std::time` bench (`benches/`) that
//! exercises the same code path at reduced scale.
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Table 1 (applications) | [`experiments::table1`] | `table1` |
//! | Figure 2 (ideal efficiency) | [`experiments::fig2`] | `fig2` |
//! | Table 2 (run-lengths, switch-on-load) | [`experiments::run_length_table`] | `table2` |
//! | Figure 3 (sieve multithreading) | [`experiments::fig3`] | `fig3` |
//! | Figure 4 (sor grouping listings) | [`experiments::fig4`] | `fig4` |
//! | Table 3 (switch-on-load MT levels) | [`experiments::mt_table`] | `table3` |
//! | Table 4 (run-lengths after grouping) | [`experiments::run_length_table`] | `table4` |
//! | Table 5 (explicit-switch MT levels + penalty) | [`experiments::mt_table`], [`experiments::reorganization_penalty`] | `table5` |
//! | Table 6 (inter-block grouping estimate) | [`experiments::table6`] | `table6` |
//! | §6.1 bandwidth/hit-rate table | [`experiments::table7`] | `table7` |
//! | Table 8 (conditional-switch MT levels) | [`experiments::mt_table`] | `table8` |
//! | §6.2 forced-switch ablation | [`experiments::max_run_ablation`] | `ablation` |
//! | §5.2 measured vs estimated optimizer gains | [`experiments::opt_gains`] | `opt_gains` |

pub mod experiments;
pub mod report;
pub mod tables;

use mtsim_apps::Scale;

/// Parses `--scale tiny|small|full` from command-line arguments
/// (default `small`).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--scale" {
            return Scale::from_name(&w[1])
                .unwrap_or_else(|| panic!("unknown scale '{}' (expected tiny|small|full)", w[1]));
        }
    }
    Scale::Small
}

/// Parses `--jobs N` from command-line arguments. `None` (flag absent)
/// lets the sweep engine pick its default (`MTSIM_JOBS` or the machine's
/// available parallelism).
pub fn jobs_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--jobs" {
            let n: usize = w[1]
                .parse()
                .unwrap_or_else(|_| panic!("bad --jobs value '{}' (expected a count)", w[1]));
            assert!(n >= 1, "--jobs must be >= 1");
            return Some(n);
        }
    }
    None
}
