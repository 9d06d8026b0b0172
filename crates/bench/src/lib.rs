//! # mtsim-bench
//!
//! The evaluation harness: one function per table/figure of Boothe &
//! Ranade (ISCA 1992), and one [`ARTIFACTS`] row per report, which
//! `mtsim paper [NAME...]` prints (see [`tables`]). The reports are
//! simulated results; the one host-timing bin, `obs_overhead`, guards the
//! disabled-recorder budget. Host time of the engine, decode, checkpoint
//! and HTTP layers is measured in one place, the `perfbench` workspace
//! declared by `BENCHMARK.json`.
//!
//! | paper artifact | function | `mtsim paper` name |
//! |---|---|---|
//! | Table 1 (applications) | [`experiments::table1`] | `table1` |
//! | Figure 2 (ideal efficiency) | [`experiments::fig2`] | `fig2` |
//! | Table 2 (run-lengths, switch-on-load) | [`experiments::run_length_table`] | `table2` |
//! | Figure 3 (sieve multithreading) | [`experiments::fig3`] | `fig3` |
//! | Table 3 (switch-on-load MT levels) | [`experiments::mt_table`] | `table3` |
//! | Figure 4 (sor grouping listings) | [`experiments::fig4`] | `fig4` |
//! | Table 4 (run-lengths after grouping) | [`experiments::run_length_table`] | `table4` |
//! | Table 5 (explicit-switch MT levels + penalty) | [`experiments::mt_table`], [`experiments::reorganization_penalty`] | `table5` |
//! | Table 6 (inter-block grouping estimate) | [`experiments::table6`] | `table6` |
//! | §6.1 bandwidth/hit-rate table | [`experiments::table7`] | `table7` |
//! | Table 8 (conditional-switch MT levels) | [`experiments::mt_table`] | `table8` |
//! | §6.2 forced-switch ablation | [`experiments::max_run_ablation`] | `ablation` |
//! | §5.2 measured vs estimated optimizer gains | [`experiments::opt_gains`] | `opt_gains` |
//! | efficiency vs latency (the title claim) | [`experiments::latency_sweep`] | `latency` |
//! | cache-geometry trace replay | [`tables::cache_geometry_text`] | `cache_geometry` |
//! | §6.1 bandwidth burstiness | [`tables::burstiness_text`] | `burstiness` |
//! | network saturation curves | [`experiments::net_contention`] | `net_contention` |
//! | model frontier (all switch models, replay) | [`experiments::model_frontier`] | `model_frontier` |

pub mod experiments;
pub mod report;
pub mod tables;

use mtsim_apps::Scale;

/// Renders one artifact at a scale, with an optional worker count for
/// the artifacts that fan out. The writers also leave a `BENCH_*.json`
/// file in the working directory, and fail only if they cannot write it.
pub type Render = fn(Scale, Option<usize>) -> std::io::Result<String>;

/// Every artifact `mtsim paper` regenerates, in DESIGN.md §7 order.
pub const ARTIFACTS: [(&str, Render); 18] = [
    ("table1", |s, _| Ok(tables::table1_text(s))),
    ("fig2", |s, _| Ok(tables::fig2_text(s))),
    ("table2", |s, _| Ok(tables::table2_text(s))),
    ("fig3", |s, _| Ok(tables::fig3_text(s))),
    ("table3", |s, j| Ok(tables::table3_text(s, j))),
    ("fig4", |_, _| Ok(tables::fig4_text())),
    ("table4", |s, _| Ok(tables::table4_text(s))),
    ("table5", |s, j| Ok(tables::table5_text(s, j))),
    ("table6", |s, _| Ok(tables::table6_text(s))),
    ("table7", |s, _| Ok(tables::table7_text(s))),
    ("table8", |s, j| Ok(tables::table8_text(s, j))),
    ("ablation", |s, _| Ok(tables::ablation_text(s))),
    ("opt_gains", |s, _| tables::opt_gains_report(s)),
    ("latency", |s, j| Ok(tables::latency_text(s, j))),
    ("cache_geometry", |s, j| Ok(tables::cache_geometry_text(s, j))),
    ("burstiness", |s, _| Ok(tables::burstiness_text(s))),
    ("net_contention", tables::net_contention_report),
    ("model_frontier", tables::model_frontier_report),
];
