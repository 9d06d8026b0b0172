//! Optimizer gains: the paper's intra-block grouping pass measured per
//! application against the §5.2 one-line-cache estimate.
//!
//! Each row runs the grouped (`intra`) image at the Table 6 measurement
//! point (explicit-switch, small processor count, T=2) and prints the
//! estimator's upper-bound grouping factor alongside. Results go to
//! `BENCH_opt.json` so the measured-vs-estimated gap has a trajectory
//! across changes.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin opt_gains
//!         [--scale tiny|small|full]`

use mtsim_bench::{experiments, scale_from_args, tables};
use mtsim_sweep::json::JsonBuilder;

fn main() {
    let scale = scale_from_args();
    let rows = experiments::opt_gains(scale);
    print!("{}", tables::opt_gains_render(&rows, scale));

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("opt");
    j.key("scale").string(scale.name());
    j.key("apps").begin_array();
    for row in &rows {
        j.begin_object();
        j.key("app").string(row.app.name());
        j.key("cycles").u64(row.cycles);
        j.key("dyn_grouping").f64(row.dyn_grouping);
        j.key("group_mean").f64(row.group_mean);
        j.key("estimated_factor").f64(row.estimated_factor);
        j.end();
    }
    j.end();
    j.end();
    std::fs::write("BENCH_opt.json", j.finish() + "\n").expect("write BENCH_opt.json");
    println!("  wrote BENCH_opt.json");
}
