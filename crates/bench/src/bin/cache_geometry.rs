//! Cache-geometry ablation: the paper never states its cache geometry
//! (the §6 text is partially illegible), so DESIGN.md picks a default and
//! this binary sweeps alternatives by replaying each application's
//! shared-access trace — no re-simulation needed.
//!
//! The per-app trace collection runs are independent, so they fan out on
//! the sweep crate's claim-cursor pool; results are merged back in
//! Table 1 order.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin cache_geometry [--scale tiny|small|full] [--jobs N]`

use mtsim_apps::{build_app, AppKind};
use mtsim_bench::report::{pct, TextTable};
use mtsim_bench::{jobs_from_args, scale_from_args};
use mtsim_core::{Machine, MachineConfig, SwitchModel};
use mtsim_mem::CacheParams;
use mtsim_sweep::{default_workers, run_jobs};
use mtsim_trace::CacheSweep;

fn main() {
    let scale = scale_from_args();
    let procs = 4;
    let grid = [
        CacheParams { lines: 64, line_words: 4 },   // 2 KB
        CacheParams { lines: 256, line_words: 4 },  // 8 KB
        CacheParams { lines: 512, line_words: 4 },  // 16 KB (default)
        CacheParams { lines: 512, line_words: 8 },  // 32 KB, long lines
        CacheParams { lines: 2048, line_words: 4 }, // 64 KB
    ];
    println!("Cache-geometry sweep, trace replay (scale {scale:?})\n");
    let mut t = TextTable::new(std::iter::once("app".to_string()).chain(
        grid.iter().map(|g| format!("{}KB/{}w", g.capacity_words() * 8 / 1024, g.line_words)),
    ));
    let workers = jobs_from_args().unwrap_or_else(default_workers);
    let hit_rates = run_jobs(AppKind::ALL.to_vec(), workers, |_, &kind| {
        let app = build_app(kind, scale, procs * 2);
        let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, procs, 2).with_trace(true);
        let fin = Machine::new(cfg, &app.program, app.shared.clone()).run().expect("run");
        let trace = fin.result.trace.expect("trace");
        let sweep = CacheSweep::new(&trace, procs);
        sweep.run_all(&grid).iter().map(|pt| pt.stats.hit_rate()).collect::<Vec<f64>>()
    });
    for (kind, rates) in hit_rates {
        let rates = rates.expect("trace replay job");
        t.row(std::iter::once(kind.name().to_string()).chain(rates.into_iter().map(pct)));
    }
    print!("{}", t.render());
    println!("\n(hit rates under write-through/invalidate replay; mp3d stays low at any size)");
}
