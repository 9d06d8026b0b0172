//! Network saturation curves: the mean modeled round-trip latency per
//! topology as offered load (threads per processor) grows, per switch
//! model. The `constant` column is the paper's contention-free control —
//! it simulates no network and must reproduce the plain-machine numbers.
//! Prints the text tables and writes the curves to `BENCH_net.json`; every
//! number in it is simulated, so the file is deterministic.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin net_contention [--scale tiny|small|full] [--jobs N]`

use mtsim_apps::AppKind;
use mtsim_bench::experiments::{net_contention, NetCurve, NET_MODELS};
use mtsim_bench::report::TextTable;
use mtsim_bench::{jobs_from_args, scale_from_args};
use mtsim_core::Topology;
use mtsim_sweep::json::JsonBuilder;

fn label(c: &NetCurve) -> String {
    if c.combining {
        format!("{}+comb", c.topology)
    } else {
        c.topology.to_string()
    }
}

fn main() {
    let scale = scale_from_args();
    let procs = 4;
    let ts = [1, 2, 4, 8];
    let app = AppKind::Ugray;
    println!(
        "Network contention: {app}, {procs} procs, L=200, load axis T={ts:?} (scale {scale:?})"
    );
    let curves = net_contention(app, scale, procs, &ts, jobs_from_args());

    for &model in &NET_MODELS {
        let cs: Vec<&NetCurve> = curves.iter().filter(|c| c.model == model).collect();
        println!("\n{model} — mean modeled round trip (cycles), '-' = no network simulated:");
        let mut table =
            TextTable::new(std::iter::once("T".to_string()).chain(cs.iter().map(|c| label(c))));
        for (i, &t) in ts.iter().enumerate() {
            table.row(std::iter::once(t.to_string()).chain(cs.iter().map(|c| {
                let p = c.points[i];
                if c.topology == Topology::Constant {
                    "-".to_string()
                } else {
                    format!("{:.1}", p.net_mean_latency)
                }
            })));
        }
        print!("{}", table.render());

        println!("{model} — wall-clock cycles:");
        let mut table =
            TextTable::new(std::iter::once("T".to_string()).chain(cs.iter().map(|c| label(c))));
        for (i, &t) in ts.iter().enumerate() {
            table.row(
                std::iter::once(t.to_string())
                    .chain(cs.iter().map(|c| c.points[i].cycles.to_string())),
            );
        }
        print!("{}", table.render());

        // The acceptance claim: modeled latency must rise with offered
        // load on the multi-hop topologies.
        for c in &cs {
            if matches!(c.topology, Topology::Mesh | Topology::Butterfly) && !c.combining {
                let first = c.points.first().expect("points").net_mean_latency;
                let last = c.points.last().expect("points").net_mean_latency;
                assert!(
                    last > first,
                    "{model}/{}: latency failed to rise with load ({first:.1} -> {last:.1})",
                    c.topology
                );
            }
        }
    }
    println!("\n(mesh/butterfly latency rises with load; combining flattens the F&A hot spot)");

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("net");
    j.key("scale").string(scale.name());
    j.key("app").string(app.name());
    j.key("procs").u64(procs as u64);
    j.key("curves").begin_array();
    for c in &curves {
        j.begin_object();
        j.key("model").string(c.model.name());
        j.key("net").string(c.topology.name());
        j.key("combining").bool(c.combining);
        j.key("points").begin_array();
        for p in &c.points {
            j.begin_object();
            j.key("t").u64(p.threads_per_proc as u64);
            j.key("cycles").u64(p.cycles);
            j.key("mean_latency").f64(p.net_mean_latency);
            j.key("queue_cycles").u64(p.net_queue_cycles);
            j.key("fa_combined").u64(p.net_fa_combined);
            j.end();
        }
        j.end();
        j.end();
    }
    j.end();
    j.end();
    std::fs::write("BENCH_net.json", j.finish() + "\n").expect("write BENCH_net.json");
    println!("wrote BENCH_net.json ({} saturation curves)", curves.len());
}
