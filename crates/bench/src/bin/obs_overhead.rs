//! Observability overhead benchmark (DESIGN.md §17 overhead budget).
//!
//! The `Recorder` hooks are selected by generics, so a run over
//! `NoopRecorder` must compile to the uninstrumented engine: this bench
//! times `Machine::run` against `Machine::run_with(&mut NoopRecorder)`
//! (min of K trials each, interleaved) and **asserts** the disabled path
//! stays within the 2% budget. The enabled path (`ObsRecorder`) is timed
//! and reported too, but only sanity-bounded — collecting events and
//! histograms legitimately costs something.
//!
//! Results go to `BENCH_obs.json` so the overhead has a trajectory across
//! changes.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin obs_overhead
//!         [--scale tiny|small|full] [--trials N]`

use std::time::Instant;

use mtsim_apps::{build_app, AppKind, Scale};
use mtsim_core::{Machine, MachineConfig, NoopRecorder, ObsRecorder, SwitchModel};
use mtsim_sweep::json::JsonBuilder;

/// Disabled-path budget: `run_with(NoopRecorder)` vs `run`.
const BUDGET: f64 = 0.02;
/// Sanity bound for the full recorder — generous, it does real work.
const ENABLED_BOUND: f64 = 1.0;

/// Reports a bad command line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: obs_overhead [--scale tiny|small|full] [--trials N]");
    std::process::exit(2);
}

/// Parses `--scale` (default `small`) and `--trials` (default 9); any
/// other argument, or a bad value, is a usage error.
fn parse_args() -> (Scale, usize) {
    let (mut scale, mut trials) = (Scale::Small, 9);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(&format!("flag {flag} needs a value")));
        match flag.as_str() {
            "--scale" => {
                let v = value();
                scale = Scale::from_name(&v).unwrap_or_else(|| {
                    usage_error(&format!("unknown scale '{v}' (want tiny, small, or full)"))
                });
            }
            "--trials" => {
                let v = value();
                trials = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    usage_error(&format!("bad value '{v}' for --trials (want a count >= 1)"))
                });
            }
            _ => usage_error(&format!("unknown argument '{flag}'")),
        }
    }
    (scale, trials)
}

fn main() {
    let (scale, trials) = parse_args();
    let kind = AppKind::Sor;
    let (procs, t) = (4, 4);
    let app = build_app(kind, scale, procs * t);
    let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, procs, t);

    println!(
        "obs_overhead: {} on switch-on-load, {procs}x{t} (scale {scale:?}), min of {trials} trials",
        kind.name()
    );

    // Interleave the variants so frequency scaling and cache warmth hit
    // all three equally; keep the minimum per variant (least-noise
    // estimator for a deterministic workload).
    let (mut plain, mut noop, mut obs) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut cycles = 0;
    for _ in 0..trials {
        let m = Machine::try_new(cfg.clone(), &app.program, app.shared.clone()).expect("machine");
        let t0 = Instant::now();
        let fin = m.run().expect("plain run");
        plain = plain.min(t0.elapsed().as_secs_f64());
        cycles = fin.result.cycles;

        let m = Machine::try_new(cfg.clone(), &app.program, app.shared.clone()).expect("machine");
        let t0 = Instant::now();
        let fin = m.run_with(&mut NoopRecorder).expect("noop run");
        noop = noop.min(t0.elapsed().as_secs_f64());
        assert_eq!(fin.result.cycles, cycles, "noop recorder changed the simulation");

        let mut rec = ObsRecorder::with_capacity(procs, procs * t, 1 << 12);
        let m = Machine::try_new(cfg.clone(), &app.program, app.shared.clone()).expect("machine");
        let t0 = Instant::now();
        let fin = m.run_with(&mut rec).expect("obs run");
        obs = obs.min(t0.elapsed().as_secs_f64());
        assert_eq!(fin.result.cycles, cycles, "obs recorder changed the simulation");
        assert_eq!(rec.attr.conservation_error(cycles), None);
    }

    let noop_overhead = noop / plain - 1.0;
    let obs_overhead = obs / plain - 1.0;
    println!("  plain run       {:8.3} ms", plain * 1e3);
    println!("  noop recorder   {:8.3} ms  ({:+.2}%)", noop * 1e3, noop_overhead * 100.0);
    println!("  full recorder   {:8.3} ms  ({:+.2}%)", obs * 1e3, obs_overhead * 100.0);

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("obs");
    j.key("scale").string(scale.name());
    j.key("app").string(kind.name());
    j.key("procs").u64(procs as u64);
    j.key("threads").u64(t as u64);
    j.key("trials").u64(trials as u64);
    j.key("sim_cycles").u64(cycles);
    j.key("plain_ms").f64(plain * 1e3);
    j.key("noop_ms").f64(noop * 1e3);
    j.key("obs_ms").f64(obs * 1e3);
    j.key("noop_overhead").f64(noop_overhead);
    j.key("obs_overhead").f64(obs_overhead);
    j.key("budget").f64(BUDGET);
    j.end();
    std::fs::write("BENCH_obs.json", j.finish() + "\n").expect("write BENCH_obs.json");
    println!("  wrote BENCH_obs.json");

    assert!(
        noop_overhead < BUDGET,
        "tracing-off overhead {:.2}% blows the {:.0}% budget — the NoopRecorder \
         path is no longer compiling down to the seed engine",
        noop_overhead * 100.0,
        BUDGET * 100.0
    );
    assert!(
        obs_overhead < ENABLED_BOUND,
        "full-recorder overhead {:.2}% is out of hand",
        obs_overhead * 100.0
    );
    println!(
        "  within budget: noop < {:.0}%, full < {:.0}%",
        BUDGET * 100.0,
        ENABLED_BOUND * 100.0
    );
}
