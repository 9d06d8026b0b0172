//! Raw engine-throughput benchmark: pure `Machine::run` time over the
//! sweep-bench grid, with artifact building excluded, written to
//! `BENCH_engine.json` so hot-path work has a measured trajectory.
//!
//! Unlike `sweep_bench` (which measures the orchestration stack end to
//! end), this bin isolates the simulation core: programs are built and
//! grouped once up front, each grid point is run once to warm the
//! allocator and then timed over `REPS` repetitions with machine-buffer
//! reuse, and only the in-run wall clock counts. `decode_ms_per_program`
//! reports the one-time pre-decode cost per distinct program (paid at
//! artifact-build time in real sweeps), and `skip_ahead_cycles` the idle
//! cycles the event loop jumped over instead of ticking.
//!
//! The committed `ENGINE_BASELINE.json` holds the pre-decode engine's
//! numbers measured on the same grid and box (blessed once with
//! `--bless-baseline` before the hot-path overhaul landed);
//! `speedup_vs_baseline` is current/baseline throughput against that
//! reference.
//!
//! Usage: `cargo run --release -p mtsim-bench --bin engine_throughput
//!         [--scale tiny|small|full] [--bless-baseline]`

use std::hint::black_box;
use std::time::Instant;

use mtsim_apps::{build_app, AppKind, Scale};
use mtsim_core::{
    DecodedProgram, Machine, MachineConfig, MachineScratch, NoopRecorder, SwitchModel,
};
use mtsim_opt::group_shared_loads;
use mtsim_sweep::json::JsonBuilder;

/// Repetitions per grid point (the timed reps; one extra warms up).
const REPS: u32 = 3;

struct Point {
    app: AppKind,
    model: SwitchModel,
    procs: usize,
    threads: usize,
}

/// The sweep-bench grid: every (app, model, t) point `sweep_bench` runs,
/// so the two benches stay comparable.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for app in [AppKind::Sieve, AppKind::Sor, AppKind::Water, AppKind::Ugray] {
        for model in [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch] {
            for threads in [1, 2, 4] {
                points.push(Point { app, model, procs: 2, threads });
            }
        }
    }
    points
}

fn main() {
    let scale = scale_from_args();
    let bless = std::env::args().any(|a| a == "--bless-baseline");
    let points = grid();
    println!(
        "engine_throughput: {} grid points (scale {}, {REPS} reps)",
        points.len(),
        scale.name()
    );

    let mut sim_cycles: u64 = 0;
    let mut instructions: u64 = 0;
    let mut skip_ahead: u64 = 0;
    let mut run_secs: f64 = 0.0;
    let mut decode_secs: f64 = 0.0;
    let mut decodes: u64 = 0;

    for pt in &points {
        let n = pt.procs * pt.threads;
        let app = build_app(pt.app, scale, n);
        let program = if pt.model.uses_explicit_switch() {
            group_shared_loads(&app.program).program
        } else {
            app.program.clone()
        };
        // The one-time pre-decode cost, paid per distinct program at
        // artifact-build time in real sweeps.
        let d0 = Instant::now();
        let decoded = black_box(DecodedProgram::decode(&program));
        decode_secs += d0.elapsed().as_secs_f64();
        decodes += 1;

        let cfg = MachineConfig::new(pt.model, pt.procs, pt.threads);
        let mut scratch = MachineScratch::new();
        let key = 0xE17;
        let build = |shared, scratch: &mut MachineScratch| {
            Machine::try_new_predecoded(cfg.clone(), &program, &decoded, shared, key, scratch)
                .expect("valid config")
                .0
        };
        // Warm-up run: fills the scratch.
        let m = build(app.shared.clone(), &mut scratch);
        m.run_reusing(&mut NoopRecorder, key, &mut scratch).expect("bench run");

        for _ in 0..REPS {
            let shared = app.shared.clone();
            let t0 = Instant::now();
            let m = build(shared, &mut scratch);
            let run = m.run_reusing(&mut NoopRecorder, key, &mut scratch).expect("bench run");
            run_secs += t0.elapsed().as_secs_f64();
            sim_cycles += run.result.cycles;
            instructions += run.result.instructions;
            skip_ahead += run.result.per_proc.iter().map(|p| p.idle).sum::<u64>();
            black_box(&run.shared);
        }
    }

    let cps = if run_secs > 0.0 { sim_cycles as f64 / run_secs } else { 0.0 };
    let ips = if run_secs > 0.0 { instructions as f64 / run_secs } else { 0.0 };
    let decode_ms = decode_secs * 1e3 / decodes.max(1) as f64;
    println!("  {sim_cycles} sim-cycles, {instructions} instructions in {:.1} ms", run_secs * 1e3);
    println!("  {cps:.3e} sim-cycles/s, {ips:.3e} instructions/s");
    println!("  decode: {decode_ms:.3} ms/program, skip-ahead: {skip_ahead} idle cycles jumped");

    if bless {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.key("bench").string("engine-baseline");
        j.key("scale").string(scale.name());
        j.key("sim_cycles_per_sec").f64(cps);
        j.key("instructions_per_sec").f64(ips);
        j.end();
        std::fs::write("ENGINE_BASELINE.json", j.finish() + "\n")
            .expect("write ENGINE_BASELINE.json");
        println!("  blessed ENGINE_BASELINE.json at {cps:.3e} sim-cycles/s");
        return;
    }

    let baseline = read_baseline(scale);
    match baseline {
        Some(b) => println!("  baseline {b:.3e} sim-cycles/s -> speedup {:.2}x", cps / b),
        None => {
            println!("  no ENGINE_BASELINE.json for scale {}; speedup unreported", scale.name())
        }
    }

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("bench").string("engine");
    j.key("scale").string(scale.name());
    j.key("grid_points").u64(points.len() as u64);
    j.key("reps").u64(REPS as u64);
    j.key("sim_cycles").u64(sim_cycles);
    j.key("instructions").u64(instructions);
    j.key("run_ms").f64(run_secs * 1e3);
    j.key("sim_cycles_per_sec").f64(cps);
    j.key("instructions_per_sec").f64(ips);
    j.key("decode_ms_per_program").f64(decode_ms);
    j.key("skip_ahead_cycles").u64(skip_ahead);
    j.key("baseline_cycles_per_sec").f64(baseline.unwrap_or(0.0));
    j.key("speedup_vs_baseline").f64(baseline.map(|b| cps / b).unwrap_or(0.0));
    j.end();
    std::fs::write("BENCH_engine.json", j.finish() + "\n").expect("write BENCH_engine.json");
    println!("  wrote BENCH_engine.json");
}

/// Reads the blessed pre-overhaul number for `scale` from
/// `ENGINE_BASELINE.json`, if present and matching.
fn read_baseline(scale: Scale) -> Option<f64> {
    let text = std::fs::read_to_string("ENGINE_BASELINE.json").ok()?;
    if !text.contains(&format!("\"scale\":\"{}\"", scale.name())) {
        return None;
    }
    let key = "\"sim_cycles_per_sec\":";
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--scale" {
            return Scale::from_name(&w[1])
                .unwrap_or_else(|| panic!("unknown scale '{}' (expected tiny|small|full)", w[1]));
        }
    }
    Scale::Small
}
