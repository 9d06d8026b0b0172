//! `replay-cold`: what a one-off replay invocation pays per point. Set-up
//! synthesizes each point's seeded trace, the input a user would hand to
//! `mtsim replay`. Each timed point compiles its trace into a program,
//! as `build_replay` does, and runs it through `run_app`, which groups
//! the code under the explicit/conditional-switch models before running
//! and verifying it.

use std::sync::Arc;
use std::time::Instant;

use mtsim_apps::{run_app, BuiltApp};
use mtsim_core::{MachineConfig, RunStats, SwitchModel};
use mtsim_mem::TraceEvent;
use mtsim_replay::{compile, synthesize, SynthConfig};
use mtsim_sweep::checkpoint::fnv1a64;

use crate::layered::{interleaved, Layers};
use crate::trace::Tracer;
use crate::{Args, Report};

const PROCS: usize = 4;
const THREADS: [usize; 2] = [2, 4];
const MODELS: [SwitchModel; 3] =
    [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch, SwitchModel::ConditionalSwitch];
/// Traces per (model, thread count) pair. Each trace is its own point, so
/// the seed-dependent figures (`sim_cycles`, the latency percentiles)
/// average over many traces and vary little from seed to seed.
const TRACES: usize = 8;
/// Trace events per thread.
const EVENTS: usize = 600;
const ADDR_WORDS: u64 = 4096;
/// Timed passes over the point list per run, at least: 3 passes of 48
/// points leave more than ten latency samples beyond the p90.
const MIN_REPS: usize = 3;

/// One replay invocation: a switch model, a thread count and a trace.
struct Point {
    model: SwitchModel,
    threads_per_proc: usize,
    trace_seed: u64,
    trace: Vec<TraceEvent>,
}

impl Point {
    fn config(&self) -> MachineConfig {
        MachineConfig::new(self.model, PROCS, self.threads_per_proc)
    }

    fn nthreads(&self) -> usize {
        PROCS * self.threads_per_proc
    }

    /// Compiles the trace into a runnable, self-verifying app, as
    /// `build_replay` does.
    fn build(&self) -> BuiltApp {
        let tp = compile(&self.trace).expect("synthetic traces stay within the replay caps");
        let (program, shared) = (tp.program.clone(), tp.shared());
        BuiltApp::new("replay", program, shared, self.nthreads(), move |mem| tp.verify(mem))
    }

    /// Builds, runs and verifies the point the way a user would.
    fn run(&self) -> Result<RunStats, String> {
        run_app(&self.build(), self.config()).map(|r| r.stats()).map_err(|e| e.to_string())
    }
}

/// The set-up: the seeded point list, every model at every thread count
/// [`TRACES`] times, each point with its own synthesized trace.
fn make_points(seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut out = Vec::new();
    for _ in 0..TRACES {
        for &threads_per_proc in &THREADS {
            for &model in &MODELS {
                let trace_seed = crate::splitmix(&mut state);
                let trace = synthesize(&SynthConfig {
                    seed: trace_seed,
                    threads: PROCS * threads_per_proc,
                    events_per_thread: EVENTS,
                    addr_words: ADDR_WORDS,
                    ..SynthConfig::default()
                });
                out.push(Point { model, threads_per_proc, trace_seed, trace });
            }
        }
    }
    out
}

/// Digest of one pass's simulated results, in point order.
fn digest(points: &[Point], results: &[Result<RunStats, String>]) -> u64 {
    let mut text = String::new();
    for (p, r) in points.iter().zip(results) {
        text.push_str(&format!("{} {} {:x} {r:?}\n", p.model, p.nthreads(), p.trace_seed));
    }
    fnv1a64(text.as_bytes())
}

/// One pass over the points; each result with its latency in ms.
fn pass(points: &[Point]) -> Vec<(f64, Result<RunStats, String>)> {
    points
        .iter()
        .map(|p| {
            let t = Instant::now();
            let r = p.run();
            (t.elapsed().as_secs_f64() * 1e3, r)
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Warm the process with one pass over the points. This only steadies
    // the timed region, so it is not part of set-up.
    let points = make_points(args.seed);
    if let Some((_, Err(e))) = pass(&points).into_iter().find(|(_, r)| r.is_err()) {
        return Err(format!("warm-up point failed: {e}"));
    }
    if args.trace {
        return traced(args, &points);
    }

    let mut clock = crate::SetupClock::new(|| Ok(make_points(args.seed)));
    let reps = crate::timed_reps(args.seconds, MIN_REPS, || {
        clock.sample()?;
        Ok(pass(&points))
    })?;
    let setup_s = clock.median()?;
    let job_ms: Vec<Vec<f64>> =
        reps.iter().map(|pass| pass.iter().map(|(ms, _)| *ms).collect()).collect();
    let walls = crate::walls_s(&job_ms);
    let latencies_ms = job_ms.concat();
    let results: Vec<Vec<Result<RunStats, String>>> =
        reps.into_iter().map(|pass| pass.into_iter().map(|(_, r)| r).collect()).collect();
    let digests: Vec<u64> = results.iter().map(|rs| digest(&points, rs)).collect();
    let attempted = latencies_ms.len() as u64;
    let failed = results.iter().flatten().filter(|r| r.is_err()).count() as u64;
    for e in results.iter().flatten().filter_map(|r| r.as_ref().err()) {
        eprintln!("replay-cold: point failed: {e}");
    }
    let sim_cycles: u64 = results[0].iter().flatten().map(|s| s.cycles).sum();
    eprintln!(
        "replay-cold: {} points x {} passes, walls {walls:.3?} s, digest {:016x}",
        points.len(),
        walls.len(),
        digests[0]
    );

    let metrics = [
        ("setup_s", setup_s),
        ("wall_s", crate::rep_wall_s(&job_ms)),
        ("job_latency_p50_ms", crate::median(&latencies_ms)),
        ("job_latency_p90_ms", crate::percentile(&latencies_ms, 90.0)),
        ("sim_cycles", sim_cycles as f64),
        ("peak_rss_mb", crate::peak_rss_mb()?),
        ("ok_rate", 1.0 - failed as f64 / attempted as f64),
    ];
    Ok(Report {
        correct: failed == 0 && digests.iter().all(|d| *d == digests[0]),
        attempted,
        failed,
        digest: digests[0],
        metrics: metrics.into_iter().collect(),
    })
}

/// One point through the layers inside a `bench.point` span: its wall ms
/// and result.
fn layered(layers: &mut Layers, p: &Point) -> (f64, Result<RunStats, String>) {
    let t = Instant::now();
    let open = layers.tr.begin("bench.point");
    let app = layers.build(|| p.build());
    let art = layers.prepare(Arc::new(app), p.model.uses_explicit_switch());
    let result = layers.run(&art, p.config(), false).map_err(|e| e.to_string());
    layers.tr.end(open);
    (t.elapsed().as_secs_f64() * 1e3, result)
}

/// The traced pass: the points once through `run_app`, for the digest;
/// then each point through the layers twice, once untraced and once under
/// spans, so the ratio of the two is the cost of the spans.
fn traced(args: &Args, points: &[Point]) -> Result<Report, String> {
    let base: Vec<Result<RunStats, String>> = points.iter().map(Point::run).collect();
    let (mut off, mut on) = (Layers::new(Tracer::new(false)), Layers::new(Tracer::new(true)));
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    let (mut off_results, mut on_results) = (Vec::new(), Vec::new());
    for (i, p) in points.iter().enumerate() {
        let (untraced, traced) = interleaved(i, &mut off, &mut on, |layers| layered(layers, p));
        off_ms += untraced.0;
        off_results.push(untraced.1);
        on_ms += traced.0;
        on_results.push(traced.1);
    }
    let digests: Vec<u64> =
        [&base, &off_results, &on_results].iter().map(|rs| digest(points, rs)).collect();
    eprintln!(
        "replay-cold traced: layered {off_ms:.0} ms untraced, {on_ms:.0} ms traced, \
         digests {digests:016x?}"
    );

    let mut m = crate::zero_layers();
    crate::layer_metrics(&mut m, &on);
    m.insert("trace.overhead_frac", on_ms / off_ms - 1.0);
    crate::write_trace(&on.tr, args)?;
    let all = base.iter().chain(&off_results).chain(&on_results);
    let failed = all.filter(|r| r.is_err()).count() as u64;
    Ok(Report {
        correct: failed == 0 && digests.iter().all(|d| *d == digests[0]),
        attempted: 3 * points.len() as u64,
        failed,
        digest: digests[0],
        metrics: m,
    })
}
