//! mtsim benchmark: runs one named workload, checks its outputs, and
//! prints its metrics as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced pass and reports the per-layer metrics instead. The workloads,
//! the metrics and what moves them are described in `perfbench/README.md`.

mod layered;
mod paper_sweep;
mod replay_cold;
mod serve_stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mtsim_sweep::{ArtifactCache, JobSpec};

/// End-to-end metrics, printed by every untraced run: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "fraction"),
];

/// Per-layer metrics, printed by every traced run: name and unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.engine_ms", "ms"),
    ("core.ns_per_sim_inst", "ns"),
    ("core.runs", "count"),
    ("core.sim_insts", "count"),
    ("core.idle_cycles", "cycles"),
    ("core.stall_cycles", "cycles"),
    ("core.switches_taken", "count"),
    ("core.switches_skipped", "count"),
    ("core.reads_issued", "count"),
    ("core.decode_ms", "ms"),
    ("opt.grouped_loads", "count"),
    ("opt.switches_inserted", "count"),
    ("opt.group_ms", "ms"),
    ("mem.cache_hits", "count"),
    ("mem.cache_misses", "count"),
    ("mem.data_messages", "count"),
    ("mem.data_bits", "bits"),
    ("net.engine_ms_delta", "ms"),
    ("net.requests", "count"),
    ("net.mean_latency_cycles", "cycles"),
    ("net.queue_cycles", "cycles"),
    ("apps.build_ms", "ms"),
    ("apps.program_insts", "count"),
    ("apps.verify_ms", "ms"),
    ("sweep.overhead_ms", "ms"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.machine_reuses", "count"),
    ("sweep.checkpoint_append_ms", "ms"),
    ("sweep.checkpoint_bytes", "bytes"),
    ("sweep.results_json_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Set-up is timed in batches of at least one set-up and this long...
const SETUP_BATCH: Duration = Duration::from_millis(100);
/// ...at most one batch per this much time, between the timed jobs.
const SETUP_GAP: Duration = Duration::from_secs(1);

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back: whether its outputs checked out, how many
/// points it attempted and how many failed, the digest of its simulated
/// results, and its metric values.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-sweep|replay-cold|serve-stream \
                 --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::run(&args),
        "replay-cold" => replay_cold::run(&args),
        "serve-stream" => serve_stream::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    // The result line's keys are fixed, so the digest goes on the line
    // before it: a host-only change must leave it unchanged.
    println!("simulated-results digest {:016x}", report.digest);
    println!("{}", render(&report, if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] }));
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: exactly the metrics of `names`, in that order.
fn render(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or_else(|| {
                panic!("workload did not report metric {name}");
            });
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Worker threads for the workloads: the host's parallelism, at most 2
/// so that runs on larger hosts measure the same configuration.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Runs `rep` until `seconds` have passed and at least `min_reps`
/// repetitions are done; returns their results. Each repetition times its
/// own jobs, which leaves out the set-up batches taken between them.
pub fn timed_reps<T>(
    seconds: u64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed() < budget {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// Each repetition's wall seconds: the sum of its job times.
pub fn walls_s(job_ms: &[Vec<f64>]) -> Vec<f64> {
    job_ms.iter().map(|ms| ms.iter().sum::<f64>() / 1e3).collect()
}

/// The wall seconds of one repetition, job by job: the sum over the jobs
/// of each job's median ms across the repetitions, whose jobs come in the
/// same order. A slow stretch of host time that hits part of one
/// repetition moves this less than it moves the median of the totals.
pub fn rep_wall_s(job_ms: &[Vec<f64>]) -> f64 {
    let per_job = |j: usize| median(&job_ms.iter().map(|rep| rep[j]).collect::<Vec<_>>());
    (0..job_ms[0].len()).map(per_job).sum::<f64>() / 1e3
}

/// Times a workload's set-up in short batches between the jobs of its
/// timed region, so that the median covers the same stretch of host time
/// as the jobs do; a few seconds of set-up alone ride on whatever the
/// host happens to be doing then. The outputs of these set-ups are
/// dropped.
pub struct SetupClock<F> {
    setup: F,
    secs: Vec<f64>,
    last: Option<Instant>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupClock<F> {
    pub fn new(setup: F) -> Self {
        SetupClock { setup, secs: Vec::with_capacity(1024), last: None }
    }

    /// Runs a batch of set-ups, unless the last batch ended less than
    /// [`SETUP_GAP`] ago. The batch's first set-up is not timed: it pays
    /// for the caches the jobs before it evicted.
    pub fn sample(&mut self) -> Result<(), String> {
        if self.last.is_some_and(|t| t.elapsed() < SETUP_GAP) {
            return Ok(());
        }
        drop((self.setup)()?);
        let start = Instant::now();
        loop {
            let t = Instant::now();
            drop((self.setup)()?);
            self.secs.push(t.elapsed().as_secs_f64());
            if start.elapsed() >= SETUP_BATCH {
                break;
            }
        }
        self.last = Some(Instant::now());
        Ok(())
    }

    /// The median seconds of the set-ups timed so far; at least one
    /// batch is taken.
    pub fn median(&mut self) -> Result<f64, String> {
        if self.secs.is_empty() {
            self.sample()?;
        }
        let secs = &self.secs;
        let (lo, hi) = secs.iter().fold((f64::MAX, 0.0_f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let (n, med) = (secs.len(), median(secs));
        eprintln!("set-up: {n} timed, median {med:.6} s, min {lo:.6} s, max {hi:.6} s");
        Ok(med)
    }
}

/// Working directory for files a run writes (checkpoints, server state,
/// the span trace), under the directory the benchmark runs from.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the spans once, at the end of a traced run, and prints the
/// self time per span name on standard error.
pub fn write_trace(tr: &trace::Tracer, args: &Args) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tr.chrome_json(&format!("perfbench {}", args.workload)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {} (self time per span):", path.display());
    for (name, ms) in tr.self_ms() {
        eprintln!("  {name:<28} {ms:>10.1} ms");
    }
    Ok(())
}

/// SplitMix64: the benchmark's own input generator, so the program sees
/// only the inputs it produces.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-layer metrics a workload's traced pass does not exercise,
/// preset to zero so every traced run reports the full set.
pub fn zero_layers() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect()
}

/// Fills the core, opt, mem, net and apps metrics from a layered pass.
pub fn layer_metrics(m: &mut BTreeMap<&'static str, f64>, layers: &layered::Layers) {
    let c = &layers.c;
    let self_ms = layers.tr.self_ms();
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let engine_ms = ms("core.engine");
    m.insert("core.engine_ms", engine_ms);
    m.insert(
        "core.ns_per_sim_inst",
        if c.sim_insts > 0 { engine_ms * 1e6 / c.sim_insts as f64 } else { 0.0 },
    );
    m.insert("core.runs", c.runs as f64);
    m.insert("core.sim_insts", c.sim_insts as f64);
    m.insert("core.idle_cycles", c.idle_cycles as f64);
    m.insert("core.stall_cycles", c.stall_cycles as f64);
    m.insert("core.switches_taken", c.switches_taken as f64);
    m.insert("core.switches_skipped", c.switches_skipped as f64);
    m.insert("core.reads_issued", c.reads_issued as f64);
    m.insert("core.decode_ms", ms("core.decode"));
    m.insert("opt.grouped_loads", c.grouped_loads as f64);
    m.insert("opt.switches_inserted", c.switches_inserted as f64);
    m.insert("opt.group_ms", ms("opt.group"));
    m.insert("mem.cache_hits", c.cache_hits as f64);
    m.insert("mem.cache_misses", c.cache_misses as f64);
    m.insert("mem.data_messages", c.data_messages as f64);
    m.insert("mem.data_bits", c.data_bits as f64);
    m.insert("net.engine_ms_delta", c.engine_ms_mesh - c.engine_ms_twin);
    m.insert("net.requests", c.net_requests as f64);
    m.insert(
        "net.mean_latency_cycles",
        if c.net_requests > 0 { c.net_latency_sum as f64 / c.net_requests as f64 } else { 0.0 },
    );
    m.insert("net.queue_cycles", c.net_queue_cycles as f64);
    m.insert("apps.build_ms", ms("apps.build"));
    m.insert("apps.program_insts", c.program_insts as f64);
    m.insert("apps.verify_ms", ms("apps.verify"));
    m.insert("sweep.checkpoint_append_ms", ms("sweep.checkpoint_append"));
    m.insert("sweep.results_json_ms", ms("sweep.results_json"));
    m.insert("serve.submit_ms", ms("serve.submit"));
    m.insert("serve.poll_ms", ms("serve.poll"));
    m.insert("serve.results_ms", ms("serve.results"));
}

/// A fresh artifact cache holding every built, grouped and decoded
/// program `jobs` need: the lookups a sweep makes before it runs each
/// point.
pub fn fill_cache(jobs: impl IntoIterator<Item = JobSpec>) -> ArtifactCache {
    let cache = ArtifactCache::new();
    for job in jobs {
        let (app, scale, nthreads) = (job.app, job.scale, job.nthreads());
        if job.config().model.uses_explicit_switch() {
            cache.decoded(&cache.grouped(app, scale, nthreads).0);
        } else {
            cache.decoded(&cache.built(app, scale, nthreads).0.program);
        }
    }
    cache
}

/// A result table over outcomes already sorted by grid id.
pub fn table(jobs: Vec<mtsim_sweep::JobOutcome>) -> mtsim_sweep::SweepOutcome {
    mtsim_sweep::SweepOutcome {
        jobs,
        workers: 1,
        wall: Duration::ZERO,
        cache_hits: 0,
        cache_misses: 0,
        machine_reuses: 0,
    }
}
