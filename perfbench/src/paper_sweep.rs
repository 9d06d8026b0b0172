//! `paper-sweep`: the paper's grid as cold `run_sweep` calls, one per
//! point, each the call `mtsim sweep --spec` makes for that point. The
//! inputs are the paper's fixed apps, so the seed does not change them.

use std::time::Instant;

use mtsim_apps::Scale;
use mtsim_core::Topology;
use mtsim_sweep::checkpoint::fnv1a64;
use mtsim_sweep::{run_sweep, JobSpec, SweepOpts, SweepOutcome, SweepSpec};

use crate::layered::{interleaved, Layers};
use crate::trace::Tracer;
use crate::{Args, Report};

/// The paper's seven apps under the three grouping-relevant switch
/// models, T = 1..8, on the constant pipe and a mesh: 168 points.
const SPEC: &str = "\
apps = sieve,blkmat,sor,ugray,water,locus,mp3d
models = switch-on-load,explicit-switch,conditional-switch
procs = 4
threads = 1,2,4,8
nets = constant,mesh
scale = full
";

/// Timed repetitions of the grid per run, at least.
const MIN_REPS: usize = 3;

fn parse() -> Result<SweepSpec, String> {
    let spec = SweepSpec::parse_file(SPEC)?;
    spec.validate()?;
    Ok(spec)
}

/// The set-up: parse and validate the grid, and fill a fresh artifact
/// cache for it, the lookups the sweep makes before it runs each point.
/// The cache is dropped again; the timed sweeps start cold.
fn setup() -> Result<SweepSpec, String> {
    let spec = parse()?;
    drop(crate::fill_cache(spec.expand()));
    Ok(spec)
}

/// The grid's jobs: one sweep per point, in the grid's point order. Jobs
/// of many sizes give the latency percentiles densely spread samples.
fn jobs(spec: &SweepSpec) -> Vec<SweepSpec> {
    let mut out = Vec::new();
    for &app in &spec.apps {
        for &model in &spec.models {
            for &t in &spec.threads {
                for &net in &spec.nets {
                    let (apps, models, threads, nets) =
                        (vec![app], vec![model], vec![t], vec![net]);
                    out.push(SweepSpec { apps, models, threads, nets, ..spec.clone() });
                }
            }
        }
    }
    out
}

/// One job as a cold `run_sweep`: its wall ms, and its outcomes numbered
/// from `first`, the grid id of its first point.
fn job_sweep(job: &SweepSpec, first: usize) -> Result<(f64, SweepOutcome), String> {
    // One worker: with two, peak memory depends on which full-scale points
    // happen to run together.
    let opts = SweepOpts { workers: Some(1), ..SweepOpts::default() };
    let t = Instant::now();
    let out = run_sweep(job, &opts);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut out = out.map_err(|e| e.to_string())?;
    for (i, outcome) in out.jobs.iter_mut().enumerate() {
        outcome.spec.id = first + i;
    }
    Ok((ms, out))
}

/// Every job of the grid, calling `between` after each: each job's wall
/// ms and the grid's result table.
fn grid(
    jobs: &[SweepSpec],
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<f64>, SweepOutcome), String> {
    let (mut ms, mut outcomes) = (Vec::new(), Vec::new());
    for job in jobs {
        let (job_ms, out) = job_sweep(job, outcomes.len())?;
        between()?;
        ms.push(job_ms);
        outcomes.extend(out.jobs);
    }
    Ok((ms, crate::table(outcomes)))
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Warm the process (allocator, code pages, pool threads) with the
    // grid at small scale. This only steadies the timed region; a user's
    // run has no such step, so it is not part of set-up.
    let spec = parse()?;
    let (_, warm) = grid(&jobs(&SweepSpec { scale: Scale::Small, ..spec.clone() }), || Ok(()))?;
    if warm.failed_count() > 0 {
        return Err(format!("{} warm-up points failed", warm.failed_count()));
    }
    let jobs = jobs(&spec);
    if args.trace {
        return traced(args, &spec, &jobs);
    }

    let mut clock = crate::SetupClock::new(setup);
    let reps = crate::timed_reps(args.seconds, MIN_REPS, || grid(&jobs, || clock.sample()))?;
    let setup_s = clock.median()?;
    let job_ms: Vec<Vec<f64>> = reps.iter().map(|(ms, _)| ms.clone()).collect();
    let walls = crate::walls_s(&job_ms);
    let latencies_ms = job_ms.concat();
    let digests: Vec<u64> =
        reps.iter().map(|(_, out)| fnv1a64(out.results_json().as_bytes())).collect();
    let attempted: u64 = reps.iter().map(|(_, out)| out.jobs.len() as u64).sum();
    let failed: u64 = reps.iter().map(|(_, out)| out.failed_count() as u64).sum();
    let sim_cycles = reps[0].1.total_sim_cycles() as f64;
    eprintln!(
        "paper-sweep: {} points in {} jobs x {} reps, walls {walls:.3?} s, digest {:016x}",
        spec.len(),
        jobs.len(),
        reps.len(),
        digests[0]
    );

    let metrics = [
        ("setup_s", setup_s),
        ("wall_s", crate::rep_wall_s(&job_ms)),
        ("job_latency_p50_ms", crate::median(&latencies_ms)),
        ("job_latency_p90_ms", crate::percentile(&latencies_ms, 90.0)),
        ("sim_cycles", sim_cycles),
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

/// The traced pass, job by job: the job's cold `run_sweep`, then its
/// points through the layers twice, once untraced and once under spans.
/// The two layered runs time the same code, so their ratio is the cost
/// of the spans; `run_sweep` against the layers' self time is the sweep
/// layer's own overhead.
fn traced(args: &Args, spec: &SweepSpec, jobs: &[SweepSpec]) -> Result<Report, String> {
    let has_twin = spec.nets.contains(&Topology::Mesh);
    let (mut off, mut on) = (Layers::new(Tracer::new(false)), Layers::new(Tracer::new(true)));
    let (mut base_ms, mut off_ms, mut on_ms) = (0.0, 0.0, 0.0);
    let (mut base_jobs, mut off_jobs, mut on_jobs) = (Vec::new(), Vec::new(), Vec::new());
    let [mut hits, mut misses, mut reuses] = [0; 3];
    for (i, job) in jobs.iter().enumerate() {
        let first = base_jobs.len();
        let (ms, out) = job_sweep(job, first)?;
        base_ms += ms;
        (hits, misses, reuses) =
            (hits + out.cache_hits, misses + out.cache_misses, reuses + out.machine_reuses);
        base_jobs.extend(out.jobs);

        let points: Vec<JobSpec> =
            job.expand().into_iter().map(|p| JobSpec { id: first + p.id, ..p }).collect();
        let (untraced, traced) =
            interleaved(i, &mut off, &mut on, |layers| layers.run_jobs(&points, has_twin));
        off_ms += untraced.0;
        off_jobs.extend(untraced.1);
        on_ms += traced.0;
        on_jobs.extend(traced.1);
    }
    let tables: Vec<SweepOutcome> =
        [base_jobs, off_jobs, on_jobs].into_iter().map(crate::table).collect();
    let digests: Vec<u64> = tables.iter().map(|t| fnv1a64(t.results_json().as_bytes())).collect();
    eprintln!(
        "paper-sweep traced: run_sweep {base_ms:.0} ms, layered {off_ms:.0} ms untraced, \
         {on_ms:.0} ms traced, digests {:016x?}",
        digests
    );

    let mut m = crate::zero_layers();
    crate::layer_metrics(&mut m, &on);
    m.insert("sweep.overhead_ms", base_ms - on.layer_self_ms());
    m.insert("sweep.cache_hits", hits as f64);
    m.insert("sweep.cache_misses", misses as f64);
    m.insert("sweep.machine_reuses", reuses as f64);
    m.insert("trace.overhead_frac", on_ms / off_ms - 1.0);
    crate::write_trace(&on.tr, args)?;
    let failed: u64 = tables.iter().map(|t| t.failed_count() as u64).sum();
    Ok(Report {
        correct: failed == 0 && digests.iter().all(|d| *d == digests[0]),
        attempted: tables.iter().map(|t| t.jobs.len() as u64).sum(),
        failed,
        digest: digests[0],
        metrics: m,
    })
}
