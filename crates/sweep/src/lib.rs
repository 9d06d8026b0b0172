//! # mtsim-sweep
//!
//! Parallel experiment orchestration for `mtsim` grid sweeps.
//!
//! Every paper table and figure is a grid over (application, switch
//! model, P, T, latency, …), and every grid point is an independent,
//! deterministic, single-threaded simulation (DESIGN.md §9) — an
//! embarrassingly parallel workload. This crate turns a declarative
//! [`SweepSpec`] into jobs, runs them on a `std`-only claim-cursor
//! thread pool with panic isolation, shares built application artifacts
//! through an [`ArtifactCache`], and aggregates per-job
//! [`mtsim_core::RunStats`] into a result table whose JSON/CSV renderings
//! are byte-identical at any worker count.
//!
//! On top of that sits a crash-safe execution layer (DESIGN.md §18):
//! completed jobs stream to an fsync'd, checksummed `.jsonl` checkpoint
//! the moment they finish; [`resume_sweep`] re-derives the remaining
//! grid from a checkpoint and produces output byte-identical to an
//! uninterrupted run; per-job wall-clock watchdogs cancel runaway
//! simulations; and transiently failing jobs (panics, timeouts) are
//! retried with backoff and quarantined — not fatal — when they keep
//! failing.
//!
//! ```
//! use mtsim_sweep::{run_sweep, SweepOpts, SweepSpec};
//!
//! let mut spec = SweepSpec::default();
//! spec.set("apps", "sieve").unwrap();
//! spec.set("t", "1,2").unwrap();
//! spec.set("scale", "tiny").unwrap();
//! let out = run_sweep(&spec, &SweepOpts { workers: Some(2), ..SweepOpts::default() }).unwrap();
//! assert_eq!(out.ok_count(), 2);
//! ```

mod cache;
pub mod checkpoint;
pub mod json;
mod pool;
mod results;
mod spec;
mod stream;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mtsim_apps::{run_decoded, RunError};
use mtsim_core::{NoopRecorder, ObsRecorder};

pub use cache::ArtifactCache;
pub use checkpoint::{load_checkpoint, spec_hash, Checkpoint, SweepError};
pub use pool::{default_workers, jobs_from_env, run_jobs, run_jobs_partial, Watchdog};
pub use results::{JobError, JobOutcome, OptCols, SweepOutcome};
pub use spec::{
    JobSpec, OptChoice, SweepSpec, DEFAULT_MAX_CYCLES, MAX_AXIS_VALUES, MAX_GRID_POINTS,
};
pub use stream::StreamWriter;

/// Execution options for a sweep.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads; `None` means [`default_workers`].
    pub workers: Option<usize>,
    /// Emit a live `[done/total]` progress line on stderr.
    pub progress: bool,
    /// Stream each completed job to this checkpoint file (fsync'd,
    /// checksummed JSON lines; see DESIGN.md §18). `None` disables
    /// streaming; results then exist only in the returned outcome.
    pub stream: Option<String>,
    /// Wall-clock budget per job *attempt*. When set, a watchdog thread
    /// cancels attempts that exceed it; the job fails with kind
    /// `"timeout"` and is retried like a panic. `None` disables the
    /// watchdog (the deterministic simulated-cycle budget
    /// [`SweepSpec::max_cycles`] always applies regardless).
    pub job_timeout: Option<Duration>,
    /// Extra attempts for jobs that fail *transiently* (panic or
    /// wall-clock timeout). Typed simulator and verifier errors are
    /// deterministic and never retried. Jobs still failing after
    /// `1 + retries` attempts are quarantined.
    pub retries: u32,
    /// Orchestration-level fault injection for the chaos harness.
    pub chaos: Option<ChaosPlan>,
    /// Shared artifact cache. `None` (the default) gives the sweep a
    /// private cache that dies with it; a long-running service passes a
    /// process-lifetime cache here so programs compile once per server
    /// lifetime. The outcome's hit/miss telemetry counts this sweep's
    /// lookups only (deltas), so it stays deterministic either way.
    pub cache: Option<Arc<ArtifactCache>>,
    /// Cooperative cancellation. When the token flips to `true`, workers
    /// stop claiming jobs, in-flight simulations abort (the token is
    /// polled from the engine step loop), nothing more is appended to
    /// the checkpoint stream — so a later resume re-runs the cancelled
    /// jobs — and the sweep returns [`SweepError::Aborted`] unless every
    /// job had already completed.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Live progress for external observers: set to the number of
    /// durably completed jobs (checkpointed prior jobs count immediately
    /// on resume) and incremented as each job finishes. Orthogonal to
    /// [`SweepOpts::progress`], which prints to stderr.
    pub completed: Option<Arc<AtomicUsize>>,
}

impl Default for SweepOpts {
    fn default() -> SweepOpts {
        SweepOpts {
            workers: None,
            progress: false,
            stream: None,
            job_timeout: None,
            retries: 2,
            chaos: None,
            cache: None,
            cancel: None,
            completed: None,
        }
    }
}

/// Seeded orchestration-failure injection (testing hook for the chaos
/// harness in `mtsim-check`): worker panics at job boundaries and
/// simulated kills after a fixed number of completions. Production runs
/// leave this `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Job ids that panic on their *first* attempt (the retry layer then
    /// gets to prove a clean second attempt heals the sweep).
    pub panic_once: Vec<usize>,
    /// Abort the sweep once this many jobs have completed in this run —
    /// a kill at a job boundary. The checkpoint keeps everything that
    /// finished; the run returns [`SweepError::Aborted`].
    pub kill_after: Option<usize>,
}

/// Expands `spec` and runs every grid point.
///
/// # Errors
///
/// [`SweepError::Config`] when the spec fails [`SweepSpec::validate`];
/// [`SweepError::Io`]/[`SweepError::Aborted`] only for streaming sweeps
/// whose checkpoint cannot be written. Failures of individual grid
/// points are reported per job in the outcome, never as a sweep-level
/// error.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOpts) -> Result<SweepOutcome, SweepError> {
    spec.validate().map_err(SweepError::Config)?;
    let jobs = spec.expand();
    let writer = match &opts.stream {
        None => None,
        Some(path) => Some(StreamWriter::create(path, spec_hash(spec), jobs.len())?),
    };
    execute(jobs, Vec::new(), writer, opts)
}

/// Resumes an interrupted streaming sweep from its checkpoint.
///
/// The checkpoint is validated line by line; completed jobs are taken
/// from it verbatim and only the remaining grid points run. The final
/// result table is byte-identical to an uninterrupted run of the same
/// spec. A torn final line (crash mid-append) is discarded with a
/// warning and that job simply re-runs; any other inconsistency is a
/// typed error.
///
/// # Errors
///
/// [`SweepError::Config`] for an invalid spec, [`SweepError::Corrupt`]
/// for a damaged checkpoint, [`SweepError::SpecMismatch`] when the
/// checkpoint belongs to a different spec, [`SweepError::Io`] when the
/// file cannot be read or reopened, and [`SweepError::Aborted`] when
/// the resumed run itself fails to keep streaming.
pub fn resume_sweep(
    spec: &SweepSpec,
    opts: &SweepOpts,
    path: &str,
) -> Result<SweepOutcome, SweepError> {
    spec.validate().map_err(SweepError::Config)?;
    let jobs = spec.expand();
    let hash = spec_hash(spec);
    let ckpt = load_checkpoint(path)?;
    if ckpt.spec_hash != hash {
        return Err(SweepError::SpecMismatch { expected: hash, found: ckpt.spec_hash });
    }
    if ckpt.total != jobs.len() {
        return Err(SweepError::Corrupt {
            path: path.to_string(),
            line: 1,
            detail: format!(
                "header says {} grid points but the spec expands to {}",
                ckpt.total,
                jobs.len()
            ),
        });
    }
    if ckpt.torn_tail {
        eprintln!(
            "warning: {path}: discarded a torn final record (crash mid-append); \
             that job will re-run"
        );
    }
    let writer = StreamWriter::reopen(path, &ckpt)?;
    let mut prior: Vec<JobOutcome> = ckpt
        .records
        .into_values()
        .map(|r| JobOutcome {
            spec: jobs[r.id],
            result: r.result,
            attr: r.attr,
            opt: r.opt,
            cache_hit: false,
            attempts: r.attempts,
            quarantined: r.quarantined,
        })
        .collect();
    prior.sort_by_key(|o| o.spec.id);
    let done: std::collections::HashSet<usize> = prior.iter().map(|o| o.spec.id).collect();
    let remaining: Vec<JobSpec> = jobs.into_iter().filter(|j| !done.contains(&j.id)).collect();
    execute(remaining, prior, Some(writer), opts)
}

/// Runs an explicit job list — the escape hatch for grids a cartesian
/// [`SweepSpec`] cannot express (per-app processor counts, mixed
/// baselines). Ids are the caller's; the outcome is sorted by id, so the
/// submission order never shows in the results.
///
/// Streaming and chaos kills need a [`SweepSpec`] to hash, so this entry
/// point ignores [`SweepOpts::stream`] and rejects kill plans; use
/// [`run_sweep`] for crash-safe runs.
pub fn run_job_specs(jobs: Vec<JobSpec>, opts: &SweepOpts) -> SweepOutcome {
    debug_assert!(opts.stream.is_none(), "run_job_specs does not stream; use run_sweep");
    debug_assert!(
        opts.chaos.as_ref().is_none_or(|c| c.kill_after.is_none()),
        "run_job_specs cannot simulate kills; use run_sweep"
    );
    let opts = SweepOpts { stream: None, ..opts.clone() };
    execute(jobs, Vec::new(), None, &opts)
        .expect("a non-streaming sweep cannot fail at the sweep level")
}

/// Shared executor: runs `remaining`, appends each completion to the
/// stream (when present), merges with `prior` outcomes from a
/// checkpoint, and sorts by id.
fn execute(
    remaining: Vec<JobSpec>,
    prior: Vec<JobOutcome>,
    writer: Option<StreamWriter>,
    opts: &SweepOpts,
) -> Result<SweepOutcome, SweepError> {
    let workers = opts.workers.unwrap_or_else(default_workers);
    let total = prior.len() + remaining.len();
    let cache = match &opts.cache {
        Some(shared) => Arc::clone(shared),
        None => Arc::new(ArtifactCache::new()),
    };
    // Snapshot the counters so a shared cache reports per-sweep deltas.
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let done = AtomicUsize::new(prior.len());
    if let Some(c) = &opts.completed {
        c.store(prior.len(), Ordering::Relaxed);
    }
    let started = Instant::now();

    let watchdog = opts.job_timeout.map(|_| Watchdog::new());
    let writer = Mutex::new(writer);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let completed_this_run = AtomicUsize::new(0);
    // Jobs that made it past the persistence point this run (appended to
    // the stream when one exists). A cancelled sweep is Ok only if every
    // job got here — a cancelled-but-unpersisted final job must abort.
    let durable = AtomicUsize::new(0);
    let kill_after = opts.chaos.as_ref().and_then(|c| c.kill_after);
    let cancelled = || opts.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed));

    let ran = pool::run_jobs_partial(remaining, workers, &stop, |_, spec| {
        let outcome = run_one_with_retries(spec, &cache, opts, watchdog.as_ref());
        if cancelled() {
            // A cancelled sweep stops persisting: whatever this job
            // produced (typically a cancelled simulation) stays off the
            // checkpoint, so a later resume re-runs it cleanly.
            stop.store(true, Ordering::Relaxed);
            return outcome;
        }
        if let Some(w) = writer.lock().unwrap().as_mut() {
            if let Err(e) = w.append(&outcome) {
                stop.store(true, Ordering::Relaxed);
                first_error.lock().unwrap().get_or_insert(e);
            }
        }
        if let Some(c) = &opts.completed {
            c.fetch_add(1, Ordering::Relaxed);
        }
        durable.fetch_add(1, Ordering::Relaxed);
        let n = completed_this_run.fetch_add(1, Ordering::Relaxed) + 1;
        if kill_after.is_some_and(|k| n >= k) {
            stop.store(true, Ordering::Relaxed);
        }
        if opts.progress {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprint!(
                "\r[{n}/{total}] {} {} p={} t={}      ",
                spec.app, spec.model, spec.procs, spec.threads_per_proc
            );
        }
        outcome
    });
    if opts.progress && total > 0 {
        eprintln!();
    }

    let completed = prior.len() + ran.len();
    if let Some(e) = first_error.lock().unwrap().take() {
        return Err(SweepError::Aborted { reason: e.to_string(), completed });
    }
    if cancelled() && prior.len() + durable.load(Ordering::Relaxed) < total {
        let completed = prior.len() + durable.load(Ordering::Relaxed);
        return Err(SweepError::Aborted { reason: "cancelled".into(), completed });
    }
    // A kill that fires after the last job is a no-op: everything is
    // durable, so the sweep simply completed.
    if kill_after.is_some() && completed < total {
        return Err(SweepError::Aborted {
            reason: "chaos: injected kill at a job boundary".into(),
            completed,
        });
    }

    let mut outcomes = prior;
    outcomes.extend(ran.into_iter().map(|(_, spec, result)| match result {
        Ok(outcome) => outcome,
        // A panic that escaped the retry layer itself (bookkeeping bug,
        // not a job failure) still degrades to one failed row.
        Err(message) => JobOutcome::once(spec, Err(JobError::Panic { message })),
    }));
    outcomes.sort_by_key(|o| o.spec.id);

    Ok(SweepOutcome {
        jobs: outcomes,
        workers,
        wall: started.elapsed(),
        cache_hits: cache.hits() - hits0,
        cache_misses: cache.misses() - misses0,
        machine_reuses: 0,
    })
}

/// Runs one grid point, retrying transient failures (panics and
/// wall-clock timeouts) with exponential backoff and quarantining the
/// job once the budget is spent. Deterministic failures (typed simulator
/// errors, verify mismatches) return immediately — rerunning them would
/// produce the same result.
fn run_one_with_retries(
    spec: &JobSpec,
    cache: &ArtifactCache,
    opts: &SweepOpts,
    watchdog: Option<&Watchdog>,
) -> JobOutcome {
    let attempts_allowed = 1 + opts.retries;
    let mut attempt = 0u32;
    let sweep_cancelled = || opts.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed));
    loop {
        attempt += 1;
        let armed = match (watchdog, opts.job_timeout) {
            (Some(dog), Some(budget)) => Some(dog.arm(budget)),
            _ => None,
        };
        // The engine polls one token per run: the per-attempt watchdog
        // deadline when armed (sweep-level cancel then takes effect at
        // the next attempt boundary, bounded by the job timeout), else
        // the sweep-level cancel token directly.
        let cancel = armed.as_ref().map(|a| a.token()).or_else(|| opts.cancel.clone());
        let run = catch_unwind(AssertUnwindSafe(|| {
            if attempt == 1 {
                if let Some(chaos) = &opts.chaos {
                    if chaos.panic_once.contains(&spec.id) {
                        panic!("chaos: injected panic at job {}", spec.id);
                    }
                }
            }
            run_one(spec, cache, cancel)
        }));
        drop(armed);
        let mut outcome = match run {
            Ok(outcome) => outcome,
            Err(payload) => JobOutcome::once(
                *spec,
                Err(JobError::Panic { message: pool::panic_message(payload.as_ref()) }),
            ),
        };
        outcome.attempts = attempt;
        let transient =
            matches!(&outcome.result, Err(e) if e.kind() == "panic" || e.kind() == "timeout");
        if !transient {
            return outcome;
        }
        // A cancelled sweep never retries: the "timeout" here is the
        // cancel token aborting the engine, not a transient failure, and
        // the executor discards the outcome anyway.
        if sweep_cancelled() {
            return outcome;
        }
        if attempt >= attempts_allowed {
            outcome.quarantined = true;
            return outcome;
        }
        // Exponential backoff, capped: transient failures are usually
        // resource pressure, and hammering makes that worse.
        std::thread::sleep(Duration::from_millis(10u64 << attempt.min(5)));
    }
}

/// Runs a single grid point: cache lookups (built app, image, cached
/// decode), then the shared single-point body with the sweep's recorder
/// and cancel token, then the mapping of its error to a job error.
fn run_one(spec: &JobSpec, cache: &ArtifactCache, cancel: Option<Arc<AtomicBool>>) -> JobOutcome {
    let (app, mut cache_hit) = cache.built(spec.app, spec.scale, spec.nthreads());
    let cfg = spec.config();

    // A pinned level runs its image under every model (a `Switch` is a
    // 1-cycle no-op on the implicit machines) and records the grouping
    // statistics, all zero for `none`; `auto` records none.
    let grouped = spec.opt.runs_grouped(cfg.model).then(|| {
        let (program, stats, hit) = cache.grouped(spec.app, spec.scale, spec.nthreads());
        cache_hit = cache_hit && hit;
        (program, stats)
    });
    let program = grouped.as_ref().map_or(&app.program, |(program, _)| &**program);
    let opt_cols = matches!(spec.opt, OptChoice::Level(_)).then(|| match &grouped {
        Some((_, stats)) => OptCols {
            grouped_loads: stats.grouped_loads as u64,
            groups: stats.switches_inserted as u64,
        },
        None => OptCols::default(),
    });

    // Decode once per distinct program per cache lifetime (DESIGN.md
    // §20); every grid point then hands the engine its dense form
    // instead of re-deriving costs and register masks per run.
    let (decoded, decoded_hit) = cache.decoded(program);
    cache_hit = cache_hit && decoded_hit;

    // Attribution runs attach a real recorder; a tiny ring suffices since
    // the sweep only keeps the attribution table, not the event trace.
    let mut rec =
        spec.attr.then(|| ObsRecorder::with_capacity(cfg.processors, cfg.total_threads(), 1));
    let run = match rec.as_mut() {
        Some(r) => run_decoded(&app, program, &decoded, cfg, r, cancel),
        None => run_decoded(&app, program, &decoded, cfg, &mut NoopRecorder, cancel),
    };
    let result = match run {
        Ok(r) => Ok(r.stats()),
        Err(RunError::Sim { err, .. }) => Err(JobError::from_sim(&err)),
        Err(RunError::Verify { detail, .. }) => Err(JobError::Verify { message: detail }),
    };
    // Attribution and opt statistics describe a finished run only.
    let (attr, opt) = match &result {
        Ok(_) => (rec.map(|r| r.attr.summary()), opt_cols),
        Err(_) => (None, None),
    };
    JobOutcome { attr, opt, cache_hit, ..JobOutcome::once(*spec, result) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_apps::{AppKind, Scale};
    use mtsim_core::SwitchModel;
    use mtsim_opt::OptLevel;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            apps: vec![AppKind::Sieve],
            models: vec![SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch],
            procs: vec![2],
            threads: vec![1, 2],
            scale: Scale::Tiny,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn tiny_sweep_runs_every_point_ok() {
        let out = run_sweep(&tiny_spec(), &SweepOpts::default()).unwrap();
        assert_eq!(out.jobs.len(), 4);
        assert_eq!(out.ok_count(), 4);
        // Two (model-independent) builds, one grouping derivation; the
        // rest of the lookups hit.
        assert!(out.cache_hits + out.cache_misses >= 4);
        for job in &out.jobs {
            let stats = job.result.as_ref().unwrap();
            assert!(stats.cycles > 0);
            assert!(stats.instructions > 0);
        }
    }

    #[test]
    fn pinned_intra_matches_auto_under_explicit_switch() {
        // Under the explicit-switch model, `auto` selects the grouped
        // program and `intra` pins the same cached grouping: the
        // simulated results must be identical, and only the pinned point
        // carries optimizer columns.
        let spec = SweepSpec {
            apps: vec![AppKind::Sieve],
            models: vec![SwitchModel::ExplicitSwitch],
            procs: vec![2],
            threads: vec![2],
            scale: Scale::Tiny,
            opts: vec![OptChoice::Auto, OptChoice::Level(OptLevel::Intra)],
            ..SweepSpec::default()
        };
        let out = run_sweep(&spec, &SweepOpts::default()).unwrap();
        assert_eq!(out.ok_count(), 2);
        let (auto, intra) = (&out.jobs[0], &out.jobs[1]);
        assert_eq!(auto.spec.opt, OptChoice::Auto);
        assert_eq!(auto.result, intra.result, "intra must be bit-identical to auto grouping");
        assert!(auto.opt.is_none());
        let cols = intra.opt.expect("pinned levels record optimizer stats");
        assert!(cols.grouped_loads > 0);
        assert!(cols.groups > 0);
    }

    #[test]
    fn pinned_levels_run_and_verify_on_every_model() {
        let spec = SweepSpec {
            apps: vec![AppKind::Sieve],
            models: vec![SwitchModel::SwitchOnLoad, SwitchModel::SwitchOnMiss],
            procs: vec![2],
            threads: vec![2],
            scale: Scale::Tiny,
            opts: OptLevel::ALL.into_iter().map(OptChoice::Level).collect(),
            ..SweepSpec::default()
        };
        let out = run_sweep(&spec, &SweepOpts::default()).unwrap();
        assert_eq!(
            out.ok_count(),
            4,
            "{:?}",
            out.jobs.iter().map(|j| &j.result).collect::<Vec<_>>()
        );
        for job in &out.jobs {
            let cols = job.opt.expect("every pinned point records optimizer stats");
            match job.spec.opt {
                OptChoice::Level(OptLevel::None) => assert_eq!(cols, OptCols::default()),
                _ => assert!(cols.groups > 0),
            }
        }
        let csv = out.results_csv();
        assert!(csv.lines().next().unwrap().ends_with(",group_mean"));
    }

    #[test]
    fn invalid_spec_is_a_sweep_level_error() {
        let spec = SweepSpec { procs: vec![], ..SweepSpec::default() };
        match run_sweep(&spec, &SweepOpts::default()) {
            Err(SweepError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn outcome_is_sorted_by_id_regardless_of_submission() {
        let mut jobs = tiny_spec().expand();
        jobs.reverse();
        let out = run_job_specs(jobs, &SweepOpts { workers: Some(3), ..SweepOpts::default() });
        let ids: Vec<usize> = out.jobs.iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn injected_panic_heals_on_retry_and_quarantines_without_budget() {
        let spec = SweepSpec { scale: Scale::Tiny, ..tiny_spec() };
        let chaos = ChaosPlan { panic_once: vec![1], kill_after: None };

        let healed = run_sweep(
            &spec,
            &SweepOpts { retries: 2, chaos: Some(chaos.clone()), ..SweepOpts::default() },
        )
        .unwrap();
        assert_eq!(healed.ok_count(), 4);
        assert_eq!(healed.quarantined_count(), 0);
        assert_eq!(healed.jobs[1].attempts, 2, "the panicked job must have retried");
        let clean = run_sweep(&spec, &SweepOpts::default()).unwrap();
        assert_eq!(clean.results_json(), healed.results_json());

        let starved =
            run_sweep(&spec, &SweepOpts { retries: 0, chaos: Some(chaos), ..SweepOpts::default() })
                .unwrap();
        assert_eq!(starved.quarantined_count(), 1);
        assert_eq!(starved.jobs[1].result.as_ref().unwrap_err().kind(), "panic");
        assert!(starved.results_json().contains("failed_jobs"));
    }

    #[test]
    fn wall_clock_watchdog_times_out_and_quarantines_a_stuck_job() {
        // A zero wall budget is pre-expired: every attempt is cancelled,
        // so the job exhausts its retries and lands in quarantine with
        // kind "timeout" while the sweep itself completes.
        let spec = SweepSpec {
            apps: vec![AppKind::Sor],
            models: vec![SwitchModel::SwitchOnLoad],
            procs: vec![2],
            threads: vec![1],
            scale: Scale::Small,
            ..SweepSpec::default()
        };
        let out = run_sweep(
            &spec,
            &SweepOpts {
                workers: Some(1),
                job_timeout: Some(Duration::ZERO),
                retries: 1,
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert_eq!(out.jobs.len(), 1);
        let job = &out.jobs[0];
        assert_eq!(job.result.as_ref().unwrap_err().kind(), "timeout");
        assert!(job.quarantined);
        assert_eq!(job.attempts, 2);
    }

    #[test]
    fn pre_fired_cancel_aborts_without_retries_and_reports_durable_progress() {
        let cancel = Arc::new(AtomicBool::new(true));
        let completed = Arc::new(AtomicUsize::new(0));
        let opts = SweepOpts {
            workers: Some(1),
            retries: 3,
            cancel: Some(Arc::clone(&cancel)),
            completed: Some(Arc::clone(&completed)),
            ..SweepOpts::default()
        };
        match run_sweep(&tiny_spec(), &opts) {
            Err(SweepError::Aborted { reason, completed: done }) => {
                assert_eq!(reason, "cancelled");
                // A cancelled job is discarded before persistence, so no
                // durable progress is reported for it.
                assert_eq!(done, 0);
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
        assert_eq!(completed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_cache_across_sweeps_reports_zero_misses_on_the_second_run() {
        let cache = Arc::new(ArtifactCache::new());
        let opts = SweepOpts { cache: Some(Arc::clone(&cache)), ..SweepOpts::default() };
        let first = run_sweep(&tiny_spec(), &opts).unwrap();
        assert!(first.cache_misses > 0, "first run must build the artifacts");
        let second = run_sweep(&tiny_spec(), &opts).unwrap();
        assert_eq!(second.cache_misses, 0, "a warm shared cache rebuilds nothing");
        assert_eq!(first.results_json(), second.results_json());
    }
}
