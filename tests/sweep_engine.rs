//! End-to-end contracts of the sweep engine (DESIGN.md §14): the result
//! table is a pure function of the spec — independent of worker count,
//! submission order, and artifact-cache state — and a single poisoned
//! grid point degrades to one failing row, never a dead sweep.

use mtsim::apps::{AppKind, Scale};
use mtsim::core::SwitchModel;
use mtsim::sweep::{
    load_checkpoint, resume_sweep, run_job_specs, run_jobs, run_sweep, ChaosPlan, JobSpec,
    SweepError, SweepOpts, SweepSpec,
};

/// A grid that exercises both program variants (grouped and ungrouped),
/// several cache keys, and the fault-injection path.
fn faulty_grid() -> SweepSpec {
    SweepSpec {
        apps: vec![AppKind::Sieve, AppKind::Sor],
        models: vec![SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch],
        procs: vec![2],
        threads: vec![1, 2],
        seeds: vec![1, 2],
        drop_rates: vec![0.0, 0.05],
        scale: Scale::Tiny,
        ..SweepSpec::default()
    }
}

fn opts(workers: usize) -> SweepOpts {
    SweepOpts { workers: Some(workers), ..SweepOpts::default() }
}

/// Deterministic submission shuffle: interleave front and back halves so
/// neighbouring ids land on different workers.
fn shuffled(mut jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    let back = jobs.split_off(jobs.len() / 2);
    let mut out = Vec::with_capacity(jobs.len() + back.len());
    for (a, b) in back.iter().zip(jobs.iter()) {
        out.push(*a);
        out.push(*b);
    }
    out.extend(back.iter().skip(jobs.len()).copied());
    out
}

#[test]
fn parallel_shuffled_sweep_is_byte_identical_to_serial() {
    let spec = faulty_grid();
    let serial = run_sweep(&spec, &opts(1)).unwrap();
    let parallel = run_job_specs(shuffled(spec.expand()), &opts(8));
    // Streaming every row to a checkpoint must not change the table.
    let path = temp_ckpt("streamed");
    let streamed = run_sweep(&spec, &SweepOpts { stream: Some(path.clone()), ..opts(4) }).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(serial.jobs.len(), 32);
    for other in [&parallel, &streamed] {
        assert_eq!(serial.results_json(), other.results_json());
        assert_eq!(serial.results_csv(), other.results_csv());
    }
    // The fault seeds are live, not decorative: every drop_rate > 0 row
    // must have gone through at least one retry somewhere in the grid.
    let retries: u64 = serial
        .jobs
        .iter()
        .filter(|j| j.spec.drop_rate > 0.0)
        .filter_map(|j| j.result.as_ref().ok())
        .map(|s| s.retries)
        .sum();
    assert!(retries > 0, "fault injection never fired");
}

#[test]
fn cached_artifacts_do_not_change_results() {
    // One sweep sharing artifacts across seeds vs. one fresh single-job
    // sweep per grid point (cold cache each time): identical stats.
    let spec = SweepSpec {
        apps: vec![AppKind::Sieve],
        models: vec![SwitchModel::ExplicitSwitch],
        procs: vec![2],
        threads: vec![2],
        seeds: vec![0, 1, 2],
        drop_rates: vec![0.02],
        scale: Scale::Tiny,
        ..SweepSpec::default()
    };
    let shared = run_sweep(&spec, &opts(2)).unwrap();
    assert!(shared.cache_hits > 0, "grid never reused an artifact");

    for job in &shared.jobs {
        let fresh = run_job_specs(vec![job.spec], &opts(1));
        assert_eq!(fresh.jobs.len(), 1);
        assert_eq!(
            job.result.as_ref().unwrap(),
            fresh.jobs[0].result.as_ref().unwrap(),
            "cached run diverged from cold run for job {}",
            job.spec.id
        );
    }
}

#[test]
fn pool_isolates_a_panicking_job() {
    let items: Vec<u32> = (0..16).collect();
    let ran = run_jobs(items, 4, |_, &n| {
        if n == 7 {
            panic!("poisoned job {n}");
        }
        n * 2
    });
    assert_eq!(ran.len(), 16);
    for (n, result) in ran {
        if n == 7 {
            let message = result.unwrap_err();
            assert!(message.contains("poisoned job 7"), "lost panic payload: {message}");
        } else {
            assert_eq!(result.unwrap(), n * 2);
        }
    }
}

#[test]
fn failing_grid_point_is_one_failing_row() {
    // drop_rate 1.0 with a tiny retry budget can never complete a remote
    // read; those points must fail typed while the rest of the grid
    // finishes normally.
    let spec = SweepSpec {
        apps: vec![AppKind::Sieve],
        models: vec![SwitchModel::SwitchOnLoad],
        procs: vec![2],
        threads: vec![2],
        seeds: vec![7],
        drop_rates: vec![0.0, 1.0],
        scale: Scale::Tiny,
        max_retries: 2,
        ..SweepSpec::default()
    };
    let out = run_sweep(&spec, &opts(2)).unwrap();
    assert_eq!(out.jobs.len(), 2);
    assert_eq!(out.ok_count(), 1);
    assert_eq!(out.failed_count(), 1);

    let ok = &out.jobs[0];
    assert_eq!(ok.spec.drop_rate, 0.0);
    assert!(ok.result.is_ok());

    let failed = &out.jobs[1];
    assert_eq!(failed.spec.drop_rate, 1.0);
    let err = failed.result.as_ref().unwrap_err();
    assert_eq!(err.kind(), "fault", "unexpected error: {err}");

    // The failure shows up as a typed row in both renderings.
    assert!(out.results_json().contains("\"status\":\"error\""));
    assert!(out.results_csv().lines().any(|l| l.contains(",error,")));
}

fn temp_ckpt(tag: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("mtsim-sweep-engine-{}-{tag}.jsonl", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn sweep_builds_each_artifact_exactly_once() {
    // Satellite contract: artifacts are keyed by what actually shapes
    // them (app + scale + thread count), so the 32-job grid builds each
    // of its handful of distinct artifacts once and serves the rest from
    // cache — regardless of worker count or claim order.
    let spec = faulty_grid();
    let out = run_sweep(&spec, &opts(4)).unwrap();
    assert_eq!(out.jobs.len(), 32);

    // 32 built-app lookups from the jobs themselves + 16 grouped-program
    // lookups (one per explicit-switch job), each of which consults the
    // built-app cache again for its base program, + 32 decoded-program
    // lookups (one per job, DESIGN.md §20): 96 lookups total.
    // Misses are exactly the distinct artifacts: {sieve, sor} x {2, 4
    // threads} built = 4, the same four keys again for grouped programs
    // (neither app is shape-invariant across thread counts, so content
    // dedup keeps them distinct), and the eight distinct program
    // contents decoded once each.
    let lookups = out.cache_hits + out.cache_misses;
    assert_eq!(lookups, 96, "unexpected number of cache lookups");
    assert_eq!(out.cache_misses, 16, "an artifact was built more than once");
    assert_eq!(out.cache_hits, 80);
}

#[test]
fn resume_after_kill_is_byte_identical_to_uninterrupted_run() {
    let spec = faulty_grid();
    let reference = run_sweep(&spec, &opts(1)).unwrap();
    let path = temp_ckpt("resume");

    // Kill the streamed run at a job boundary after 5 completions...
    let killed = run_sweep(
        &spec,
        &SweepOpts {
            workers: Some(4),
            stream: Some(path.clone()),
            chaos: Some(ChaosPlan { panic_once: vec![], kill_after: Some(5) }),
            ..SweepOpts::default()
        },
    );
    let Err(SweepError::Aborted { completed, .. }) = killed else {
        panic!("kill_after must abort the sweep, got {killed:?}");
    };
    assert!((5..32).contains(&completed), "implausible completion count {completed}");

    // ...then resume from the checkpoint and compare bytes.
    let resumed = run_sweep_resume(&spec, &path);
    assert_eq!(resumed.results_json(), reference.results_json());
    assert_eq!(resumed.results_csv(), reference.results_csv());

    // The finished checkpoint holds every record and loads cleanly.
    let ckpt = load_checkpoint(&path).unwrap();
    assert_eq!(ckpt.records.len(), 32);
    assert!(!ckpt.torn_tail);
    std::fs::remove_file(&path).ok();
}

fn run_sweep_resume(spec: &SweepSpec, path: &str) -> mtsim::sweep::SweepOutcome {
    resume_sweep(spec, &opts(2), path).unwrap()
}

#[test]
fn corrupt_checkpoints_are_typed_errors_never_partial_resumes() {
    let spec = faulty_grid();
    let path = temp_ckpt("corrupt");
    run_sweep(&spec, &SweepOpts { stream: Some(path.clone()), ..opts(1) }).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Interior bit flip: a complete line whose checksum no longer
    // matches is corruption, reported with its line number.
    let mut flipped = pristine.clone();
    let second_line = pristine.iter().position(|&b| b == b'\n').unwrap() + 12;
    flipped[second_line] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    match resume_sweep(&spec, &opts(1), &path) {
        Err(SweepError::Corrupt { line: 2, .. }) => {}
        other => panic!("bit flip must be Corrupt at line 2, got {other:?}"),
    }

    // Truncated final record that kept its newline: still a complete
    // line, still fails its checksum, so corruption — NOT the torn-tail
    // crash signature (which requires the newline to be missing).
    let last_nl = pristine.len() - 1;
    let prev_nl = pristine[..last_nl].iter().rposition(|&b| b == b'\n').unwrap();
    let mut cut = pristine[..prev_nl + 1 + (last_nl - prev_nl) / 2].to_vec();
    cut.push(b'\n');
    std::fs::write(&path, &cut).unwrap();
    match resume_sweep(&spec, &opts(1), &path) {
        Err(SweepError::Corrupt { .. }) => {}
        other => panic!("newline-terminated truncation must be Corrupt, got {other:?}"),
    }

    // A checkpoint from a different grid is refused outright.
    std::fs::write(&path, &pristine).unwrap();
    let other_spec = SweepSpec { seeds: vec![1, 2, 3], ..spec.clone() };
    match resume_sweep(&other_spec, &opts(1), &path) {
        Err(SweepError::SpecMismatch { .. }) => {}
        other => panic!("wrong spec must be SpecMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
