//! Chaos harness for the crash-safe sweep layer (DESIGN.md §18).
//!
//! The differential fuzzer checks that the *simulator* is right; this
//! module checks that the *orchestration around it* cannot lose or
//! corrupt results. Each trial injects a seeded failure into a real
//! streamed sweep — a kill at a job boundary, a kill mid-append
//! (simulated by truncating the checkpoint at an arbitrary byte), or
//! worker panics at job boundaries — and asserts the recovered output is
//! **byte-identical** to a clean serial run of the same grid. A fixed
//! set of corruption cases additionally asserts that a damaged
//! checkpoint is always a typed [`SweepError`], never a panic or a
//! silent partial resume.

use std::sync::Arc;

use mtsim_apps::{AppKind, Scale};
use mtsim_core::SwitchModel;
use mtsim_rng::Rng;
use mtsim_sweep::{
    load_checkpoint, resume_sweep, run_sweep, ArtifactCache, ChaosPlan, SweepError, SweepOpts,
    SweepSpec,
};

/// Configuration for a chaos campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Kill/resume trials to run (each trial is one seeded kill-point).
    pub trials: usize,
    /// Master seed; every injection site derives from it.
    pub seed: u64,
    /// Worker threads for the interrupted runs (resumes and the
    /// reference run are serial so byte-identity is against a fixed
    /// baseline).
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig { trials: 25, seed: 0xC0A5, workers: mtsim_sweep::default_workers() }
    }
}

/// Results of a chaos campaign.
#[derive(Debug, Clone, Default)]
pub struct ChaosSummary {
    /// Trials completed.
    pub trials: usize,
    /// Seeded kill-points exercised (boundary kills + mid-append
    /// truncations), each followed by a resume.
    pub kills: usize,
    /// Worker panics injected (healed by the retry layer).
    pub panics_injected: usize,
    /// Fixed corruption cases checked.
    pub corruption_cases: usize,
    /// Property violations, in the order found.
    pub failures: Vec<String>,
}

impl ChaosSummary {
    /// True when every recovery was byte-identical and every corruption
    /// was a typed error.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable report (stable across runs at a fixed seed).
    pub fn report(&self) -> String {
        let mut out = format!(
            "mtsim chaos: {} trials, {} kill-points resumed, {} panics injected, \
             {} corruption cases\n",
            self.trials, self.kills, self.panics_injected, self.corruption_cases
        );
        for f in &self.failures {
            out.push_str(&format!("FAIL: {f}\n"));
        }
        if self.passed() {
            out.push_str("every recovery byte-identical; every corruption typed\n");
        }
        out
    }
}

/// The grid every trial runs: small enough that a trial is milliseconds,
/// varied enough to cover both program variants, the artifact cache, and
/// the fault-injection path.
fn chaos_grid() -> SweepSpec {
    SweepSpec {
        apps: vec![AppKind::Sieve, AppKind::Sor],
        models: vec![SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch],
        procs: vec![2],
        threads: vec![1, 2],
        seeds: vec![1],
        drop_rates: vec![0.0, 0.05],
        scale: Scale::Tiny,
        ..SweepSpec::default()
    }
}

/// A checkpoint path unique to this call, so campaigns running at the same
/// time in one process (parallel tests) never share a file.
fn temp_ckpt(tag: &str) -> String {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("mtsim-chaos-{}-{n}-{tag}.jsonl", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn opts(workers: usize, stream: Option<String>, cache: &Arc<ArtifactCache>) -> SweepOpts {
    SweepOpts {
        workers: Some(workers),
        stream,
        cache: Some(Arc::clone(cache)),
        ..SweepOpts::default()
    }
}

/// Runs a chaos campaign. Deterministic for a fixed config.
///
/// Every leg — reference, kill, resume, panic-heal — shares one
/// campaign-lifetime [`ArtifactCache`], mirroring how `mtsim serve`
/// threads its cache across jobs: crashes and resumes must neither
/// corrupt the shared cache nor rebuild artifacts it already holds
/// (after the reference run warms it, any later leg reporting a cache
/// miss is a failure).
pub fn chaos(cfg: ChaosConfig) -> ChaosSummary {
    let spec = chaos_grid();
    let total = spec.len();
    let cache = Arc::new(ArtifactCache::new());
    let reference =
        run_sweep(&spec, &opts(1, None, &cache)).expect("chaos reference grid must be valid");
    let ref_json = reference.results_json();
    let ref_csv = reference.results_csv();

    let mut summary = ChaosSummary { trials: cfg.trials, ..ChaosSummary::default() };
    let mut rng = Rng::derive(cfg.seed, "chaos-campaign");

    for trial in 0..cfg.trials {
        let path = temp_ckpt(&format!("t{trial}"));
        let result = if rng.next_u64().is_multiple_of(2) {
            kill_at_boundary(&spec, &path, cfg.workers, &mut rng, &cache)
        } else {
            kill_mid_append(&spec, &path, cfg.workers, &mut rng, &cache)
        };
        summary.kills += 1;
        match result {
            Err(msg) => summary.failures.push(format!("trial {trial}: {msg}")),
            Ok(resumed) => {
                if resumed.cache_misses != 0 {
                    summary.failures.push(format!(
                        "trial {trial}: warm campaign cache rebuilt {} artifacts",
                        resumed.cache_misses
                    ));
                }
                if resumed.results_json() != ref_json {
                    summary
                        .failures
                        .push(format!("trial {trial}: resumed JSON differs from clean serial run"));
                }
                if resumed.results_csv() != ref_csv {
                    summary
                        .failures
                        .push(format!("trial {trial}: resumed CSV differs from clean serial run"));
                }
                match load_checkpoint(&path) {
                    Ok(ckpt) if ckpt.records.len() == total => {}
                    Ok(ckpt) => summary.failures.push(format!(
                        "trial {trial}: checkpoint holds {} of {total} records after resume",
                        ckpt.records.len()
                    )),
                    Err(e) => summary
                        .failures
                        .push(format!("trial {trial}: checkpoint unreadable after resume: {e}")),
                }
            }
        }

        // Every few trials, additionally prove injected worker panics
        // heal through the retry layer without perturbing the table.
        if trial % 5 == 0 {
            let n_panics = 1 + (rng.next_u64() as usize) % 3;
            let ids: Vec<usize> =
                (0..n_panics).map(|_| (rng.next_u64() as usize) % total).collect();
            summary.panics_injected += ids.len();
            let plan = ChaosPlan { panic_once: ids.clone(), kill_after: None };
            let healed = run_sweep(
                &spec,
                &SweepOpts {
                    retries: 2,
                    chaos: Some(plan),
                    ..opts(cfg.workers, Some(path.clone()), &cache)
                },
            );
            match healed {
                Ok(out) if out.results_json() == ref_json => {}
                Ok(_) => summary.failures.push(format!(
                    "trial {trial}: panics at {ids:?} changed the result table despite retries"
                )),
                Err(e) => summary
                    .failures
                    .push(format!("trial {trial}: panic injection aborted the sweep: {e}")),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    summary.failures.extend(corruption_cases(&spec, &cache, &mut summary.corruption_cases));
    summary
}

/// Kill at a job boundary: stop claiming after `k` completions, then
/// resume. The checkpoint is consistent (no torn tail) but incomplete.
fn kill_at_boundary(
    spec: &SweepSpec,
    path: &str,
    workers: usize,
    rng: &mut Rng,
    cache: &Arc<ArtifactCache>,
) -> Result<mtsim_sweep::SweepOutcome, String> {
    let total = spec.len();
    let k = 1 + (rng.next_u64() as usize) % (total - 1);
    let killed = run_sweep(
        spec,
        &SweepOpts {
            chaos: Some(ChaosPlan { panic_once: vec![], kill_after: Some(k) }),
            ..opts(workers, Some(path.to_string()), cache)
        },
    );
    match killed {
        Err(SweepError::Aborted { completed, .. }) if completed >= k && completed < total => {}
        other => {
            return Err(format!(
                "kill after {k} jobs should abort with {k}<=completed<{total}, got {other:?}"
            ))
        }
    }
    resume_sweep(spec, &opts(workers, None, cache), path).map_err(|e| format!("resume failed: {e}"))
}

/// Kill mid-append: run the sweep to completion, then truncate the
/// checkpoint at an arbitrary byte past the header — exactly what a
/// power cut mid-`write(2)` leaves behind — and resume.
fn kill_mid_append(
    spec: &SweepSpec,
    path: &str,
    workers: usize,
    rng: &mut Rng,
    cache: &Arc<ArtifactCache>,
) -> Result<mtsim_sweep::SweepOutcome, String> {
    run_sweep(spec, &opts(workers, Some(path.to_string()), cache))
        .map_err(|e| format!("streamed run failed: {e}"))?;
    let bytes = std::fs::read(path).map_err(|e| format!("read checkpoint: {e}"))?;
    let header_end =
        bytes.iter().position(|&b| b == b'\n').ok_or("checkpoint has no header line")? + 1;
    // Cut anywhere in (header_end, len): a line boundary loses whole
    // records, anywhere else leaves a torn tail. Both must recover.
    let span = bytes.len() - header_end;
    let cut = header_end + 1 + (rng.next_u64() as usize) % (span - 1);
    std::fs::write(path, &bytes[..cut]).map_err(|e| format!("truncate checkpoint: {e}"))?;
    resume_sweep(spec, &opts(workers, None, cache), path)
        .map_err(|e| format!("resume after truncation at byte {cut} failed: {e}"))
}

/// Fixed corruption cases: each must be a typed error, never a panic and
/// never a silent partial resume. Returns failure messages.
fn corruption_cases(
    spec: &SweepSpec,
    cache: &Arc<ArtifactCache>,
    count: &mut usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    let path = temp_ckpt("corruption");
    if let Err(e) = run_sweep(spec, &opts(1, Some(path.clone()), cache)) {
        return vec![format!("corruption-case setup sweep failed: {e}")];
    }
    let pristine = std::fs::read(&path).expect("checkpoint just written");
    let lines: Vec<usize> =
        pristine.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();

    // Case 1: bit flip inside a complete interior record.
    *count += 1;
    let mut flipped = pristine.clone();
    let target = lines[0] + 10; // inside record line 2
    flipped[target] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    match resume_sweep(spec, &opts(1, None, cache), &path) {
        Err(SweepError::Corrupt { line: 2, .. }) => {}
        other => failures.push(format!(
            "checksum-mismatch line must resume as Corrupt at line 2, got {}",
            describe(&other)
        )),
    }

    // Case 2: final record truncated but still newline-terminated — a
    // complete line that fails its checksum, i.e. corruption rather than
    // a crash signature.
    *count += 1;
    let last_start = lines[lines.len() - 2] + 1;
    let last_end = lines[lines.len() - 1];
    let keep = last_start + (last_end - last_start) / 2;
    let mut cut = pristine[..keep].to_vec();
    cut.push(b'\n');
    std::fs::write(&path, &cut).unwrap();
    match resume_sweep(spec, &opts(1, None, cache), &path) {
        Err(SweepError::Corrupt { .. }) => {}
        other => failures.push(format!(
            "newline-terminated truncated record must be Corrupt, got {}",
            describe(&other)
        )),
    }

    // Case 3: resuming with a different spec must be refused outright.
    *count += 1;
    std::fs::write(&path, &pristine).unwrap();
    let other_spec = SweepSpec { latencies: vec![50], ..spec.clone() };
    match resume_sweep(&other_spec, &opts(1, None, cache), &path) {
        Err(SweepError::SpecMismatch { .. }) => {}
        other => {
            failures.push(format!("mismatched spec must be SpecMismatch, got {}", describe(&other)))
        }
    }

    // Case 4: a sweep whose job keeps failing transiently must complete
    // with that job quarantined — graceful degradation, not an abort.
    *count += 1;
    match run_sweep(
        spec,
        &SweepOpts {
            workers: Some(1),
            retries: 0,
            chaos: Some(ChaosPlan { panic_once: vec![0], kill_after: None }),
            ..SweepOpts::default()
        },
    ) {
        Ok(out) if out.quarantined_count() == 1 => {
            if !out.results_json().contains("\"failed_jobs\"") {
                failures.push("quarantined job missing from failed_jobs section".into());
            }
        }
        other => failures.push(format!(
            "retry-starved panic must quarantine exactly one job, got {}",
            describe(&other)
        )),
    }

    std::fs::remove_file(&path).ok();
    failures
}

fn describe(r: &Result<mtsim_sweep::SweepOutcome, SweepError>) -> String {
    match r {
        Ok(out) => format!(
            "Ok({} jobs, {} failed, {} quarantined)",
            out.jobs.len(),
            out.failed_count(),
            out.quarantined_count()
        ),
        Err(e) => format!("Err({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_recovers_byte_identically() {
        let summary = chaos(ChaosConfig { trials: 4, seed: 0xC0A5, workers: 2 });
        assert!(summary.passed(), "{}", summary.report());
        assert_eq!(summary.kills, 4);
        assert_eq!(summary.corruption_cases, 4);
        assert!(summary.report().contains("every recovery byte-identical"));
    }

    #[test]
    fn campaign_is_deterministic_for_a_fixed_seed() {
        let a = chaos(ChaosConfig { trials: 2, seed: 7, workers: 2 });
        let b = chaos(ChaosConfig { trials: 2, seed: 7, workers: 2 });
        assert_eq!(a.report(), b.report());
        assert!(a.passed(), "{}", a.report());
    }
}
