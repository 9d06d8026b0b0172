//! # mtsim-check
//!
//! Correctness tooling for the simulator (DESIGN.md §15): a sequential
//! **reference interpreter** over `mtsim-isa` programs, a seeded
//! **program fuzzer** over the `mtsim-asm` builder DSL, a **differential
//! harness** that holds every switch model × latency × grouping × fault
//! seed to the oracle's architectural result, and a greedy **shrinking
//! minimizer** that reduces failing cases to small witnesses.
//!
//! The oracle ([`run_oracle`]) executes programs with no pipeline, no
//! cache, no context switching, and zero latency — round-robin, one
//! instruction per live thread — so it defines *architectural* semantics
//! only. Generated programs ([`generate`]) are race-free by construction,
//! which makes the differential property exact: every engine schedule
//! must produce the oracle's final shared memory, and (when no
//! synchronization primitive materialized an arrival order in a
//! register) its exact register files and local memories too.
//!
//! Entry points:
//!
//! * [`chaos`] — the `mtsim check --chaos` driver: seeded kills,
//!   truncations, and worker panics against the crash-safe sweep layer
//!   (DESIGN.md §18), asserting byte-identical recovery.
//! * [`fuzz`] — the `mtsim check` driver: N seeded cases across the full
//!   model grid on the work-stealing pool, failures minimized.
//! * [`check_program`] — one case, one verdict.
//! * [`miscompiled_candidates`] — a deliberate §4-violating miscompiler
//!   used to prove the harness catches real reordering bugs.
//! * [`illegally_hoisted_candidates`] — the inter-block analogue: the
//!   grouped image with one load lifted above an aliasing store in an
//!   earlier basic block, a move no legal reorganization may make.

mod broken;
mod chaos;
mod deep;
mod diff;
mod generate;
#[cfg(test)]
mod heapcheck;
mod oracle;
mod replay;
mod shrink;

pub use broken::{illegally_hoisted_candidates, miscompiled_candidates};
pub use chaos::{chaos, ChaosConfig, ChaosSummary};
pub use deep::{deep, DeepConfig, DeepSummary};
pub use diff::{check_program, compare, fault_profile, CaseFailure, CaseReport, LATENCIES};
pub use generate::{generate, Cnd, EmittedCase, Stmt, TestProgram, FE, IE};
pub use oracle::{run_oracle, OracleError, OracleRun};
pub use replay::{check_replay, replay_config, replay_program, ReplayReport};
pub use shrink::{metric, shrink, DEFAULT_BUDGET};

use mtsim_rng::Rng;
use mtsim_sweep::run_jobs;

/// Configuration for a fuzzing campaign.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of generated cases.
    pub cases: usize,
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Worker threads for the case-level fan-out.
    pub jobs: usize,
    /// Predicate-evaluation budget for shrinking each failure.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 100,
            seed: 0xB00,
            jobs: mtsim_sweep::default_workers(),
            shrink_budget: DEFAULT_BUDGET,
        }
    }
}

/// One minimized failure from a campaign.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The derived seed of the failing case (reproduce with
    /// `generate(case_seed)`).
    pub case_seed: u64,
    /// What diverged, on the *original* (unshrunk) case.
    pub failure: CaseFailure,
    /// The minimized witness case.
    pub minimized: TestProgram,
    /// Assembly listing of the minimized witness (at its own thread
    /// count), for bug reports.
    pub listing: String,
}

/// Results of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Cases generated and checked.
    pub cases: usize,
    /// Synthetic-trace replay cases checked (every fifth case also runs
    /// the replay differential, [`check_replay`]).
    pub replay_cases: usize,
    /// Engine runs compared against the oracle.
    pub engine_runs: usize,
    /// Oracle executions.
    pub oracle_runs: usize,
    /// Worker panics (always failures; counted separately because there
    /// is no case to shrink).
    pub panics: Vec<String>,
    /// Divergences found, each minimized.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzSummary {
    /// True when every case matched the oracle everywhere.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.panics.is_empty()
    }

    /// Human-readable report (stable across runs at a fixed seed).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mtsim check: {} cases, {} engine runs, {} oracle runs\n",
            self.cases, self.engine_runs, self.oracle_runs
        ));
        out.push_str(&format!(
            "  replay: {} synthetic-trace cases held to their predicted image\n",
            self.replay_cases
        ));
        for p in &self.panics {
            out.push_str(&format!("PANIC: {p}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "FAIL seed={:#x} at {}: {}\n  minimized to {} statement(s), nthreads={}:\n",
                f.case_seed,
                f.failure.label,
                f.failure.detail,
                f.minimized.stmts.len(),
                f.minimized.nthreads
            ));
            for line in f.listing.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if self.passed() {
            out.push_str("all cases match the reference interpreter\n");
        }
        out
    }
}

/// Derives the per-case seed stream for a campaign. Exposed so a failing
/// seed printed by the CLI can be replayed in a test.
pub fn case_seeds(master: u64, cases: usize) -> Vec<u64> {
    let mut r = Rng::derive(master, "check-fuzz");
    (0..cases).map(|_| r.next_u64()).collect()
}

/// Fault seed paired with a case seed in the campaign grid.
fn fault_seed_for(case_seed: u64) -> u64 {
    Rng::derive(case_seed, "check-fault-seed").next_u64()
}

/// Runs a fuzzing campaign: generates `cfg.cases` cases, checks each one
/// across the full differential grid on the work-stealing pool, and
/// minimizes every failure (serially, after the parallel phase).
pub fn fuzz(cfg: FuzzConfig) -> FuzzSummary {
    let seeds = case_seeds(cfg.seed, cfg.cases);
    let outcomes = run_jobs(seeds, cfg.jobs, |idx, &case_seed| {
        let tp = generate(case_seed);
        let fault_seed = fault_seed_for(case_seed);
        let report = check_program(&tp, fault_seed)?;
        // Every fifth case also runs the trace-replay differential: a
        // synthetic trace compiled by mtsim-replay, held to its
        // host-predicted image across the model grid (SMT widths,
        // faults, and a combining network included).
        let replay = if idx % 5 == 4 { Some(check_replay(case_seed, fault_seed)?) } else { None };
        Ok::<_, CaseFailure>((report, replay))
    });

    let mut summary = FuzzSummary { cases: cfg.cases, ..FuzzSummary::default() };
    for (case_seed, outcome) in outcomes {
        match outcome {
            Err(panic) => summary.panics.push(format!("case seed {case_seed:#x}: {panic}")),
            Ok(Ok((report, replay))) => {
                summary.engine_runs += report.engine_runs;
                summary.oracle_runs += report.oracle_runs;
                if let Some(r) = replay {
                    summary.replay_cases += 1;
                    summary.engine_runs += r.engine_runs;
                }
            }
            Ok(Err(failure)) if failure.label.starts_with("replay") => {
                // A trace has no statement list to shrink; report the
                // compiled replay program directly with a placeholder
                // witness (the seed reproduces the case exactly).
                let listing = replay_program(case_seed).program.listing();
                let minimized = TestProgram {
                    nthreads: failure.nthreads,
                    in_words: 1,
                    acc_cells: 1,
                    out_slots: 1,
                    local_words: 0,
                    input_seed: 0,
                    stmts: Vec::new(),
                };
                summary.failures.push(FuzzFailure { case_seed, failure, minimized, listing });
            }
            Ok(Err(failure)) => {
                let tp = generate(case_seed);
                let fault_seed = fault_seed_for(case_seed);
                let minimized =
                    shrink(&tp, cfg.shrink_budget, |cand| check_program(cand, fault_seed).is_err());
                let listing = minimized.emit().program.listing();
                summary.failures.push(FuzzFailure { case_seed, failure, minimized, listing });
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_deterministic_and_spread() {
        let a = case_seeds(0xB00, 8);
        let b = case_seeds(0xB00, 8);
        assert_eq!(a, b);
        let uniq: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(case_seeds(0xB01, 8), a);
    }

    #[test]
    fn small_campaign_passes() {
        let summary = fuzz(FuzzConfig { cases: 8, seed: 0xB00, jobs: 2, ..Default::default() });
        assert!(summary.passed(), "{}", summary.report());
        assert!(summary.engine_runs > 0);
        assert!(summary.report().contains("all cases match"));
    }
}
