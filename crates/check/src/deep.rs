//! The deep differential wall: `mtsim check --deep` (DESIGN.md §20).
//!
//! Where the fuzz harness compares the engine against the *oracle*
//! (architectural results only), the deep wall pins the engine against
//! **itself across time**: every grid point's complete output — cycle
//! counts, per-processor accounting, traffic, run-length histograms,
//! final shared memory, and every thread's register file — is hashed,
//! and the digests are compared against a golden table blessed from the
//! pre-decode engine. A hot-path rewrite (pre-decoded dispatch, SoA
//! thread state, event-heap skip-ahead) must reproduce every digest
//! byte-for-byte; a single cycle of drift anywhere in the grid fails
//! the wall with the offending configuration named.
//!
//! The grid per case: every processor/thread split × both program
//! images (compiler-natural and grouped) × all 8 switch models ×
//! latencies {0, 200, 1000}, plus seeded fault-injection runs and the
//! four network-topology configurations — the full space the
//! acceptance criterion names. Cases are six fixed fuzzer seeds plus
//! two handcrafted skip-ahead stress programs:
//!
//! * `stall-storm` — every thread immediately uses each shared load, so
//!   under the use-switching models every resident thread is stalled at
//!   once and the engine must jump the clock to the next reply;
//! * `lockstep` — all threads read the same word in lockstep, making
//!   reply events land at identical times on every processor, which
//!   exercises the event queue's deterministic tie-breaking.
//!
//! Blessing: `mtsim check --deep --bless` (or env `BLESS=1`) rewrites
//! the golden table from the current engine. The CI engine-smoke job
//! runs the unblessed form, so any accidental re-bless that changes a
//! byte fails the build.

use crate::diff::{fault_profile, progress_guaranteed, splits, LATENCIES, MAX_CYCLES};
use crate::generate::generate;
use mtsim_asm::{Program, ProgramBuilder};
use mtsim_core::{Machine, MachineConfig, NetworkConfig, SwitchModel, Topology};
use mtsim_mem::SharedMemory;
use mtsim_opt::group_shared_loads;
use mtsim_rng::Rng;
use mtsim_sweep::checkpoint::fnv1a64;
use mtsim_sweep::run_jobs;

/// Fuzzer seeds contributing generated cases (fixed forever: changing
/// them invalidates the golden table).
const FUZZ_SEEDS: [u64; 6] = [0, 1, 2, 3, 4, 5];

/// Where the golden digest table lives.
fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join("deep.txt")
}

/// Configuration for a deep-wall run.
#[derive(Debug, Clone, Copy)]
pub struct DeepConfig {
    /// Rewrite the golden table from the current engine instead of
    /// comparing against it.
    pub bless: bool,
    /// Worker threads for the case-level fan-out.
    pub jobs: usize,
}

impl Default for DeepConfig {
    fn default() -> DeepConfig {
        DeepConfig { bless: false, jobs: mtsim_sweep::default_workers() }
    }
}

/// Results of a deep-wall run.
#[derive(Debug, Clone, Default)]
pub struct DeepSummary {
    /// Grid entries digested.
    pub entries: usize,
    /// `label: got vs want` for every divergent entry.
    pub mismatches: Vec<String>,
    /// Entries present in the golden table but not produced (or vice
    /// versa) — a grid-shape change, which also requires a re-bless.
    pub shape_errors: Vec<String>,
    /// True when this run (re)wrote the golden table.
    pub blessed: bool,
}

impl DeepSummary {
    /// True when every digest matched the golden table.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.shape_errors.is_empty()
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("mtsim check --deep: {} grid entries\n", self.entries));
        for m in &self.mismatches {
            out.push_str(&format!("DIGEST MISMATCH {m}\n"));
        }
        for s in &self.shape_errors {
            out.push_str(&format!("GRID SHAPE {s}\n"));
        }
        if self.blessed {
            out.push_str(&format!("blessed {}\n", golden_path().display()));
        } else if self.passed() {
            out.push_str("all digests match the golden table\n");
        }
        out
    }
}

/// One case: a named program over an initial shared memory, run at a
/// fixed total thread count.
struct DeepCase {
    name: &'static str,
    program: Program,
    shared: SharedMemory,
    nthreads: usize,
    has_sync: bool,
}

/// Every thread chases `rounds` immediately-used shared loads, then
/// stores its accumulator to its own slot. Race-free; under the
/// use-switching models all resident threads stall together.
fn stall_storm(rounds: usize) -> DeepCase {
    let nthreads = 4;
    let mut b = ProgramBuilder::new("deep-stall-storm");
    let acc = b.def_i("acc", 0);
    for _ in 0..rounds {
        // Load from this thread's slot and fold it in: the very next
        // instruction uses the loaded value.
        let v = b.load_shared(b.tid());
        b.assign(acc, acc.get() + v);
        b.store_shared(b.tid(), acc.get());
    }
    let program = b.finish();
    let mut shared = SharedMemory::new(nthreads as u64);
    for t in 0..nthreads {
        shared.write(t as u64, 3 + t as u64);
    }
    DeepCase { name: "stall-storm", program, shared, nthreads, has_sync: false }
}

/// Every thread reads the same shared word in lockstep and accumulates,
/// writing its result to a private slot: replies for all processors
/// complete at identical cycles, exercising event-queue tie-breaking.
fn lockstep(rounds: usize) -> DeepCase {
    let nthreads = 4;
    let mut b = ProgramBuilder::new("deep-lockstep");
    let acc = b.def_i("acc", 0);
    for i in 0..rounds {
        let v = b.load_shared(b.const_i(0));
        b.assign(acc, acc.get() + v + b.const_i(i as i64));
    }
    b.store_shared(b.tid() + 1, acc.get());
    let program = b.finish();
    let mut shared = SharedMemory::new(1 + nthreads as u64);
    shared.write(0, 17);
    DeepCase { name: "lockstep", program, shared, nthreads, has_sync: false }
}

fn cases() -> Vec<DeepCase> {
    let mut out = vec![stall_storm(6), lockstep(6)];
    for seed in FUZZ_SEEDS {
        let tp = generate(seed);
        let case = tp.emit();
        out.push(DeepCase {
            name: "fuzz",
            program: case.program,
            shared: case.shared,
            nthreads: case.nthreads,
            has_sync: tp.uses_lock() || tp.uses_barrier(),
        });
    }
    out
}

/// Stable per-case label prefix. Fuzz cases are named by their seed so
/// the table stays readable.
fn case_tag(case: &DeepCase, idx: usize) -> String {
    if case.name == "fuzz" {
        format!("fuzz-{:#x}", FUZZ_SEEDS[idx - 2])
    } else {
        case.name.to_string()
    }
}

fn run_digest(cfg: MachineConfig, prog: &Program, shared: &SharedMemory) -> Result<u64, String> {
    let mut cfg = cfg;
    cfg.max_cycles = MAX_CYCLES;
    cfg.try_validate()?;
    let run = Machine::new(cfg, prog, shared.clone()).run().map_err(|e| format!("{e}"))?;
    // FNV-1a over the complete rendered run output. The Debug renderings
    // cover every statistic and every architectural byte, so two runs
    // with equal digests are observationally identical.
    let text = format!("{:?}|{:?}|{:?}", run.result, run.shared, run.threads);
    Ok(fnv1a64(text.as_bytes()))
}

/// Digests every grid entry of one case, in deterministic order.
fn digest_case(tag: &str, case: &DeepCase) -> Vec<(String, Result<u64, String>)> {
    let grouped = group_shared_loads(&case.program).program;
    let images: [(&Program, &str); 2] = [(&case.program, "ungrouped"), (&grouped, "grouped")];
    let mut out = Vec::new();
    for (procs, tpp) in splits(case.nthreads) {
        for (prog, img) in images {
            for model in SwitchModel::ALL {
                for lat in LATENCIES {
                    if !progress_guaranteed(model, lat, img == "grouped", case.has_sync, tpp) {
                        continue;
                    }
                    let label = format!("{tag} p={procs} t={tpp} {img} {} lat={lat}", model.name());
                    let cfg = MachineConfig::new(model, procs, tpp).with_latency(lat);
                    out.push((label, run_digest(cfg, prog, &case.shared)));
                }
            }
        }
        // Fault seeds: timing-and-traffic chaos over the wall's two
        // flagship models. Digests pin the retry/backoff arithmetic.
        for (i, (model, prog, img)) in [
            (SwitchModel::SwitchOnLoad, &case.program, "ungrouped"),
            (SwitchModel::ExplicitSwitch, &grouped, "grouped"),
        ]
        .into_iter()
        .enumerate()
        {
            if !progress_guaranteed(model, 200, img == "grouped", case.has_sync, tpp) {
                continue;
            }
            for fs in 0..3u64 {
                let seed = Rng::derive(0xDEE9, "deep-fault")
                    .next_u64()
                    .wrapping_add(fs.wrapping_mul(1 + i as u64));
                let label = format!("{tag} p={procs} t={tpp} {img} {} fault={fs}", model.name());
                let cfg = MachineConfig::new(model, procs, tpp)
                    .with_latency(200)
                    .with_faults(fault_profile(seed));
                out.push((label, run_digest(cfg, prog, &case.shared)));
            }
        }
        // Network topologies: queueing, routing, and combining delays.
        let net_grid: [(Topology, bool, SwitchModel, &Program, &str); 4] = [
            (Topology::Crossbar, false, SwitchModel::SwitchOnLoad, &case.program, "ungrouped"),
            (Topology::Mesh, false, SwitchModel::SwitchOnLoad, &case.program, "ungrouped"),
            (Topology::Butterfly, false, SwitchModel::SwitchOnLoad, &case.program, "ungrouped"),
            (Topology::Butterfly, true, SwitchModel::ExplicitSwitch, &grouped, "grouped"),
        ];
        for (topology, combining, model, prog, img) in net_grid {
            if !progress_guaranteed(model, 200, img == "grouped", case.has_sync, tpp) {
                continue;
            }
            let label = format!(
                "{tag} p={procs} t={tpp} {img} {} net={topology}{}",
                model.name(),
                if combining { "+comb" } else { "" }
            );
            let cfg = MachineConfig::new(model, procs, tpp)
                .with_latency(200)
                .with_net(NetworkConfig::new(topology).with_combining(combining));
            out.push((label, run_digest(cfg, prog, &case.shared)));
        }
    }
    out
}

/// Runs the deep wall: digests the whole grid and compares (or blesses)
/// the golden table.
pub fn deep(cfg: DeepConfig) -> DeepSummary {
    let all = cases();
    let tags: Vec<String> = all.iter().enumerate().map(|(i, c)| case_tag(c, i)).collect();
    let jobs: Vec<usize> = (0..all.len()).collect();
    let outcomes = run_jobs(jobs, cfg.jobs, |_idx, &i| digest_case(&tags[i], &all[i]));

    let mut entries: Vec<(String, String)> = Vec::new();
    let mut summary = DeepSummary::default();
    for (i, outcome) in outcomes {
        match outcome {
            Err(panic) => summary.shape_errors.push(format!("case {} panicked: {panic}", tags[i])),
            Ok(list) => {
                for (label, res) in list {
                    let value = match res {
                        Ok(d) => format!("{d:016x}"),
                        // An engine error is part of the pinned surface:
                        // its rendering must stay identical too.
                        Err(e) => format!("error:{}", fnv1a64(e.as_bytes())),
                    };
                    entries.push((label, value));
                }
            }
        }
    }
    summary.entries = entries.len();

    if cfg.bless {
        let mut text = String::new();
        for (label, value) in &entries {
            text.push_str(&format!("{label} = {value}\n"));
        }
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden table");
        summary.blessed = true;
        return summary;
    }

    let path = golden_path();
    let golden = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            summary.shape_errors.push(format!(
                "cannot read {} ({e}); run `mtsim check --deep --bless` once to create it",
                path.display()
            ));
            return summary;
        }
    };
    let mut want = std::collections::BTreeMap::new();
    for line in golden.lines() {
        if let Some((label, value)) = line.rsplit_once(" = ") {
            want.insert(label.to_string(), value.to_string());
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for (label, got) in &entries {
        seen.insert(label.clone());
        match want.get(label) {
            None => summary.shape_errors.push(format!("not in golden table: {label}")),
            Some(w) if w != got => summary.mismatches.push(format!("{label}: got {got}, want {w}")),
            Some(_) => {}
        }
    }
    for label in want.keys() {
        if !seen.contains(label) {
            summary.shape_errors.push(format!("missing from this run: {label}"));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wall must hold for the engine as built: every digest in the
    /// golden table reproduced exactly. (Blessed from the pre-decode
    /// engine; the hot-path rewrite is pinned to it.)
    #[test]
    fn deep_wall_matches_golden_table() {
        let bless = std::env::var("BLESS").is_ok_and(|v| v == "1");
        let summary = deep(DeepConfig { bless, jobs: 2 });
        assert!(summary.entries > 500, "grid collapsed: {} entries", summary.entries);
        assert!(summary.passed() || summary.blessed, "{}", summary.report());
    }

    /// The handcrafted cases genuinely exercise skip-ahead: with every
    /// thread stalled on an immediately-used load, wall-clock time is
    /// dominated by latency the clock must jump over, not tick through.
    #[test]
    fn stall_storm_is_latency_bound() {
        let case = stall_storm(6);
        let cfg = MachineConfig::new(SwitchModel::SwitchOnUse, 1, case.nthreads).with_latency(1000);
        let run = Machine::new(cfg, &case.program, case.shared.clone()).run().expect("run");
        let idle: u64 = run.result.per_proc.iter().map(|p| p.idle).sum();
        assert!(
            idle > run.result.cycles / 2,
            "expected an idle-dominated run, got {} idle of {} cycles",
            idle,
            run.result.cycles
        );
        // Race-free accumulation: acc doubles each round after absorbing
        // the initial value, so slot t ends at (3 + t) * 2^(rounds - 1).
        for t in 0..case.nthreads as u64 {
            assert_eq!(run.shared.read(t), (3 + t) << 5);
        }
    }
}
