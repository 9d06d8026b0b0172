//! Tier-1 coverage for the `mtsim-check` differential harness: a small
//! fuzzing campaign must pass, and a deliberately miscompiled program —
//! the grouping pass's one forbidden move, reordering a shared load
//! across a shared store — must be caught by the harness and shrunk to a
//! small witness.

use mtsim::check::{
    check_program, compare, fuzz, generate, illegally_hoisted_candidates, metric,
    miscompiled_candidates, run_oracle, shrink, FuzzConfig, Stmt, TestProgram, IE,
};
use mtsim::core::{Machine, MachineConfig, SwitchModel};
use mtsim_isa::AluOp;

/// A short campaign over the full model × latency × grouping × fault grid.
#[test]
fn small_fuzz_campaign_matches_oracle() {
    let summary = fuzz(FuzzConfig { cases: 20, seed: 0xB00, jobs: 2, ..Default::default() });
    assert!(summary.passed(), "{}", summary.report());
    assert!(summary.engine_runs > 500, "grid too small: {} runs", summary.engine_runs);
}

/// Replays one specific generated case so a regression in any layer
/// (generator determinism, oracle, engine, grouping) fails loudly here
/// with a stable seed to debug from.
#[test]
fn pinned_seed_case_passes_the_grid() {
    let tp = generate(0x5EED);
    check_program(&tp, 0x5EED).unwrap_or_else(|f| panic!("{}: {}", f.label, f.detail));
}

/// True when some miscompiled variant of the case diverges from the
/// oracle on a single-threaded single-processor run.
fn miscompile_detected(tp: &TestProgram) -> bool {
    let case = tp.with_nthreads(1).emit();
    let cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
    let local_words = cfg.local_mem_words.max(case.program.local_words());
    let Ok(oracle) = run_oracle(&case.program, case.shared.clone(), 1, local_words, 1_000_000)
    else {
        return false;
    };
    miscompiled_candidates(&case.program).iter().any(|broken| {
        let mut cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
        cfg.max_cycles = 10_000_000;
        match Machine::new(cfg, broken, case.shared.clone()).run() {
            Err(_) => true, // wild access / watchdog: also a caught miscompile
            Ok(run) => compare(&oracle, &run, true).is_err(),
        }
    })
}

/// The §4 reorganization constraint, checked end to end: break the
/// grouped image by swapping a shared store with a following shared
/// load, prove the harness notices, and shrink the witness program to at
/// most 20 instructions.
#[test]
fn miscompiled_fixture_is_caught_and_shrunk() {
    // A store/load pair on the same output slot, buried in noise the
    // shrinker must strip away.
    let tp = TestProgram {
        nthreads: 2,
        in_words: 8,
        acc_cells: 2,
        out_slots: 2,
        local_words: 4,
        input_seed: 1,
        stmts: vec![
            Stmt::AssignI(0, IE::LoadIn(Box::new(IE::Tid))),
            Stmt::StoreLocal(0, IE::Var(0)),
            Stmt::StoreOut(0, IE::Const(7)),
            Stmt::AssignI(1, IE::LoadOut(0)),
            Stmt::StoreOut(1, IE::Bin(AluOp::Add, Box::new(IE::Var(1)), Box::new(IE::Const(1)))),
            Stmt::FaaAcc(0, IE::Const(3)),
            Stmt::For(
                2,
                vec![Stmt::AssignI(
                    2,
                    IE::Bin(AluOp::Add, Box::new(IE::Var(2)), Box::new(IE::Const(1))),
                )],
            ),
        ],
    };
    assert!(miscompile_detected(&tp), "fixture miscompile was not caught");

    let min = shrink(&tp, 2_000, miscompile_detected);
    assert!(miscompile_detected(&min), "shrinker lost the failure");
    assert!(metric(&min) <= metric(&tp));
    let insts = min.with_nthreads(1).emit().program.len();
    assert!(
        insts <= 20,
        "witness should shrink to <= 20 instructions, got {insts}:\n{}",
        min.with_nthreads(1).emit().program.listing()
    );
}

/// True when some illegally-hoisted variant (a load lifted above an
/// aliasing store across a block boundary — a move the paper's
/// pessimistic aliasing forbids) diverges from the oracle.
fn bad_hoist_detected(tp: &TestProgram) -> bool {
    let case = tp.with_nthreads(1).emit();
    let cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
    let local_words = cfg.local_mem_words.max(case.program.local_words());
    let Ok(oracle) = run_oracle(&case.program, case.shared.clone(), 1, local_words, 1_000_000)
    else {
        return false;
    };
    illegally_hoisted_candidates(&case.program).iter().any(|broken| {
        let mut cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
        cfg.max_cycles = 10_000_000;
        match Machine::new(cfg, broken, case.shared.clone()).run() {
            Err(_) => true,
            Ok(run) => compare(&oracle, &run, true).is_err(),
        }
    })
}

/// The cross-block aliasing rule, checked end to end: break it (a
/// store/load swap across a block boundary in the grouped image), prove
/// the harness notices, and shrink the witness.
#[test]
fn illegal_interblock_hoist_is_caught_and_shrunk() {
    // A store whose value a loop-carried load observes: hoisting the
    // load above the store reads the stale initial value.
    let tp = TestProgram {
        nthreads: 2,
        in_words: 8,
        acc_cells: 2,
        out_slots: 2,
        local_words: 4,
        input_seed: 1,
        stmts: vec![
            Stmt::StoreOut(0, IE::Const(7)),
            Stmt::For(
                3,
                vec![
                    Stmt::AssignI(0, IE::LoadOut(0)),
                    Stmt::StoreOut(
                        1,
                        IE::Bin(AluOp::Add, Box::new(IE::Var(0)), Box::new(IE::Const(1))),
                    ),
                ],
            ),
            Stmt::AssignI(1, IE::LoadOut(1)),
            Stmt::StoreLocal(0, IE::Var(1)),
        ],
    };
    assert!(bad_hoist_detected(&tp), "illegal hoist fixture was not caught");

    let min = shrink(&tp, 2_000, bad_hoist_detected);
    assert!(bad_hoist_detected(&min), "shrinker lost the failure");
    assert!(metric(&min) <= metric(&tp));
}

/// The honest images — the natural program and every opt level's —
/// must never trip the same detector.
#[test]
fn honest_optimizer_pipelines_are_not_flagged() {
    use mtsim::opt::{group_shared_loads, OptLevel};
    for seed in 0..12 {
        let tp = generate(seed);
        let case = tp.with_nthreads(1).emit();
        let cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
        let local_words = cfg.local_mem_words.max(case.program.local_words());
        let oracle =
            run_oracle(&case.program, case.shared.clone(), 1, local_words, 1_000_000).unwrap();
        let images = OptLevel::ALL.map(|l| match l {
            OptLevel::None => case.program.clone(),
            OptLevel::Intra => group_shared_loads(&case.program).program,
        });
        for prog in images {
            let mut cfg = MachineConfig::new(SwitchModel::Ideal, 1, 1);
            cfg.max_cycles = 10_000_000;
            let run = Machine::new(cfg, &prog, case.shared.clone()).run().unwrap();
            compare(&oracle, &run, true)
                .unwrap_or_else(|d| panic!("seed {seed} ({}): {d}", prog.name()));
        }
    }
}
