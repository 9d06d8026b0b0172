//! Every early exit of the engine, pinned to its exact `SimError` value.
//!
//! Each case runs under switch-on-load (the run-until-yield stepper) and,
//! where the exit applies, under 4-wide SMT (the per-cycle issue
//! stepper), and compares the whole error — every field, including the
//! deadlock waiter list — so a refactor of either stepper cannot move
//! an exit cycle, a reported pc or a thread count unnoticed.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mtsim_asm::{Program, ProgramBuilder};
use mtsim_core::{DeadlockWaiter, Machine, MachineConfig, SimError, SwitchModel};
use mtsim_isa::{AccessHint, Inst, Target};
use mtsim_mem::{FaultConfig, SharedMemory};

/// The two steppers: run-until-yield and the 4-wide SMT issue loop.
fn models() -> [MachineConfig; 2] {
    [
        MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 2),
        MachineConfig::new(SwitchModel::Smt, 2, 2).with_issue_width(4),
    ]
}

fn exit(cfg: MachineConfig, prog: &Program, words: u64) -> SimError {
    let model = cfg.model;
    Machine::new(cfg, prog, SharedMemory::new(words))
        .run()
        .map(|_| ())
        .expect_err(&format!("{model} run must fail"))
}

/// Thread 0 halts at once; every other thread loops on private code
/// forever, so only the cycle budget can end the run.
fn private_livelock() -> Program {
    let mut b = ProgramBuilder::new("livelock");
    b.if_(b.tid().ne(0), |b| b.while_(b.const_i(0).eq(0), |_b| {}));
    b.finish()
}

/// Jumps over its only `Halt` and runs two `Nop`s off the end of the code.
fn runs_off_the_end() -> Program {
    Program::from_raw_parts(
        "runaway",
        vec![Inst::Jump { target: Target::Pc(2) }, Inst::Halt, Inst::Nop, Inst::Nop],
    )
}

/// Every thread loads a shared word far past the end of shared memory.
fn wild_shared_load() -> Program {
    let mut b = ProgramBuilder::new("wild");
    let v = b.def_i("v", b.load_shared(b.const_i(1_000_000)));
    b.store_shared(b.const_i(0), v.get());
    b.finish()
}

/// Thread 0 halts at once; every other thread spins on word 0, which
/// nothing ever writes.
fn unreleased_spin() -> Program {
    let mut b = ProgramBuilder::new("spin");
    b.if_(b.tid().ne(0), |b| {
        b.while_(b.load_shared_hint(b.const_i(0), AccessHint::Spin).eq(0), |_b| {});
    });
    b.finish()
}

/// One reply-bearing load, the same kernel and fault configuration as
/// `fault_injection.rs`'s retry-exhaustion test.
fn doomed_load() -> (Program, FaultConfig) {
    let mut b = ProgramBuilder::new("doomed");
    let v = b.def_i("v", b.load_shared(b.const_i(3)));
    b.store_shared(b.const_i(4), v.get());
    let faults = FaultConfig { drop_rate: 1.0, max_retries: 2, ..FaultConfig::default() };
    (b.finish(), faults)
}

fn waiter(thread: usize) -> DeadlockWaiter {
    DeadlockWaiter { thread, proc: thread / 2, addr: 0, value: 0 }
}

#[test]
fn watchdog_fires_at_the_cycle_budget() {
    for mut cfg in models() {
        cfg.max_cycles = 5_000;
        let model = cfg.model;
        let want = SimError::Watchdog { max_cycles: 5_000, halted_threads: 1, total_threads: 4 };
        assert_eq!(exit(cfg, &private_livelock(), 4), want, "{model}");
    }
}

#[test]
fn a_preset_cancel_token_stops_the_run_at_cycle_zero() {
    let mut b = ProgramBuilder::new("count");
    b.fetch_add_discard(b.const_i(0), b.tid() + 1, AccessHint::Data);
    let prog = b.finish();
    for cfg in models() {
        let model = cfg.model;
        let token = Arc::new(AtomicBool::new(true));
        let err = Machine::new(cfg, &prog, SharedMemory::new(1))
            .with_cancel_token(token)
            .run()
            .map(|_| ())
            .expect_err("cancelled");
        assert_eq!(err, SimError::Cancelled { cycle: 0 }, "{model}");
    }
}

#[test]
fn running_off_the_end_of_the_code_is_a_bad_program() {
    // The two schedulers interleave the threads differently, so a
    // different thread is the first to reach the end.
    for (cfg, thread) in models().into_iter().zip([0, 3]) {
        let model = cfg.model;
        let want = SimError::BadProgram {
            thread,
            pc: 4,
            detail: "program counter ran past the end of the code (4 instructions)".into(),
        };
        assert_eq!(exit(cfg, &runs_off_the_end(), 4), want, "{model}");
    }
}

#[test]
fn a_wild_shared_load_is_a_bad_program() {
    for cfg in models() {
        let model = cfg.model;
        let want = SimError::BadProgram {
            thread: 0,
            pc: 0,
            detail: "shared load out of range: word 1000000 >= 4".into(),
        };
        assert_eq!(exit(cfg, &wild_shared_load(), 4), want, "{model}");
    }
}

#[test]
fn an_unreleased_spin_is_a_deadlock_naming_every_waiter() {
    for (cfg, cycle) in models().into_iter().zip([813, 809]) {
        let model = cfg.model;
        let want = SimError::Deadlock {
            cycle,
            halted_threads: 1,
            waiters: vec![waiter(1), waiter(2), waiter(3)],
        };
        assert_eq!(exit(cfg, &unreleased_spin(), 4), want, "{model}");
    }
}

#[test]
fn an_exhausted_retry_budget_is_a_typed_fault() {
    let (prog, faults) = doomed_load();
    for cfg in models() {
        let model = cfg.model;
        let want = SimError::Fault { proc: 0, thread: 0, pc: 0, addr: 3, attempts: 3, cycle: 2024 };
        assert_eq!(exit(cfg.with_faults(faults), &prog, 8), want, "{model}");
    }
}
