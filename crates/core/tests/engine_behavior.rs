//! Behavioral tests of the simulation engine across switch models.

use mtsim_asm::{Program, ProgramBuilder};
use mtsim_core::{Machine, MachineConfig, SimError, SwitchModel};
use mtsim_isa::AccessHint;
use mtsim_mem::SharedMemory;
use mtsim_opt::group_shared_loads;

fn run(cfg: MachineConfig, prog: &Program, words: u64) -> mtsim_core::RunResult {
    Machine::new(cfg, prog, SharedMemory::new(words)).run().expect("run").result
}

/// A kernel that loads a shared word, does `work` cycles of ALU work, and
/// repeats `iters` times. Sums loads into shared[1] at the end.
fn load_compute_kernel(iters: i64, work: usize) -> Program {
    let mut b = ProgramBuilder::new("lc");
    let acc = b.def_i("acc", 0);
    b.for_range("i", 0, iters, |b, i| {
        let v = b.def_i("v", b.load_shared(i.get() & 63));
        b.assign(acc, acc.get() + v.get());
        for _ in 0..work {
            b.assign(acc, acc.get() ^ 1);
        }
    });
    b.store_shared(b.const_i(100), acc.get());
    b.finish()
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_machines() {
    use mtsim_core::{DecodedProgram, MachineScratch, NoopRecorder};
    let prog = load_compute_kernel(40, 3);
    let decoded = DecodedProgram::decode(&prog);
    let build = |cfg, key, scratch: &mut MachineScratch| {
        Machine::try_new_predecoded(cfg, &prog, &decoded, SharedMemory::new(128), key, scratch)
            .expect("build")
    };
    let cfg = || MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 2);
    let fresh = Machine::new(cfg(), &prog, SharedMemory::new(128)).run().expect("fresh");

    let mut scratch = MachineScratch::new();
    for round in 0..3 {
        let (m, reused) = build(cfg(), 7, &mut scratch);
        assert_eq!(reused, round > 0, "every build after the first must reuse");
        let lean = m.run_reusing(&mut NoopRecorder, 7, &mut scratch).expect("run");
        assert_eq!(format!("{:?}", lean.result), format!("{:?}", fresh.result));
        assert_eq!(format!("{:?}", lean.shared), format!("{:?}", fresh.shared));
    }

    // A different key never reuses; the same key across a *shape* change
    // (fewer threads, same program) reuses and stays correct.
    let cfg1 = || MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 1);
    let fresh1 = Machine::new(cfg1(), &prog, SharedMemory::new(128)).run().expect("fresh1");
    let (m, reused) = build(cfg1(), 7, &mut scratch);
    assert!(reused, "same key, new shape: buffers still reusable");
    let lean = m.run_reusing(&mut NoopRecorder, 7, &mut scratch).expect("run");
    assert_eq!(format!("{:?}", lean.result), format!("{:?}", fresh1.result));
    let (_, reused) = build(cfg1(), 8, &mut scratch);
    assert!(!reused, "a different key must not reuse");
}

#[test]
fn ideal_model_has_full_utilization_single_thread() {
    let prog = load_compute_kernel(50, 4);
    let r = run(MachineConfig::ideal(1), &prog, 128);
    assert!(r.utilization() > 0.999, "utilization {}", r.utilization());
    // Ideal-model reads rotate the (single) thread for fairness but cost
    // no cycles.
    assert_eq!(r.per_proc[0].idle, 0);
}

#[test]
fn switch_on_load_single_thread_starves() {
    // One thread, 200-cycle latency: almost all time is idle waiting.
    let prog = load_compute_kernel(50, 4);
    let r = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1), &prog, 128);
    assert!(r.utilization() < 0.15, "expected starvation, got utilization {}", r.utilization());
    // Every shared load yields.
    assert!(r.switches_taken >= 50);
}

#[test]
fn multithreading_hides_latency_progressively() {
    let prog = load_compute_kernel(60, 6);
    let mut prev = 0.0;
    for threads in [1, 4, 8, 16, 24] {
        let r = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 2, threads), &prog, 128);
        let u = r.utilization();
        assert!(
            u >= prev - 0.02,
            "utilization should not degrade with more threads: {u} after {prev} (T={threads})"
        );
        prev = prev.max(u);
    }
    assert!(prev > 0.85, "24 threads should nearly saturate: {prev}");
}

#[test]
fn run_lengths_match_instruction_spacing() {
    // Roughly: each iteration = loop overhead + load + work; the run-length
    // between switch-on-load switches equals the per-iteration busy cycles.
    let prog = load_compute_kernel(100, 10);
    let r = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 2), &prog, 128);
    let mean = r.run_lengths.mean();
    assert!((10.0..30.0).contains(&mean), "mean run-length {mean} out of expected band");
}

#[test]
fn deterministic_across_runs() {
    let prog = load_compute_kernel(40, 3);
    let a = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 3), &prog, 128);
    let b = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 3), &prog, 128);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.switches_taken, b.switches_taken);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn fetch_add_is_atomic_across_processors() {
    // 8 processors × 4 threads each add 1 to a counter 25 times.
    let mut b = ProgramBuilder::new("faa");
    b.for_range("i", 0, 25, |b, _| {
        b.fetch_add_discard(b.const_i(0), b.const_i(1), AccessHint::Data);
    });
    let prog = b.finish();
    let fin = Machine::new(
        MachineConfig::new(SwitchModel::SwitchOnLoad, 8, 4),
        &prog,
        SharedMemory::new(1),
    )
    .run()
    .unwrap();
    assert_eq!(fin.shared.read_i64(0), 8 * 4 * 25);
}

#[test]
fn ticket_lock_provides_mutual_exclusion() {
    // Classic ticket lock from fetch-and-add + spinning, then a
    // non-atomic read-modify-write of shared[2] inside the critical
    // section. Correct final count proves mutual exclusion.
    let next_ticket = 0i64;
    let now_serving = 1i64;
    let counter = 2i64;
    let mut b = ProgramBuilder::new("lock");
    b.for_range("i", 0, 10, |b, _| {
        let ticket = b.def_i("t", b.fetch_add(b.const_i(next_ticket), 1));
        // spin until now_serving == ticket
        b.while_(
            b.load_shared_hint(b.const_i(now_serving), AccessHint::Spin).ne(ticket.get()),
            |_b| {},
        );
        // critical section: non-atomic increment
        let v = b.def_i("v", b.load_shared(b.const_i(counter)));
        b.store_shared(b.const_i(counter), v.get() + 1);
        // release
        b.store_shared(b.const_i(now_serving), ticket.get() + 1);
    });
    let prog = b.finish();
    let fin = Machine::new(
        MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 2),
        &prog,
        SharedMemory::new(3),
    )
    .run()
    .unwrap();
    assert_eq!(fin.shared.read_i64(2), 4 * 2 * 10);
}

#[test]
fn infinite_spin_is_reported_as_deadlock() {
    // A spin loop on a word nobody will ever write: the detector proves
    // the cycle and reports the waiter long before the watchdog limit.
    let mut b = ProgramBuilder::new("spin");
    b.while_(b.load_shared_hint(b.const_i(0), AccessHint::Spin).eq(0), |_b| {});
    let prog = b.finish();
    let mut cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1);
    cfg.max_cycles = 50_000;
    let err = Machine::new(cfg, &prog, SharedMemory::new(1)).run().unwrap_err();
    match err {
        SimError::Deadlock { cycle, halted_threads, waiters } => {
            assert!(cycle < 50_000, "proven well before the watchdog");
            assert_eq!(halted_threads, 0);
            assert_eq!(waiters.len(), 1);
            assert_eq!(waiters[0].thread, 0);
            assert_eq!(waiters[0].addr, 0);
            assert_eq!(waiters[0].value, 0);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn watchdog_still_backstops_private_livelock() {
    // An infinite loop with no shared polling at all: the deadlock
    // detector has nothing to prove, so the watchdog fires.
    let mut b = ProgramBuilder::new("livelock");
    b.while_(b.const_i(0).eq(0), |_b| {});
    let prog = b.finish();
    let mut cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1);
    cfg.max_cycles = 50_000;
    let err = Machine::new(cfg, &prog, SharedMemory::new(1)).run().unwrap_err();
    match err {
        SimError::Watchdog { halted_threads, total_threads, .. } => {
            assert_eq!(halted_threads, 0);
            assert_eq!(total_threads, 1);
        }
        other => panic!("expected Watchdog, got {other:?}"),
    }
}

/// The sor-flavored grouped kernel: 5 loads per iteration.
fn five_load_kernel(iters: i64) -> Program {
    let mut b = ProgramBuilder::new("five");
    let acc = b.def_f("acc", 0.0);
    b.for_range("i", 0, iters, |b, i| {
        let base = i.get() & 63;
        let a = b.load_shared_f(base.clone());
        let c = b.load_shared_f(base.clone() + 64);
        let d = b.load_shared_f(base.clone() + 128);
        let e = b.load_shared_f(base.clone() + 192);
        let f = b.load_shared_f(base + 256);
        b.assign_f(acc, acc.get() + (a + c + d + e + f) * 0.2);
    });
    b.store_shared_f(b.const_i(400), acc.get());
    b.finish()
}

#[test]
fn explicit_switch_reduces_switches_and_threads_needed() {
    let original = five_load_kernel(80);
    let grouped = group_shared_loads(&original).program;

    let sol = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 8), &original, 512);
    let exp = run(MachineConfig::new(SwitchModel::ExplicitSwitch, 2, 8), &grouped, 512);

    // Grouping removes ~80% of the context switches for this kernel.
    assert!(
        (exp.switches_taken as f64) < 0.45 * sol.switches_taken as f64,
        "explicit {} vs switch-on-load {}",
        exp.switches_taken,
        sol.switches_taken
    );
    // And at the same multithreading level it runs faster.
    assert!(
        exp.cycles < sol.cycles,
        "explicit {} cycles vs switch-on-load {}",
        exp.cycles,
        sol.cycles
    );
    // Dynamic grouping factor reflects the 5-load groups.
    assert!(exp.dynamic_grouping_factor() > 3.0, "{}", exp.dynamic_grouping_factor());
}

#[test]
fn explicit_switch_is_correct_without_grouping_pass_too() {
    // Running UNgrouped code under ExplicitSwitch must still compute the
    // right answer, just with scoreboard stalls instead of switch waits.
    let mut b = ProgramBuilder::new("viol");
    let x = b.def_i("x", b.load_shared(b.const_i(0)));
    b.store_shared(b.const_i(1), x.get() + 5);
    let prog = b.finish();
    let mut mem = SharedMemory::new(2);
    mem.write_i64(0, 37);
    let fin = Machine::new(MachineConfig::new(SwitchModel::ExplicitSwitch, 1, 1), &prog, mem)
        .run()
        .unwrap();
    assert_eq!(fin.shared.read_i64(1), 42);
    assert!(fin.result.scoreboard_stalls > 0, "use-before-switch must stall");
}

#[test]
fn switch_on_use_overlaps_address_computation() {
    // switch-on-use lets the thread run past the load until the value is
    // used, so with equal threads it should do no worse than
    // switch-on-load.
    let prog = five_load_kernel(60);
    let sol = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 4), &prog, 512);
    let sou = run(MachineConfig::new(SwitchModel::SwitchOnUse, 1, 4), &prog, 512);
    assert!(sou.cycles <= sol.cycles, "use {} vs load {}", sou.cycles, sol.cycles);
}

#[test]
fn conditional_switch_skips_switches_on_cache_hits() {
    // Sum a small shared array twice; second pass hits the cache, so the
    // conditional switch is skipped.
    let mut b = ProgramBuilder::new("cs");
    let acc = b.def_f("acc", 0.0);
    b.for_range("pass", 0, 4, |b, _| {
        b.for_range("i", 0, 64, |b, i| {
            let v = b.load_shared_f(i.get());
            b.assign_f(acc, acc.get() + v);
        });
    });
    b.store_shared_f(b.const_i(100), acc.get());
    let grouped = group_shared_loads(&b.finish()).program;

    let r = run(MachineConfig::new(SwitchModel::ConditionalSwitch, 1, 2), &grouped, 128);
    assert!(
        r.switches_skipped > r.switches_taken,
        "skipped {} taken {}",
        r.switches_skipped,
        r.switches_taken
    );
    let cache = r.cache.expect("cache stats");
    assert!(cache.hit_rate() > 0.5, "hit rate {}", cache.hit_rate());
}

#[test]
fn conditional_switch_forced_switch_bounds_runs() {
    // All-hits workload with max_run: forced switches must appear.
    let mut b = ProgramBuilder::new("forced");
    let acc = b.def_f("acc", 0.0);
    b.for_range("pass", 0, 30, |b, _| {
        b.for_range("i", 0, 16, |b, i| {
            let v = b.load_shared_f(i.get());
            b.assign_f(acc, acc.get() + v);
        });
    });
    b.store_shared_f(b.const_i(50), acc.get());
    let grouped = group_shared_loads(&b.finish()).program;

    let with = run(
        MachineConfig::new(SwitchModel::ConditionalSwitch, 1, 2).with_max_run(Some(200)),
        &grouped,
        64,
    );
    assert!(with.forced_switches > 0);

    let without = run(
        MachineConfig::new(SwitchModel::ConditionalSwitch, 1, 2).with_max_run(None),
        &grouped,
        64,
    );
    assert_eq!(without.forced_switches, 0);
}

#[test]
fn switch_on_miss_pays_overhead() {
    let prog = load_compute_kernel(40, 2);
    let r = run(MachineConfig::new(SwitchModel::SwitchOnMiss, 1, 4), &prog, 128);
    // Misses exist (cold cache) and each taken switch costs cycles.
    let overhead: u64 = r.per_proc.iter().map(|p| p.overhead).sum();
    assert!(overhead > 0);
    assert!(r.cache.unwrap().misses > 0);
}

#[test]
fn every_cycle_model_interleaves_and_completes() {
    let prog = load_compute_kernel(20, 2);
    let r = run(MachineConfig::new(SwitchModel::SwitchEveryCycle, 1, 4), &prog, 128);
    // Every instruction rotates: switches ~ instructions.
    assert!(r.switches_taken >= r.instructions / 2);
    assert!(r.run_lengths.mean() < 15.0);
}

#[test]
fn values_flow_between_processors() {
    // Thread 0 (proc 0) writes a flag+value; thread 1 (proc 1) spins then
    // reads the value.
    let mut b = ProgramBuilder::new("comm");
    b.if_else(
        b.tid().eq(0),
        |b| {
            b.store_shared(b.const_i(1), 99);
            b.store_shared(b.const_i(0), 1); // flag
        },
        |b| {
            b.while_(b.load_shared_hint(b.const_i(0), AccessHint::Spin).eq(0), |_b| {});
            let v = b.def_i("v", b.load_shared(b.const_i(1)));
            b.store_shared(b.const_i(2), v.get() + 1);
        },
    );
    let prog = b.finish();
    let fin = Machine::new(
        MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 1),
        &prog,
        SharedMemory::new(3),
    )
    .run()
    .unwrap();
    assert_eq!(fin.shared.read_i64(2), 100);
}

#[test]
fn grouped_and_ungrouped_compute_identical_results() {
    for model in [
        SwitchModel::Ideal,
        SwitchModel::SwitchEveryCycle,
        SwitchModel::SwitchOnLoad,
        SwitchModel::SwitchOnUse,
        SwitchModel::SwitchOnMiss,
        SwitchModel::SwitchOnUseMiss,
    ] {
        let prog = five_load_kernel(10);
        let mut mem = SharedMemory::new(512);
        for a in 0..512 {
            mem.write_f64(a, a as f64 * 0.25);
        }
        let fin = Machine::new(MachineConfig::new(model, 2, 2), &prog, mem).run().unwrap();
        let got = fin.shared.read_f64(400);
        // Host-side reference.
        let mut acc = 0.0f64;
        for _ in 0..4 {
            // 4 threads run the same kernel; they all add into their own acc
            // then store to the same address — last store wins, value equals
            // a single thread's sum.
        }
        for i in 0..10i64 {
            let base = (i % 64) as u64;
            let s: f64 =
                [0, 64, 128, 192, 256].iter().map(|&o| ((base + o as u64) as f64) * 0.25).sum();
            acc += s * 0.2;
        }
        assert!((got - acc).abs() < 1e-9, "model {model}: got {got}, want {acc}");
    }
}

#[test]
fn explicit_and_conditional_compute_identical_results() {
    let prog = five_load_kernel(10);
    let grouped = group_shared_loads(&prog).program;
    for model in [SwitchModel::ExplicitSwitch, SwitchModel::ConditionalSwitch] {
        let mut mem = SharedMemory::new(512);
        for a in 0..512 {
            mem.write_f64(a, (a as f64).sqrt());
        }
        let fin = Machine::new(MachineConfig::new(model, 2, 2), &grouped, mem).run().unwrap();
        let got = fin.shared.read_f64(400);
        let mut acc = 0.0f64;
        for i in 0..10i64 {
            let base = (i % 64) as u64;
            let s: f64 =
                [0u64, 64, 128, 192, 256].iter().map(|&o| ((base + o) as f64).sqrt()).sum();
            acc += s * 0.2;
        }
        assert!((got - acc).abs() < 1e-9, "model {model}: got {got}, want {acc}");
    }
}

#[test]
fn traffic_accounting_matches_access_counts() {
    // 30 loads + 1 store, no caches, single thread.
    let mut b = ProgramBuilder::new("traffic");
    let acc = b.def_i("acc", 0);
    b.for_range("i", 0, 30, |b, i| {
        b.assign(acc, acc.get() + b.load_shared(i.get()));
    });
    b.store_shared(b.const_i(40), acc.get());
    let prog = b.finish();
    let r = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1), &prog, 64);
    // 30 load round trips (2 msgs each) + 1 store round trip (2 msgs).
    assert_eq!(r.traffic.data_messages(), 30 * 2 + 2);
    assert!(r.bits_per_cycle() > 0.0);
}

#[test]
fn load_pair_halves_messages() {
    let mut b = ProgramBuilder::new("pair");
    let acc = b.def_f("acc", 0.0);
    b.for_range("i", 0, 16, |b, i| {
        let (x, y) = b.load_pair_shared_f("p", i.get() * 2);
        b.assign_f(acc, acc.get() + x.get() + y.get());
    });
    b.store_shared_f(b.const_i(63), acc.get());
    let prog = b.finish();
    let r = run(MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1), &prog, 64);
    // 16 pair loads (2 msgs each) + 1 store (2 msgs) — not 32 loads.
    assert_eq!(r.traffic.data_messages(), 16 * 2 + 2);
}

#[test]
fn interblock_estimate_skips_oneline_groups() {
    // Sequential loads through one array: after the first load of each
    // 32-word line, subsequent loads hit the one-line cache, so their
    // switches are skipped under the §5.2 estimator.
    let mut b = ProgramBuilder::new("seq");
    let acc = b.def_i("acc", 0);
    b.for_range("i", 0, 128, |b, i| {
        b.assign(acc, acc.get() + b.load_shared(i.get()));
    });
    b.store_shared(b.const_i(200), acc.get());
    let grouped = group_shared_loads(&b.finish()).program;

    let plain = run(MachineConfig::new(SwitchModel::ExplicitSwitch, 1, 4), &grouped, 256);
    let est = run(
        MachineConfig::new(SwitchModel::ExplicitSwitch, 1, 4).with_interblock_estimate(true),
        &grouped,
        256,
    );
    assert!(est.switches_skipped > 0);
    assert!(est.cycles < plain.cycles);
    assert!(est.one_line_hit_rate() > 0.9, "{}", est.one_line_hit_rate());
}

#[test]
fn interblock_estimate_does_not_starve_spinners() {
    // Regression: a barrier-style spin loop under the §5.2 estimator must
    // still yield (spin loads never count as one-line hits), or the
    // spinner starves its processor-mates and the barrier deadlocks.
    let mut b = ProgramBuilder::new("spin-est");
    b.if_else(
        b.tid().eq(0),
        |b| {
            // Wait for the flag, spinning.
            b.while_(b.load_shared_hint(b.const_i(0), AccessHint::Spin).eq(0), |_b| {});
        },
        |b| {
            // Same-processor thread sets the flag after some work.
            let acc = b.def_i("acc", 0);
            b.for_range("i", 0, 16, |b, i| {
                b.assign(acc, acc.get() + b.load_shared(i.get() + 8));
            });
            b.store_shared(b.const_i(1), acc.get());
            b.store_shared(b.const_i(0), 1);
        },
    );
    let grouped = group_shared_loads(&b.finish()).program;
    let mut cfg =
        MachineConfig::new(SwitchModel::ExplicitSwitch, 1, 2).with_interblock_estimate(true);
    cfg.max_cycles = 5_000_000;
    let fin = Machine::new(cfg, &grouped, SharedMemory::new(64)).run().expect("must not deadlock");
    assert_eq!(fin.shared.read_i64(0), 1);
}

#[test]
fn cycle_accounting_identity_holds() {
    // For every processor: busy + idle + overhead + stall == local finish
    // time — the engine only ever advances a clock through one of those
    // four accounts.
    for model in [
        SwitchModel::SwitchOnLoad,
        SwitchModel::SwitchOnUse,
        SwitchModel::ExplicitSwitch,
        SwitchModel::SwitchOnMiss,
        SwitchModel::SwitchOnUseMiss,
        SwitchModel::ConditionalSwitch,
        SwitchModel::SwitchEveryCycle,
    ] {
        let prog = load_compute_kernel(40, 4);
        let prog =
            if model.uses_explicit_switch() { group_shared_loads(&prog).program } else { prog };
        let r = Machine::new(MachineConfig::new(model, 2, 3), &prog, SharedMemory::new(128))
            .run()
            .unwrap()
            .result;
        for (p, s) in r.per_proc.iter().enumerate() {
            assert_eq!(
                s.busy + s.idle + s.overhead + s.stall,
                s.finish_time,
                "{model}, proc {p}: {s:?}"
            );
        }
    }
}

#[test]
fn priority_scheduling_prefers_critical_threads() {
    // One processor, three threads under conditional-switch with forced
    // switches. Thread 0 holds a ticket-style critical section (priority
    // raised via SetPrio) that requires two memory round trips; threads
    // 1-2 do long stretches of cached work. With priority scheduling the
    // holder is rescheduled ahead of them at every switch point, so the
    // lock is held for fewer cycles.
    use mtsim_isa::Inst;
    let build = || {
        let mut b = ProgramBuilder::new("prio");
        // addr 0: lock serving, addr 1: protected counter, 2..: data
        b.if_else(
            b.tid().eq(0),
            |b| {
                b.emit(Inst::SetPrio { level: 1 });
                // critical section: two dependent round trips
                let v = b.def_i("v", b.load_shared(b.const_i(1)));
                let w = b.def_i("w", b.load_shared(v.get() + 8));
                b.store_shared(b.const_i(1), w.get() + 1);
                b.emit(Inst::SetPrio { level: 0 });
                b.store_shared(b.const_i(0), 1); // "release"
            },
            |b| {
                let acc = b.def_f("acc", 0.0);
                b.for_range("r", 0, 40, |b, _| {
                    b.for_range("i", 0, 32, |b, i| {
                        let x = b.load_shared_f(i.get() + 64);
                        b.assign_f(acc, acc.get() + x);
                    });
                });
                b.store_shared_f(b.tid() + 32, acc.get());
            },
        );
        group_shared_loads(&b.finish()).program
    };
    let release_time = |prio: bool| {
        let cfg =
            MachineConfig::new(SwitchModel::ConditionalSwitch, 1, 3).with_priority_scheduling(prio);
        let fin = Machine::new(cfg, &build(), SharedMemory::new(128)).run().unwrap();
        assert_eq!(fin.shared.read_i64(0), 1);
        fin.result.cycles
    };
    // Total cycles are similar, but we can observe the preference through
    // determinism: the runs differ, and the prioritized one never loses.
    let without = release_time(false);
    let with = release_time(true);
    assert!(with <= without, "priority run {with} vs {without}");
}
