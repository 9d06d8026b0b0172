//! Observability correctness (DESIGN.md §17): cycle attribution must
//! account for every machine cycle on every application × switch model,
//! attaching a recorder must not change the simulation, and fault-retry
//! backoff must charge to memory-stall, never idle.

use mtsim::apps::{
    build_app, program_for, run_app, run_program, AppKind, BuiltApp, RunError, Scale,
};
use mtsim::core::{Machine, MachineConfig, NoopRecorder, ObsRecorder, RunResult, SwitchModel};
use mtsim::mem::FaultConfig;

fn cfg(model: SwitchModel, procs: usize, t: usize) -> MachineConfig {
    let latency = if model == SwitchModel::Ideal { 0 } else { 200 };
    MachineConfig::new(model, procs, t).with_latency(latency)
}

/// Runs `app` on its model's image with a full recorder attached.
fn profile(
    app: &BuiltApp,
    cfg: MachineConfig,
    ring: usize,
) -> Result<(RunResult, ObsRecorder), RunError> {
    let mut rec = ObsRecorder::with_capacity(cfg.processors, cfg.total_threads(), ring);
    let r = run_program(app, &program_for(&app.program, cfg.model), cfg, &mut rec)?;
    Ok((r, rec))
}

/// Every issue slot of every processor is charged to exactly one
/// category: thread categories and unfilled slots (`issue-idle`) count
/// one slot-cycle, whole-processor idle counts all `W` lanes, and the
/// sum equals `processors × W × cycles` (DESIGN.md §22). With `W == 1`
/// — every model but SMT — this is the paper's per-cycle law.
#[test]
fn attribution_conserves_cycles_on_every_app_and_model() {
    for kind in AppKind::ALL {
        let app = build_app(kind, Scale::Tiny, 4);
        for model in SwitchModel::ALL {
            let (r, rec) = profile(&app, cfg(model, 2, 2), 64)
                .unwrap_or_else(|e| panic!("{kind:?} on {model:?}: {e}"));
            assert_eq!(rec.attr.conservation_error(r.cycles), None, "{kind:?} on {model:?}");
            let s = rec.attr.summary();
            let w = rec.attr.issue_width();
            assert_eq!(s.total() + (w - 1) * s.idle, 2 * w * r.cycles, "{kind:?} on {model:?}");
            if model == SwitchModel::Smt {
                assert_eq!(w, mtsim::core::DEFAULT_SMT_WIDTH as u64, "{kind:?}");
            } else {
                assert_eq!((w, s.issue_idle), (1, 0), "{kind:?} on {model:?}");
            }
            assert!(s.busy > 0, "{kind:?} on {model:?}: no busy cycles attributed");
        }
    }
}

/// `run()`, `run_with(NoopRecorder)`, and `run_with(ObsRecorder)` are the
/// same simulation: identical cycles and statistics.
#[test]
fn attaching_a_recorder_does_not_change_the_simulation() {
    fn key(r: &RunResult) -> (u64, u64, u64, u64, u64, u64) {
        let s = r.stats();
        (s.cycles, s.instructions, s.busy, s.idle, s.switches_taken, s.reads_issued)
    }
    for model in [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch, SwitchModel::SwitchOnUse]
    {
        let app = build_app(AppKind::Sor, Scale::Tiny, 4);
        let baseline = run_app(&app, cfg(model, 2, 2)).unwrap();
        let (profiled, _) = profile(&app, cfg(model, 2, 2), 256).unwrap();
        assert_eq!(key(&baseline), key(&profiled), "{model:?}");
    }

    // And the raw engine entry points agree on a hand-built program.
    let app = build_app(AppKind::Sieve, Scale::Tiny, 2);
    let c = cfg(SwitchModel::SwitchOnLoad, 1, 2);
    let plain = Machine::try_new(c.clone(), &app.program, app.shared.clone())
        .and_then(Machine::run)
        .unwrap();
    let noop = Machine::try_new(c.clone(), &app.program, app.shared.clone())
        .and_then(|m| m.run_with(&mut NoopRecorder))
        .unwrap();
    let mut rec = ObsRecorder::new(1, 2);
    let obs = Machine::try_new(c, &app.program, app.shared.clone())
        .and_then(|m| m.run_with(&mut rec))
        .unwrap();
    assert_eq!(key(&plain.result), key(&noop.result));
    assert_eq!(key(&plain.result), key(&obs.result));
}

/// Pinned regression for the fault-retry attribution rule: cycles a
/// thread spends waiting out NACK backoff and timeout resends extend its
/// memory reply, so they charge to memory-stall — never to idle, which is
/// reserved for end-of-run slack. One processor, one thread,
/// switch-on-load: with nothing else to run, every retry wait would
/// otherwise look exactly like idleness.
#[test]
fn fault_retry_backoff_charges_memory_stall_not_idle() {
    let app = build_app(AppKind::Sieve, Scale::Tiny, 1);
    let mut c = cfg(SwitchModel::SwitchOnLoad, 1, 1).with_faults(FaultConfig {
        seed: 7,
        drop_rate: 0.05,
        max_retries: 32,
        ..FaultConfig::default()
    });
    c.max_cycles = 500_000_000;

    let mut rec = ObsRecorder::new(1, 1);
    let fin = Machine::try_new(c, &app.program, app.shared.clone())
        .and_then(|m| m.run_with(&mut rec))
        .unwrap();
    let r = &fin.result;
    assert!(r.total_retries() + r.total_timeouts() > 0, "fault schedule injected nothing");

    assert_eq!(rec.attr.conservation_error(r.cycles), None);
    let s = rec.attr.summary();
    // The single thread halts last, so there is no end-of-run slack: the
    // whole retry wait must have landed in memory-stall.
    assert_eq!(s.idle, 0, "retry backoff leaked into idle: {s:?}");
    let baseline = run_app(&app, cfg(SwitchModel::SwitchOnLoad, 1, 1)).unwrap();
    assert!(
        s.memory_stall > baseline.cycles - baseline.stats().busy,
        "memory-stall {} does not cover the fault-extended waits",
        s.memory_stall
    );
}
