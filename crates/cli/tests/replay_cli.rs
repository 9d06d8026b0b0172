//! `mtsim replay` runs the program `run_app` would run on the same
//! compiled trace: the grouped one under the explicit-switch models, whose
//! only context switches are the `Switch` instructions grouping inserts.

use mtsim_apps::{replay::replay_app, run_app};
use mtsim_core::{MachineConfig, SwitchModel};
use mtsim_replay::{compile, synthesize, SynthConfig};
use std::process::Command;

/// Simulated cycles `mtsim replay --synth 1 -p 2 -t 2` reports under `model`.
fn cli_cycles(model: SwitchModel) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args(["replay", "--synth", "1", "-p", "2", "-t", "2", "--model", model.name()])
        .output()
        .expect("spawn mtsim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "replay under {model} failed:\n{stdout}");
    assert!(stdout.contains("verified"), "{stdout}");
    let line = stdout.lines().find(|l| l.trim_start().starts_with("cycles")).expect("cycles line");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("cycle count")
}

#[test]
fn replay_matches_run_app_under_the_explicit_switch_models() {
    // The trace the CLI synthesizes: one thread per context of -p 2 -t 2.
    let synth = SynthConfig { seed: 1, threads: 4, ..SynthConfig::default() };
    for model in [SwitchModel::ExplicitSwitch, SwitchModel::ConditionalSwitch] {
        let tp = compile(&synthesize(&synth)).expect("synthetic trace compiles");
        let app = replay_app(tp, 4);
        let want = run_app(&app, MachineConfig::new(model, 2, 2)).expect("run_app verifies");
        assert_eq!(cli_cycles(model), want.cycles, "{model}");
    }
}
