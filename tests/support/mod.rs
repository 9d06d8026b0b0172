//! Fixtures shared by the golden and work-counter tests.

use mtsim_replay::SynthConfig;

/// Seeded traces: the synthesizer's defaults, its locality/sharing/mix
/// extremes, and the long straight-line blocks of a 600-event trace.
pub fn synth_cases() -> Vec<(String, SynthConfig)> {
    let base = SynthConfig::default();
    let mut cases = Vec::new();
    for seed in [1u64, 2, 3] {
        cases.push((format!("synth-s{seed}-default"), SynthConfig { seed, ..base }));
    }
    cases.push((
        "synth-s4-local".into(),
        SynthConfig { seed: 4, locality: 0.95, sharing: 0.0, ..base },
    ));
    cases.push((
        "synth-s5-shared".into(),
        SynthConfig { seed: 5, locality: 0.0, sharing: 0.9, ..base },
    ));
    cases.push((
        "synth-s6-fa-heavy".into(),
        SynthConfig { seed: 6, fa_fraction: 0.6, pair_fraction: 0.0, ..base },
    ));
    cases.push((
        "synth-s7-pairs-writes".into(),
        SynthConfig { seed: 7, threads: 8, pair_fraction: 0.5, write_fraction: 0.6, ..base },
    ));
    cases.push((
        "synth-s8-600x16".into(),
        SynthConfig { seed: 8, threads: 16, events_per_thread: 600, ..base },
    ));
    cases.push((
        "synth-s4242-600x16".into(),
        SynthConfig { seed: 4242, threads: 16, events_per_thread: 600, ..base },
    ));
    cases
}
