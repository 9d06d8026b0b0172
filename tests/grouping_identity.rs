//! Byte-identity golden for the grouping pass (DESIGN.md §4).
//!
//! For every bundled application at tiny and small scale, and for a set of
//! seeded synthetic replay traces, this records one FNV-1a digest of the
//! grouped program's listing together with its `GroupStats`. Any change to
//! the list scheduler's emitted order, `Switch` placement or statistics
//! shows up as a changed line. The fixture lives in
//! `tests/golden/grouping_identity.txt`; regenerate it after an intentional
//! change with:
//!
//! ```text
//! BLESS=1 cargo test --test grouping_identity
//! ```

use mtsim::apps::{build_app, AppKind, Scale};
use mtsim::asm::Program;
use mtsim::opt::group_shared_loads;
use mtsim::sweep::checkpoint::fnv1a64;
use mtsim_replay::{compile, synthesize, SynthConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "grouping_identity.txt";

/// Threads every bundled app is built for.
const APP_THREADS: usize = 4;

/// One fixture line: the digest covers the listing and every `GroupStats`
/// field; the readable counts repeat the stats so a diff says what moved.
fn digest_line(name: &str, prog: &Program) -> String {
    let g = group_shared_loads(prog);
    let stats = format!("{:?}", g.stats);
    let mut bytes = g.program.listing().into_bytes();
    bytes.extend_from_slice(stats.as_bytes());
    format!(
        "{name:<28} {:016x} insts={} blocks={} switches={} grouped={}\n",
        fnv1a64(&bytes),
        g.program.len(),
        g.stats.blocks,
        g.stats.switches_inserted,
        g.stats.grouped_loads,
    )
}

/// Seeded traces: the synthesizer's defaults, its locality/sharing/mix
/// extremes, and the long straight-line blocks of a 600-event trace.
fn synth_cases() -> Vec<(String, SynthConfig)> {
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

fn render() -> String {
    let mut out = String::new();
    for scale in [Scale::Tiny, Scale::Small] {
        for kind in AppKind::ALL {
            let app = build_app(kind, scale, APP_THREADS);
            out += &digest_line(&format!("{}-{}", kind.name(), scale.name()), &app.program);
        }
    }
    for (name, cfg) in synth_cases() {
        let tp = compile(&synthesize(&cfg)).expect("synthetic traces stay within the replay caps");
        out += &digest_line(&name, &tp.program);
    }
    out
}

#[test]
fn grouping_pass_output_is_byte_identical_to_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(FIXTURE);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {FIXTURE}; generate it with BLESS=1 cargo test --test grouping_identity")
    });
    let mut diff = String::new();
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            let _ = writeln!(diff, "- {e}\n+ {a}");
        }
    }
    assert!(
        expected == actual,
        "grouping output changed:\n{diff}(expected {} lines, got {})",
        expected.lines().count(),
        actual.lines().count()
    );
}
