//! Byte-identity golden for `synthesize`.
//!
//! For seeded configs across thread counts (1 to 64), the locality,
//! sharing and pair fractions at both extremes, and the sizes of
//! perfbench's replay-cold points (8 and 16 threads of 600 events over
//! 4096 words), this records one FNV-1a digest of the trace's events in
//! order. Any change to a thread's draw order or to the merged event
//! order shows up as a changed line. The fixture lives in
//! `tests/golden/synth_identity.txt`; regenerate it after an intentional
//! change with:
//!
//! ```text
//! BLESS=1 cargo test -p mtsim-replay --test synth_identity
//! ```

use mtsim_replay::{synthesize, SynthConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "synth_identity.txt";

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cases() -> Vec<(String, SynthConfig)> {
    let base = SynthConfig::default();
    let mut cases = Vec::new();
    for threads in [0usize, 1, 8, 16, 64] {
        cases.push((format!("t{threads}-default"), SynthConfig { seed: 1, threads, ..base }));
    }
    for (name, locality, sharing, pair_fraction) in [
        ("all-zero", 0.0, 0.0, 0.0),
        ("local", 1.0, 0.0, 0.0),
        ("shared", 0.0, 1.0, 0.0),
        ("pairs", 0.0, 0.0, 1.0),
        ("all-one", 1.0, 1.0, 1.0),
    ] {
        cases.push((
            format!("t8-{name}"),
            SynthConfig { seed: 2, threads: 8, locality, sharing, pair_fraction, ..base },
        ));
    }
    cases.push(("t4-one-event".into(), SynthConfig { seed: 3, events_per_thread: 1, ..base }));
    cases.push(("t4-two-words".into(), SynthConfig { seed: 3, addr_words: 2, ..base }));
    for seed in [1u64, 4242, 0x9e37_79b9_7f4a_7c15] {
        for threads in [8usize, 16] {
            cases.push((
                format!("replay-cold-s{seed}-t{threads}"),
                SynthConfig { seed, threads, events_per_thread: 600, addr_words: 4096, ..base },
            ));
        }
    }
    cases
}

fn render() -> String {
    let mut out = String::new();
    for (name, cfg) in cases() {
        let events = synthesize(&cfg);
        let text: String = events.iter().map(|e| format!("{e:?}\n")).collect();
        let _ =
            writeln!(out, "{name:<40} {:016x} events={}", fnv1a64(text.as_bytes()), events.len());
    }
    out
}

#[test]
fn synthesized_traces_are_byte_identical_to_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(FIXTURE);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {FIXTURE}; generate it with BLESS=1 cargo test -p mtsim-replay --test synth_identity")
    });
    let mut diff = String::new();
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            let _ = writeln!(diff, "- {e}\n+ {a}");
        }
    }
    assert!(
        expected == actual,
        "synthesized traces changed:\n{diff}(expected {} lines, got {})",
        expected.lines().count(),
        actual.lines().count()
    );
}
