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
use mtsim_replay::{compile, synthesize};
use std::fmt::Write as _;
use std::path::PathBuf;

mod support;
use support::synth_cases;

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
