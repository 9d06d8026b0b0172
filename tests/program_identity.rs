//! Byte-identity golden for the program pipeline ahead of the engine:
//! the program builder, the trace compiler and the pre-decode
//! (DESIGN.md §20).
//!
//! Each fixture line holds one FNV-1a digest:
//!
//! * `listing` — a bundled app's built program at tiny and small scale,
//!   or the `compile` output of a seeded synthetic trace;
//! * `decoded` — the `Debug` of that program's `DecodedProgram` table;
//! * `decoded-grouped` — the same for the program after the grouping pass.
//!
//! Register choice, instruction order, costs, masks, flags and run
//! lengths all show up as a changed line. The fixture lives in
//! `tests/golden/program_identity.txt`; regenerate it after an intentional
//! change with:
//!
//! ```text
//! BLESS=1 cargo test --test program_identity
//! ```

use mtsim::apps::{build_app, AppKind, Scale};
use mtsim::asm::Program;
use mtsim::core::DecodedProgram;
use mtsim::opt::group_shared_loads;
use mtsim::sweep::checkpoint::fnv1a64;
use mtsim_replay::{compile, synthesize};
use std::fmt::Write as _;
use std::path::PathBuf;

mod support;
use support::synth_cases;

const FIXTURE: &str = "program_identity.txt";

/// Threads every bundled app is built for.
const APP_THREADS: usize = 4;

fn digest_lines(out: &mut String, name: &str, prog: &Program) {
    let grouped = group_shared_loads(prog).program;
    let decoded = |p: &Program| format!("{:?}", DecodedProgram::decode(p).insts());
    for (what, text) in [
        ("listing", prog.listing()),
        ("decoded", decoded(prog)),
        ("decoded-grouped", decoded(&grouped)),
    ] {
        let _ = writeln!(out, "{name:<28} {what:<16} {:016x}", fnv1a64(text.as_bytes()));
    }
}

fn render() -> String {
    let mut out = String::new();
    for scale in [Scale::Tiny, Scale::Small] {
        for kind in AppKind::ALL {
            let app = build_app(kind, scale, APP_THREADS);
            digest_lines(&mut out, &format!("{}-{}", kind.name(), scale.name()), &app.program);
        }
    }
    for (name, cfg) in synth_cases() {
        let tp = compile(&synthesize(&cfg)).expect("synthetic traces stay within the replay caps");
        digest_lines(&mut out, &name, &tp.program);
    }
    out
}

#[test]
fn built_compiled_and_decoded_programs_are_byte_identical_to_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(FIXTURE);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {FIXTURE}; generate it with BLESS=1 cargo test --test program_identity")
    });
    let mut diff = String::new();
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            let _ = writeln!(diff, "- {e}\n+ {a}");
        }
    }
    assert!(
        expected == actual,
        "program pipeline output changed:\n{diff}(expected {} lines, got {})",
        expected.lines().count(),
        actual.lines().count()
    );
}
