//! Byte-identity golden for the sweep spec contract: how spec text
//! parses, renders canonically, hashes and expands into jobs.
//!
//! Each fixture line holds, for one spec text run through
//! `SweepSpec::parse_file`:
//!
//! * `canonical` — FNV-1a of `canonical()`, the text that is persisted
//!   by `mtsim serve` and hashed into every checkpoint header;
//! * `hash` — `spec_hash`, the value a resume compares;
//! * `len` — the grid size;
//! * `expand` — FNV-1a of the `Debug` of `expand()`, so job order, ids
//!   and every per-job field show up as a changed line.
//!
//! The specs set every key through every spelling it accepts, with
//! lists, `LO-HI` ranges, `all`, the boolean spellings, and `smt_width`
//! both at its default (omitted from the canonical text) and at 8. The
//! fixture lives in `tests/golden/sweep_spec_identity.txt`; regenerate it
//! after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test --test sweep_spec_identity
//! ```

use mtsim::sweep::checkpoint::fnv1a64;
use mtsim::sweep::{spec_hash, SweepSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "sweep_spec_identity.txt";

/// `(name, spec text)`; every accepted key spelling appears at least once.
const SPECS: [(&str, &str); 12] = [
    ("default", ""),
    (
        "canonical-keys",
        "apps=sieve,sor\nmodels=switch-on-load,explicit-switch\nprocs=1,2\nthreads=1-3\n\
         latencies=50,100\nseeds=0,7\ndrop_rates=0,0.05\nnets=constant,mesh\nopts=auto,intra\n\
         link_bw=8\ncombining=true\nattr=true\nscale=tiny\nmax_cycles=123456\nmax_retries=3\n\
         smt_width=4\n",
    ),
    (
        "short-aliases",
        "app=all\nmodel=smt\np=2\nt=1,4-6\nlatency=0-3\nseed=5\ndrop=0.01\nnet=all\nopt=all\n\
         link-bw=32\ncombining=1\nattr=0\nscale=full\nmax-cycles=1000\nmax-retries=0\n\
         smt-width=8\n",
    ),
    (
        "long-aliases",
        "apps=water\nmodels=ideal,smt\nprocs=4\nthreads=2\nlatencies=0\nseeds=1,2\n\
         drop-rates=0,0.5,1\nnets=butterfly,crossbar\nopt-level=none\nlink_bw=4\n\
         combining=on\nattr=yes\nscale=small\nmax_cycles=99\nmax_retries=1\nsmt_width=8\n",
    ),
    ("opt-underscore", "opt_level=intra,auto\nopts=none\nopt_level=auto,none,intra\n"),
    ("bool-spellings-off", "combining=off\nattr=no\ncombining=0\nattr=false\n"),
    (
        "whitespace-comments-overrides",
        "# a comment line\n  apps = sor , sieve  \napps = water,mp3d # inline\n\n t = 2 \n\
         latency = 1, 5-8 ,200\nseeds=10-13\n",
    ),
    ("smt-width-8", "models=smt,switch-on-load\nsmt-width=8\nthreads=1,2,4\n"),
    ("smt-width-default", "models=smt\nsmt_width=4\n"),
    ("models-all-ranges", "models=all\nthreads=1-8\nprocs=1,2,4\nscale=tiny\n"),
    (
        "faults-ideal",
        "drop_rates=0.25\nseeds=1,2,3\nmodels=ideal,switch-on-use\nlatencies=0,200\nmax-retries=8\n",
    ),
    ("wide-range", "seeds=1-4096\nscale=tiny\nnets=mesh\nlink-bw=1\n"),
];

fn render() -> String {
    let mut out = String::new();
    for (name, text) in SPECS {
        let spec = SweepSpec::parse_file(text).unwrap_or_else(|e| panic!("spec {name}: {e}"));
        let jobs = format!("{:?}", spec.expand());
        let _ = writeln!(
            out,
            "{name:<30} canonical {:016x} hash {:016x} len {:>5} expand {:016x}",
            fnv1a64(spec.canonical().as_bytes()),
            spec_hash(&spec),
            spec.len(),
            fnv1a64(jobs.as_bytes()),
        );
    }
    out
}

#[test]
fn sweep_spec_parsing_canonical_text_and_expansion_are_byte_identical_to_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(FIXTURE);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {FIXTURE}; generate it with BLESS=1 cargo test --test sweep_spec_identity")
    });
    let mut diff = String::new();
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            let _ = writeln!(diff, "- {e}\n+ {a}");
        }
    }
    assert!(
        expected == actual,
        "sweep spec contract changed:\n{diff}(expected {} lines, got {})",
        expected.lines().count(),
        actual.lines().count()
    );
}
