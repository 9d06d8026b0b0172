//! Golden-file snapshot tests for the paper-table text reports, the
//! `mtsim sweep` JSON/CSV result tables and the sweep checkpoint stream.
//!
//! Every report here is a pure function of the (deterministic)
//! simulations, so the rendered bytes are stable across machines and
//! worker counts. Fixtures live under `tests/golden/`; regenerate after
//! an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_reports
//! ```
//!
//! `sweep_schema_cut.jsonl` is the one fixture a bless never rewrites: it
//! is a checkpoint written by an earlier build, kept to prove old streams
//! still resume.
//!
//! A failing diff means either an engine-semantics change (investigate!)
//! or an intentional report change (re-bless and review the diff).

use mtsim::sweep::{resume_sweep, run_sweep, ChaosPlan, SweepOpts, SweepOutcome, SweepSpec};
use mtsim_apps::{build_app, program_for, run_program, AppKind, Scale};
use mtsim_bench::tables;
use mtsim_core::{MachineConfig, ObsRecorder, SwitchModel};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `BLESS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {name}; generate it with BLESS=1 cargo test --test golden_reports")
    });
    assert!(
        expected == actual,
        "golden mismatch for {name}.\n--- expected ---\n{expected}\n--- actual ---\n{actual}\n\
         If the change is intentional, re-bless with BLESS=1 cargo test --test golden_reports"
    );
}

#[test]
fn table2_tiny_snapshot() {
    check_golden("table2.txt", &tables::table2_text(Scale::Tiny));
}

#[test]
fn table3_tiny_snapshot() {
    check_golden("table3.txt", &tables::table3_text(Scale::Tiny, Some(2)));
}

#[test]
fn table4_tiny_snapshot() {
    check_golden("table4.txt", &tables::table4_text(Scale::Tiny));
}

#[test]
fn table5_tiny_snapshot() {
    check_golden("table5.txt", &tables::table5_text(Scale::Tiny, Some(2)));
}

#[test]
fn table6_tiny_snapshot() {
    check_golden("table6.txt", &tables::table6_text(Scale::Tiny));
}

#[test]
fn table7_tiny_snapshot() {
    check_golden("table7.txt", &tables::table7_text(Scale::Tiny));
}

#[test]
fn table8_tiny_snapshot() {
    check_golden("table8.txt", &tables::table8_text(Scale::Tiny, Some(2)));
}

#[test]
fn opt_gains_tiny_snapshot() {
    check_golden("opt_gains.txt", &tables::opt_gains_text(Scale::Tiny));
}

/// The model frontier (DESIGN.md §22): snapshot the rendered table and
/// pin the PR's headline claim — SMT at the top multithreading level
/// meets or beats the best blocking single-issue model
/// (switch-on-use-miss) at the same operating point.
#[test]
fn model_frontier_tiny_snapshot() {
    let rows = mtsim_bench::experiments::model_frontier(Scale::Tiny, Some(2));
    check_golden("model_frontier.txt", &tables::model_frontier_render(&rows, Scale::Tiny));

    let top_eff = |model: SwitchModel| {
        rows.iter()
            .find(|r| r.model == model)
            .and_then(|r| r.efficiencies.last().copied())
            .expect("model present in frontier rows")
    };
    let smt = top_eff(SwitchModel::Smt);
    let best_blocking = top_eff(SwitchModel::SwitchOnUseMiss);
    assert!(
        smt >= best_blocking,
        "smt efficiency {smt:.3} fell below switch-on-use-miss {best_blocking:.3}"
    );
}

/// A small deterministic sweep grid, snapshotting both output formats.
/// Worker count must not affect the bytes (submission-order results).
#[test]
fn sweep_json_and_csv_snapshots() {
    let mut spec = SweepSpec::default();
    for (key, value) in [
        ("apps", "sieve,sor"),
        ("models", "switch-on-load,explicit-switch"),
        ("p", "1,2"),
        ("t", "2"),
        ("latency", "200"),
        ("seeds", "1"),
        ("drop", "0"),
    ] {
        spec.set(key, value).unwrap_or_else(|e| panic!("spec {key}: {e}"));
    }
    spec.scale = Scale::Tiny;

    let one =
        run_sweep(&spec, &SweepOpts { workers: Some(1), progress: false, ..SweepOpts::default() })
            .unwrap();
    let four =
        run_sweep(&spec, &SweepOpts { workers: Some(4), progress: false, ..SweepOpts::default() })
            .unwrap();
    assert_eq!(one.results_json(), four.results_json(), "results depend on worker count");

    check_golden("sweep.json", &one.results_json());
    check_golden("sweep.csv", &one.results_csv());
}

/// The sweep-row schema grid: every kind of row the result table and the
/// checkpoint can carry. Opt `none` under explicit-switch has no switch
/// instructions and livelocks into the simulated-cycle watchdog (4 error
/// rows); the `intra` rows run with attribution and opt statistics, and
/// the mesh and drop-rate points give non-zero network, retry and
/// timeout counters. Job 6 panics once with no retry budget, so it is
/// quarantined.
fn schema_spec() -> SweepSpec {
    let mut spec = SweepSpec::default();
    for (key, value) in [
        ("apps", "sieve"),
        ("models", "explicit-switch"),
        ("p", "2"),
        ("t", "2"),
        ("opts", "none,intra"),
        ("nets", "constant,mesh"),
        ("drop_rates", "0,0.05"),
        ("seeds", "1"),
        ("attr", "true"),
        ("scale", "tiny"),
        ("max_cycles", "200000"),
    ] {
        spec.set(key, value).unwrap_or_else(|e| panic!("spec {key}: {e}"));
    }
    spec
}

/// Runs (or, with `resume`, resumes) the schema grid on one worker,
/// streaming its checkpoint to `stream`.
fn schema_sweep(stream: &std::path::Path, resume: bool) -> SweepOutcome {
    let opts = SweepOpts {
        workers: Some(1),
        stream: Some(stream.to_string_lossy().into_owned()),
        retries: 0,
        chaos: Some(ChaosPlan { panic_once: vec![6], kill_after: None }),
        ..SweepOpts::default()
    };
    let path = stream.to_string_lossy();
    if resume {
        resume_sweep(&schema_spec(), &opts, &path).expect("resume schema sweep")
    } else {
        run_sweep(&schema_spec(), &opts).expect("schema sweep")
    }
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mtsim-golden-{}-{name}", std::process::id()))
}

/// Pins the sweep-row schema byte for byte: the result JSON and CSV and
/// the streamed checkpoint of a grid with ok, watchdog-error and
/// quarantined rows, attribution and opt columns.
#[test]
fn sweep_schema_json_csv_and_checkpoint() {
    let stream = scratch_path("schema.jsonl");
    let out = schema_sweep(&stream, false);
    assert_eq!((out.ok_count(), out.failed_count(), out.quarantined_count()), (4, 4, 1));
    let ckpt = std::fs::read_to_string(&stream).unwrap();
    std::fs::remove_file(&stream).ok();
    check_golden("sweep_schema.json", &out.results_json());
    check_golden("sweep_schema.csv", &out.results_csv());
    check_golden("sweep_schema.jsonl", &ckpt);
}

/// Checkpoints written by earlier builds must keep resuming to the same
/// bytes. `sweep_schema_cut.jsonl` is a committed stream cut after its
/// header and first record (a watchdog error); the full
/// `sweep_schema.jsonl` golden carries every other record kind, so
/// resuming it re-reads ok, attributed, opt and quarantined records and
/// runs nothing.
#[test]
fn sweep_schema_resumes_committed_checkpoints() {
    for fixture in ["sweep_schema_cut.jsonl", "sweep_schema.jsonl"] {
        let stream = scratch_path(fixture);
        std::fs::copy(golden_path(fixture), &stream).unwrap();
        let out = schema_sweep(&stream, true);
        std::fs::remove_file(&stream).ok();
        let expected = std::fs::read_to_string(golden_path("sweep_schema.json")).unwrap();
        assert!(out.results_json() == expected, "resuming {fixture} changed the result JSON");
    }
}

/// The text flame table (DESIGN.md §17) on Table 2's smallest
/// configuration: the first paper app at `Tiny` scale, 2 processors × 2
/// threads. The switch-on-load table comes first; one block per other
/// model follows, so the recorder path of every model and both steppers
/// is pinned. Attribution is a pure function of the deterministic
/// simulation, so the rendered bytes are stable.
#[test]
fn flame_table_tiny_snapshot() {
    let kind = AppKind::ALL[0];
    let app = build_app(kind, Scale::Tiny, 4);
    let table = |model| {
        let cfg = MachineConfig::new(model, 2, 2);
        let mut rec = ObsRecorder::with_capacity(2, 4, 64);
        run_program(&app, &program_for(&app.program, model), cfg, &mut rec)
            .expect("flame-table run");
        rec.flame_table()
    };
    let mut out = table(SwitchModel::SwitchOnLoad);
    for model in SwitchModel::ALL.into_iter().filter(|&m| m != SwitchModel::SwitchOnLoad) {
        out.push_str(&format!("\n== {model} ==\n{}", table(model)));
    }
    check_golden("flame_table.txt", &out);
}
