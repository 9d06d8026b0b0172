//! Golden snapshot of `mtsim paper` at `--scale tiny`: each artifact's
//! stdout, byte for byte, and the `BENCH_*.json` file the three writers
//! leave in their working directory. Each run gets a fresh temp
//! directory, so a writer's file is read back from there and a
//! non-writer must leave the directory empty. A writer that cannot write
//! its file exits 1 and prints nothing.
//!
//! The stdout goldens are `tests/golden/<name>.txt` at the workspace
//! root. `opt_gains` and `model_frontier` share theirs with
//! `tests/golden_reports.rs`, which pins the rendered table without the
//! trailing `wrote BENCH_*.json` line, so that line is appended here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every artifact, in `mtsim paper`'s order, with the line its stdout
/// carries past its golden.
const ARTIFACTS: [(&str, &str); 18] = [
    ("table1", ""),
    ("fig2", ""),
    ("table2", ""),
    ("fig3", ""),
    ("table3", ""),
    ("fig4", ""),
    ("table4", ""),
    ("table5", ""),
    ("table6", ""),
    ("table7", ""),
    ("table8", ""),
    ("ablation", ""),
    ("opt_gains", "  wrote BENCH_opt.json\n"),
    ("latency", ""),
    ("cache_geometry", ""),
    ("burstiness", ""),
    ("net_contention", ""),
    ("model_frontier", "wrote BENCH_models.json\n"),
];

/// The file each writer leaves behind and its golden.
const WRITTEN: [(&str, &str, &str); 3] = [
    ("opt_gains", "BENCH_opt.json", "bench_opt_tiny.json"),
    ("net_contention", "BENCH_net.json", "bench_net_tiny.json"),
    ("model_frontier", "BENCH_models.json", "bench_models_tiny.json"),
];

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn expected_stdout(name: &str, trailer: &str) -> String {
    golden(&format!("{name}.txt")) + trailer
}

/// `mtsim paper` at tiny scale, for the named artifacts (all when empty).
fn command(names: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mtsim"));
    cmd.arg("paper").args(names).args(["--scale", "tiny"]);
    cmd
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtsim-paper-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Names the files in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_artifact_matches_its_tiny_golden() {
    let mut failures = Vec::new();
    for (name, trailer) in ARTIFACTS {
        let dir = scratch_dir(name);
        let out = command(&[name]).current_dir(&dir).output().expect("spawn mtsim");
        assert!(out.status.success(), "{name} failed: {}", String::from_utf8_lossy(&out.stderr));
        if String::from_utf8_lossy(&out.stdout) != expected_stdout(name, trailer) {
            failures.push(format!("{name}: stdout differs from tests/golden/{name}.txt"));
        }
        let written: Vec<_> = WRITTEN.iter().filter(|w| w.0 == name).collect();
        let want: Vec<String> = written.iter().map(|w| w.1.to_string()).collect();
        assert_eq!(listing(&dir), want, "{name} left unexpected files");
        for &&(_, file, fixture) in &written {
            if std::fs::read_to_string(dir.join(file)).unwrap() != golden(fixture) {
                failures.push(format!("{name}: {file} differs from tests/golden/{fixture}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn no_name_runs_every_artifact_in_order() {
    let dir = scratch_dir("all");
    let out = command(&[]).current_dir(&dir).output().expect("spawn mtsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let expected: String =
        ARTIFACTS.iter().map(|&(name, trailer)| expected_stdout(name, trailer)).collect();
    assert!(
        String::from_utf8_lossy(&out.stdout) == expected,
        "stdout is not the 18 goldens in order"
    );
    let mut files: Vec<String> = WRITTEN.iter().map(|w| w.1.to_string()).collect();
    files.sort();
    assert_eq!(listing(&dir), files);
    for (_, file, fixture) in WRITTEN {
        assert_eq!(std::fs::read_to_string(dir.join(file)).unwrap(), golden(fixture), "{file}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_bench_file_is_a_run_failure_naming_it() {
    let dir = scratch_dir("unwritable");
    std::fs::create_dir(dir.join("BENCH_opt.json")).unwrap();
    let out = command(&["opt_gains"]).current_dir(&dir).output().expect("spawn mtsim");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("opt_gains: cannot write BENCH_opt.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
