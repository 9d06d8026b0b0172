//! Golden snapshot of the single-point CLI commands (`run`, `run-file`,
//! `replay`, `profile`): the stdout and exit code of each invocation,
//! byte for byte. Every line is a pure function of the deterministic
//! simulation, so any drift is either a behavior change (investigate!)
//! or an intentional output change. Regenerate after an intentional
//! change with:
//!
//! ```text
//! BLESS=1 cargo test -p mtsim-cli --test single_point
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// The invocations the fixture pins, run from the workspace root.
const CASES: [&[&str]; 8] = [
    &["run", "sor", "--scale", "tiny", "-p", "2", "-t", "2", "--stats"],
    &["run", "sor", "--scale", "tiny", "-p", "2", "-t", "2", "--stats", "--opt-level", "intra"],
    &[
        "run",
        "sieve",
        "--scale",
        "tiny",
        "-p",
        "2",
        "-t",
        "2",
        "--seed",
        "9",
        "--fault-drop",
        "0.1",
        "--stats",
    ],
    &["run", "sieve", "--scale", "tiny", "-p", "4", "-t", "4", "--net", "mesh", "--stats"],
    &[
        "run",
        "sieve",
        "--scale",
        "tiny",
        "-p",
        "2",
        "-t",
        "2",
        "--fault-drop",
        "1.0",
        "--max-retries",
        "1",
    ],
    &["run-file", "examples/kernels/histogram.mtc", "-p", "2", "-t", "2", "--stats"],
    &["replay", "--synth", "1", "-p", "2", "-t", "2", "--model", "explicit-switch", "--stats"],
    &["profile", "sieve", "--scale", "tiny", "-p", "2", "-t", "2", "--attr", "--out", OUT],
];

/// Placeholder for the `profile --out` path; replaced by a per-process
/// temp file when spawning and mapped back in the recorded stdout.
const OUT: &str = "<out>";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs one case and renders it as `$ mtsim ARGS`, its stdout, and its
/// exit code.
fn render(args: &[&str], out_path: &str) -> String {
    let real: Vec<&str> = args.iter().map(|&a| if a == OUT { out_path } else { a }).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args(&real)
        .current_dir(workspace_root())
        .output()
        .expect("spawn mtsim");
    let stdout = String::from_utf8_lossy(&out.stdout).replace(out_path, OUT);
    let code = out.status.code().map_or("signal".to_string(), |c| c.to_string());
    format!("$ mtsim {}\n{stdout}exit: {code}\n\n", args.join(" "))
}

#[test]
fn single_point_commands_match_golden() {
    let dir = std::env::temp_dir().join(format!("mtsim_single_point_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let actual: String = CASES.iter().map(|args| render(args, trace.to_str().unwrap())).collect();
    let _ = std::fs::remove_dir_all(&dir);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/single_point.txt");
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture; generate it with BLESS=1 cargo test -p mtsim-cli --test single_point")
    });
    assert!(
        expected == actual,
        "single-point CLI output drifted.\n--- expected ---\n{expected}\n--- actual ---\n{actual}\n\
         If the change is intentional, re-bless with BLESS=1 cargo test -p mtsim-cli --test single_point"
    );
}
