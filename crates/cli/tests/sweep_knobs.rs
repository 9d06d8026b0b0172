//! A check generated from `mtsim_sweep::KNOBS`: for every sweep key, the
//! `mtsim sweep` flag and the same key in a `--spec` file build the same
//! spec and write the same bytes, every alias sets the same key, and the
//! usage text names the flag. A key added to `KNOBS` without a sample
//! value here fails the test.

use mtsim_sweep::{spec_hash, SweepSpec, KNOBS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The grid every run starts from: one tiny sieve point.
const BASE: &str = "apps=sieve\nmodels=switch-on-load\nprocs=1\nthreads=1\nscale=tiny\n";

/// One value per key that differs from both `BASE` and the default, so
/// each run shows that the key reached the spec.
const SAMPLES: [(&str, &str); 16] = [
    ("apps", "sor"),
    ("models", "explicit-switch"),
    ("procs", "2"),
    ("threads", "2"),
    ("latencies", "50"),
    ("seeds", "3"),
    ("drop_rates", "0.05"),
    ("nets", "mesh"),
    ("opts", "intra"),
    ("link_bw", "8"),
    ("combining", "true"),
    ("attr", "true"),
    ("scale", "small"),
    ("max_cycles", "1000"),
    ("max_retries", "3"),
    ("smt_width", "2"),
];

fn sample(key: &str) -> &'static str {
    let found = SAMPLES.iter().find(|(k, _)| *k == key);
    found.unwrap_or_else(|| panic!("no sample value for sweep key {key:?}; add one to SAMPLES")).1
}

fn spec_with(key: &str, value: &str) -> SweepSpec {
    SweepSpec::parse_file(&format!("{BASE}{key} = {value}\n"))
        .unwrap_or_else(|e| panic!("{key} = {value}: {e}"))
}

/// Runs `mtsim sweep` into `dir/name.*`, returning the exit code and the
/// CSV, JSON and checkpoint bytes.
fn sweep(dir: &Path, name: &str, args: &[&str]) -> (Option<i32>, Vec<Vec<u8>>) {
    let out = |ext: &str| dir.join(format!("{name}.{ext}"));
    let (csv, json) = (out("csv"), out("json"));
    let status = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .arg("sweep")
        .args(args)
        .args(["--quiet", "--jobs", "1", "--csv", csv.to_str().unwrap()])
        .args(["--out", json.to_str().unwrap()])
        .status()
        .expect("spawn mtsim");
    let bytes = [csv, json, out("json.jsonl")].map(|p| std::fs::read(&p).unwrap_or_default());
    (status.code(), bytes.to_vec())
}

#[test]
fn every_knob_is_the_same_as_a_flag_and_as_a_spec_line() {
    for (key, _) in SAMPLES {
        assert!(KNOBS.iter().any(|k| k.key == key), "sample for unknown sweep key {key:?}");
    }
    let dir: PathBuf = std::env::temp_dir().join(format!("mtsim-knobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base_spec = dir.join("base.spec");
    std::fs::write(&base_spec, BASE).unwrap();
    let base = SweepSpec::parse_file(BASE).unwrap();

    for knob in KNOBS {
        let value = sample(knob.key);
        let spec = spec_with(knob.key, value);
        assert_ne!(spec.canonical(), base.canonical(), "sample {value:?} leaves {}", knob.key);
        for alias in knob.aliases {
            let via = spec_with(alias, value).canonical();
            assert_eq!(via, spec.canonical(), "alias {alias:?} of {}", knob.key);
        }

        let flag = format!("--{}", knob.flag());
        let mut args = vec!["--spec", base_spec.to_str().unwrap(), &flag];
        if !knob.boolean {
            args.push(value);
        }
        let by_flag = sweep(&dir, &format!("{}-flag", knob.key), &args);
        let line_spec = dir.join(format!("{}.spec", knob.key));
        std::fs::write(&line_spec, format!("{BASE}{} = {value}\n", knob.key)).unwrap();
        let by_line =
            sweep(&dir, &format!("{}-line", knob.key), &["--spec", line_spec.to_str().unwrap()]);
        assert_eq!(by_flag, by_line, "{flag} and a spec line for {} differ", knob.key);
        let header = String::from_utf8_lossy(&by_flag.1[2]);
        let hash = format!("{:016x}", spec_hash(&spec));
        assert!(header.contains(&hash), "{flag}: checkpoint header lacks spec hash {hash}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_names_every_sweep_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args(["sweep", "--no-such-flag"])
        .output()
        .expect("spawn mtsim");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let start = stderr.find("mtsim sweep").expect("usage has a sweep line");
    let end = start + stderr[start..].find("mtsim check").expect("check follows sweep");
    let usage = &stderr[start..end];
    for knob in KNOBS {
        let flag = knob.flag();
        let shown = if knob.boolean { format!("[--{flag}]") } else { format!("[--{flag} ") };
        assert!(usage.contains(&shown), "sweep usage lacks {shown:?}:\n{usage}");
    }
}
