//! End-to-end checks of the typed flag-error path: every malformed
//! structured flag (`--latency-dist`, `--net`, `--link-bw`) exits with
//! code 2 and names the flag, the offending value, and the accepted
//! grammar on stderr; a size past a cap (threads, latency, replay
//! events) exits 2 and names the cap; a replay probability outside
//! [0, 1], or a synthetic address space outside [2, `MAX_ADDR_WORDS`],
//! exits 2 and names the flag and the range. Untrusted files end in typed
//! errors too: a checkpoint whose crc field splits a multi-byte character
//! exits 2 on `--resume`, and one inside an unterminated `.mtc` block
//! comment exits 1 from `compile`. `mtsim paper` refuses an unknown
//! artifact name, scale, worker count or flag with exit 2 before it
//! renders anything.

use std::process::{Command, Output};

fn mtsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtsim")).args(args).output().expect("spawn mtsim")
}

fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = mtsim(args);
    assert_eq!(out.status.code(), Some(2), "args {args:?} should exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in needles {
        assert!(stderr.contains(needle), "args {args:?}: stderr missing {needle:?}\n{stderr}");
    }
}

#[test]
fn malformed_latency_dist_is_a_usage_error() {
    let run = ["run", "sieve", "--scale", "tiny", "--fault-drop", "0.1"];
    let huge = "18446744073709551615";
    for (flags, needles) in [
        (
            ["--latency-dist", "gaussian:1:2"],
            &["bad value 'gaussian:1:2' for --latency-dist", "geometric:MIN:MEAN"][..],
        ),
        // Latencies past the cap would wrap the clock or panic the draw.
        (["--latency", huge], &["latency 18446744073709551615 exceeds the cap"]),
        (["--latency-dist", &format!("uniform:1:{huge}")], &["uniform latency bound"]),
        (["--latency-dist", &format!("geometric:{huge}:1")], &["geometric latency min"]),
    ] {
        assert_usage_error(&[&run[..], &flags[..]].concat(), needles);
    }
    assert_usage_error(
        &["sweep", "--apps", "sieve", "--scale", "tiny", "--latency", huge],
        &["invalid sweep", "exceeds the cap"],
    );
}

#[test]
fn untrusted_sizes_are_refused_before_anything_is_built() {
    let cap = "exceeds the cap of 16384 hardware contexts";
    assert_usage_error(&["run", "sieve", "-t", "99999999", "--scale", "tiny"], &[cap]);
    assert_usage_error(&["replay", "--synth", "1", "-t", "99999999"], &[cap]);
    assert_usage_error(&["opt", "sieve", "-t", "99999999"], &[cap]);
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels/histogram.mtc");
    assert_usage_error(&["compile", kernel, "-t", "99999999"], &[cap]);
    assert_usage_error(
        &["replay", "--synth", "1", "--events", "99999999999"],
        &["exceeds the replay cap of 4194304 events"],
    );

    let dir = std::env::temp_dir().join(format!("mtsim-caps-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("threads.spec");
    std::fs::write(&spec, "apps=sieve\nthreads=100000000\nscale=tiny\n").unwrap();
    let out = dir.join("out.json");
    assert_usage_error(
        &["sweep", "--spec", spec.to_str().unwrap(), "--out", out.to_str().unwrap()],
        &["invalid sweep", cap],
    );
    assert!(!out.exists(), "a refused sweep must write nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_topology_is_a_usage_error() {
    assert_usage_error(
        &["run", "sieve", "--scale", "tiny", "--net", "torus"],
        &["bad value 'torus' for --net", "crossbar, mesh, or butterfly"],
    );
}

#[test]
fn zero_link_bw_is_a_usage_error() {
    assert_usage_error(
        &["run", "sieve", "--scale", "tiny", "--net", "mesh", "--link-bw", "0"],
        &["bad value '0' for --link-bw", ">= 1"],
    );
}

#[test]
fn net_flags_error_identically_under_run_file_and_sweep() {
    // The same typed path serves every subcommand that takes the flags.
    assert_usage_error(&["sweep", "--net", "torus"], &["unknown topology \"torus\""]);
    assert_usage_error(
        &["run", "sieve", "--scale", "tiny", "--link-bw", "fast"],
        &["bad value 'fast' for --link-bw"],
    );
}

#[test]
fn zero_or_garbage_jobs_is_a_usage_error_everywhere() {
    assert_usage_error(
        &["sweep", "--apps", "sieve", "--jobs", "0"],
        &["bad value '0' for --jobs", ">= 1"],
    );
    assert_usage_error(
        &["check", "--fuzz", "1", "--jobs", "lots"],
        &["bad value 'lots' for --jobs"],
    );
    assert_usage_error(&["serve", "--port", "0", "--jobs", "-3"], &["bad value '-3' for --jobs"]);
}

#[test]
fn invalid_mtsim_jobs_env_is_a_usage_error_not_a_silent_fallback() {
    for bad in ["abc", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
            .args(["sweep", "--apps", "sieve", "--scale", "tiny"])
            .env("MTSIM_JOBS", bad)
            .output()
            .expect("spawn mtsim");
        assert_eq!(out.status.code(), Some(2), "MTSIM_JOBS={bad} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("bad value '{bad}' for --jobs")), "{stderr}");
        assert!(stderr.contains("MTSIM_JOBS"), "must name the env source:\n{stderr}");
    }
}

#[test]
fn explicit_jobs_overrides_a_bad_environment_and_valid_env_works() {
    // A valid env value is honored; a tiny sweep completes under it.
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args([
            "sweep",
            "--apps",
            "sieve",
            "--models",
            "switch-on-load",
            "--p",
            "2",
            "--t",
            "1",
            "--scale",
            "tiny",
            "--quiet",
        ])
        .env("MTSIM_JOBS", "2")
        .output()
        .expect("spawn mtsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // An explicit flag wins before the env is even consulted.
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args([
            "sweep",
            "--apps",
            "sieve",
            "--models",
            "switch-on-load",
            "--p",
            "2",
            "--t",
            "1",
            "--scale",
            "tiny",
            "--quiet",
            "--jobs",
            "1",
        ])
        .env("MTSIM_JOBS", "garbage")
        .output()
        .expect("spawn mtsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn bad_opt_level_flags_are_usage_errors() {
    // Removed level names must be rejected, never mapped to a survivor.
    for bad in ["bogus", "inter", "inter-pipeline"] {
        assert_usage_error(
            &["opt", "sieve", "--level", bad],
            &[&format!("bad value '{bad}' for --level"), "none or intra"],
        );
    }
    for bad in ["O3", "inter", "inter-pipeline"] {
        assert_usage_error(
            &["run", "sieve", "--scale", "tiny", "--opt-level", bad],
            &[&format!("bad value '{bad}' for --opt-level"), "auto, none, or intra"],
        );
    }
    for bad in ["turbo", "inter", "inter-pipeline"] {
        assert_usage_error(&["sweep", "--opt", bad], &[&format!("unknown opt level \"{bad}\"")]);
    }
}

#[test]
fn bad_smt_issue_width_is_a_usage_error() {
    assert_usage_error(
        &["run", "sieve", "--scale", "tiny", "--model", "smt:0"],
        &["bad value 'smt:0' for --model", "width >= 1"],
    );
    assert_usage_error(
        &["replay", "--synth", "1", "--model", "smt:wide"],
        &["bad value 'smt:wide' for --model", "width >= 1"],
    );
    assert_usage_error(
        &["profile", "sieve", "--scale", "tiny", "--model", "smt:x"],
        &["bad value 'smt:x' for --model"],
    );
    // A width suffix on a single-issue model is an unknown model name.
    assert_usage_error(
        &["run", "sieve", "--scale", "tiny", "--model", "switch-on-load:2"],
        &["bad value 'switch-on-load:2' for --model", "smt:<width>"],
    );
    // The sweep axis rejects a zero width through spec validation.
    assert_usage_error(
        &["sweep", "--apps", "sieve", "--models", "smt", "--scale", "tiny", "--smt-width", "0"],
        &["smt issue width must be >= 1"],
    );
}

#[test]
fn sweep_smt_width_flag_pins_every_smt_grid_point() {
    let out = mtsim(&[
        "sweep",
        "--apps",
        "sieve",
        "--models",
        "smt",
        "--p",
        "1",
        "--t",
        "2",
        "--scale",
        "tiny",
        "--smt-width",
        "2",
        "--quiet",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout.lines().nth(1).unwrap_or_default();
    assert!(row.contains("smt"), "missing smt row:\n{stdout}");
    assert!(row.contains(",ok"), "smt job did not complete:\n{stdout}");
}

#[test]
fn smt_width_suffix_runs_and_reports_the_model() {
    let out = mtsim(&["run", "sieve", "--scale", "tiny", "-p", "2", "-t", "4", "--model", "smt:2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sieve on smt"), "missing model line:\n{stdout}");
    assert!(stdout.contains("verified against host reference"), "{stdout}");
}

#[test]
fn replay_synth_runs_and_verifies() {
    let out = mtsim(&["replay", "--synth", "0xEE", "-p", "2", "-t", "2", "--model", "smt:4"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replay on smt"), "{stdout}");
    assert!(stdout.contains("verified against the trace's predicted image"), "{stdout}");
}

#[test]
fn replay_trace_file_round_trips_and_sizes_the_machine() {
    // Three threads with gappy ids; -t defaults to ceil(3 / 2) = 2.
    let dir = std::env::temp_dir().join(format!("mtsim-replay-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.trace");
    std::fs::write(&path, "0 0 0 w 5\n1 0 7 fa 5\n2 1 9 r 5\n3 1 9 wp 6\n").unwrap();
    let out = mtsim(&["replay", path.to_str().unwrap(), "-p", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 events, 3 trace threads on 2 procs x 2 contexts"), "{stdout}");

    // Too few hardware contexts for the trace is a usage error.
    let out = mtsim(&["replay", path.to_str().unwrap(), "-p", "1", "-t", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace has 3 threads"), "{stderr}");

    // A malformed trace line is a usage error naming the line.
    std::fs::write(&path, "0 0 0 q 5\n").unwrap();
    let out = mtsim(&["replay", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace line 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_probabilities_outside_the_unit_interval_are_usage_errors() {
    for flag in ["--locality", "--sharing"] {
        for bad in ["7", "-0.5", "1.01", "NaN", "inf"] {
            let name = &flag[2..];
            assert_usage_error(
                &["replay", "--synth", "1", "-p", "1", "-t", "1", flag, bad],
                &[&format!("--{name} {bad} is outside [0, 1]")],
            );
        }
        // The bounds themselves are valid.
        for ok in ["0", "1"] {
            let out = mtsim(&[
                "replay", "--synth", "1", "-p", "1", "-t", "1", "--events", "20", flag, ok,
            ]);
            assert_eq!(out.status.code(), Some(0), "{flag} {ok}: {out:?}");
        }
    }
}

#[test]
fn replay_addr_words_outside_the_trace_range_are_usage_errors() {
    let replay = ["replay", "--synth", "1", "-p", "1", "-t", "1", "--events", "20"];
    let max = "1048576";
    for bad in ["0", "1", "1048577", "18446744073709551615"] {
        assert_usage_error(
            &[&replay[..], &["--addr-words", bad]].concat(),
            &[&format!("--addr-words {bad} is outside [2, {max}]")],
        );
    }
    // The bounds themselves are valid.
    for ok in ["2", max] {
        let out = mtsim(&[&replay[..], &["--addr-words", ok]].concat());
        assert_eq!(out.status.code(), Some(0), "--addr-words {ok}: {out:?}");
    }
}

#[test]
fn replay_requires_exactly_one_trace_source() {
    assert_usage_error(&["replay"], &["a trace file or --synth SEED"]);
    assert_usage_error(&["replay", "t.trace", "--synth", "1"], &["exactly one"]);
}

#[test]
fn opt_subcommand_reports_passes_and_diff() {
    let out = mtsim(&["opt", "sor", "--scale", "tiny", "--level", "intra", "--diff"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["at opt-level intra", "grouped", "groups (mean", "+++"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    let inserted = |l: &str| l.starts_with('+') && l.ends_with(":  switch");
    assert!(stdout.lines().any(inserted), "no inserted switch in the diff:\n{stdout}");
}

#[test]
fn opt_subcommand_defaults_to_intra() {
    let out = mtsim(&["opt", "sor", "--scale", "tiny"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("at opt-level intra:"), "{stdout}");
}

#[test]
fn pinned_opt_level_run_reports_it() {
    let out =
        mtsim(&["run", "sor", "--scale", "tiny", "-p", "2", "-t", "2", "--opt-level", "intra"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("opt-level     intra (pinned)"), "missing pin line:\n{stdout}");
}

#[test]
fn well_formed_net_flags_run_and_report_stats() {
    let out = mtsim(&[
        "run",
        "sieve",
        "--scale",
        "tiny",
        "-p",
        "2",
        "-t",
        "2",
        "--net",
        "crossbar",
        "--combining",
        "--stats",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crossbar"), "missing net stats:\n{stdout}");
}

#[test]
fn a_checkpoint_with_a_character_across_its_crc_field_is_a_typed_resume_error() {
    // `é` is two bytes; 15 hex digits put it across the crc field's end.
    let dir = std::env::temp_dir().join(format!("mtsim-crc-char-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("cut.jsonl");
    std::fs::write(&ckpt, "{\"crc\":\"000000000000000\u{e9}\",\"schema\":\"x\"}\n").unwrap();
    let sweep = ["sweep", "--apps", "sieve", "--models", "switch-on-load", "--p", "2", "--t", "1"];
    let resume = [&sweep[..], &["--scale", "tiny", "--quiet", "--resume", ckpt.to_str().unwrap()]];
    assert_usage_error(&resume.concat(), &["crc field is not hex"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_non_ascii_character_in_a_block_comment_never_panics_compile() {
    let dir = std::env::temp_dir().join(format!("mtsim-comment-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ok = dir.join("cafe.mtc");
    std::fs::write(&ok, "/* caf\u{e9} */\nfn main() { int x = 1; }\n").unwrap();
    assert_eq!(mtsim(&["compile", ok.to_str().unwrap()]).status.code(), Some(0));
    let open = dir.join("open.mtc");
    std::fs::write(&open, "fn main() {}\n  /* \u{e9}").unwrap();
    let out = mtsim(&["compile", open.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "an unterminated comment is a compile error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2:3") && stderr.contains("unterminated block comment"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paper_refuses_bad_names_and_flags_before_rendering() {
    assert_usage_error(
        &["paper", "table9", "--scale", "tiny"],
        &["unknown artifact 'table9'", "table1, fig2, table2", "model_frontier"],
    );
    assert_usage_error(&["paper", "table1", "--scale", "huge"], &["unknown scale 'huge'"]);
    assert_usage_error(
        &["paper", "table3", "--scale", "tiny", "--jobs", "0"],
        &["bad value '0' for --jobs", ">= 1"],
    );
    // Misspelt and `=`-joined flags used to fall back to small scale.
    for flag in ["--sacle", "--scale=tiny"] {
        assert_usage_error(
            &["paper", "table1", flag, "tiny"],
            &[&format!("unknown flag '{flag}'")],
        );
    }
    // A valid name next to a bad one prints nothing.
    let out = mtsim(&["paper", "table1", "nope", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}
