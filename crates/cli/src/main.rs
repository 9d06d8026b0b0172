//! `mtsim` — command-line driver for the simulator.
//!
//! ```text
//! mtsim run <app> [--model M] [-p N] [-t N] [--scale S] [--latency N]
//!            [--max-run N|off] [--priority] [--estimate] [--stats]
//!            [--opt-level auto|none|intra]
//!            [--seed N] [--fault-drop R] [--fault-delay R] [--fault-dup R]
//!            [--latency-dist D] [--max-retries N]
//!            [--net T] [--link-bw N] [--combining]
//! mtsim list
//! mtsim disasm <app> [--grouped] [--scale S]
//! mtsim opt <app> [--level none|intra] [--scale S]
//!            [-t N] [--diff]
//! mtsim models
//! mtsim compile <file.mtc> [-t N] [--grouped]
//! mtsim run-file <file.mtc> [--model M] [-p N] [-t N] [--max-cycles N]
//!                [--stats] [--seed N] [--fault-drop R] [--fault-delay R]
//!                [--fault-dup R] [--latency-dist D] [--max-retries N]
//!                [--net T] [--link-bw N] [--combining]
//! mtsim profile <app> [--model M] [-p N] [-t N] [--scale S] [--latency N]
//!                [--max-run N|off] [--max-cycles N]
//!                [--out trace.json] [--ring N] [--attr] [fault/net flags]
//! mtsim sweep [--spec FILE] [--apps A,B|all] [--models M,N|all] [--p LIST]
//!             [--t LIST] [--latency LIST] [--seeds LIST] [--drop LIST]
//!             [--net LIST|all] [--opt LIST|all] [--link-bw N]
//!             [--combining] [--attr]
//!             [--smt-width N] [--scale S] [--max-cycles N] [--max-retries N]
//!             [--jobs N] [--out results.json] [--csv results.csv] [--quiet]
//!             [--resume FILE.jsonl] [--job-timeout SECS] [--retries N]
//! mtsim check [--fuzz N] [--seed S] [--jobs N] [--shrink-budget N]
//!             [--chaos N]
//! mtsim replay <trace.txt> [--model M] [-p N] [-t N] [--latency N]
//!              [--max-cycles N] [--stats] [--net T] [--link-bw N] [--combining]
//! mtsim replay --synth SEED [-p N] [-t N] [--events N] [--addr-words N]
//!              [--locality R] [--sharing R] [model/net flags]
//! mtsim serve [--addr A] [--port N] [--jobs N] [--state-dir DIR]
//!             [--queue-cap N] [--cache-cap N]
//! mtsim paper [NAME...] [--scale tiny|small|full] [--jobs N]
//! ```
//!
//! `--model` accepts every name from `mtsim models`; the SMT model also
//! takes an issue-width suffix (`--model smt:8`). A width of zero — or a
//! suffix on any single-issue model — is a usage error (exit 2).
//!
//! `replay` runs a recorded shared-access trace (the `mtsim-trace` text
//! format: `time proc thread kind addr [spin]` per line) through the
//! machine: the trace is compiled into a race-free program (DESIGN.md
//! §22) and the final memory image is verified against the host-side
//! prediction. With `--synth SEED` a synthetic trace is generated
//! instead, shaped by `--events`, `--addr-words`, `--locality`, and
//! `--sharing`. `-t` defaults to the smallest level that gives every
//! trace thread a hardware context.
//!
//! `profile` runs one application with the full observability recorder
//! attached (DESIGN.md §17) and writes a Chrome/Perfetto trace-event JSON
//! file (load it at <https://ui.perfetto.dev>). `--ring` bounds the event
//! ring (most recent events win); `--attr` additionally prints the
//! per-thread cycle-attribution flame table on stdout.
//!
//! `opt` runs the paper's grouping pass (§5.1) over one application
//! image at `--level` (default `intra`; `none` leaves it untouched) and
//! reports the grouping statistics: shared loads grouped, groups formed,
//! mean and largest group. `--diff` additionally prints a line diff of
//! the before/after disassembly. `mtsim run --opt-level` pins the same
//! level for a real simulation instead of the model-aware `auto`
//! selection (grouped image iff the model switches explicitly); the
//! pinned image is verified against the host reference like any other
//! run. Pinning `none` under an explicit-switch model is allowed but
//! usually livelocks on spin-waits until the watchdog trips.
//!
//! `check` is the differential-testing driver (DESIGN.md §15): it
//! generates `--fuzz` random race-free programs from `--seed` (decimal or
//! `0x` hex), runs each across every switch model × latency × grouping ×
//! fault seed on the claim-cursor pool, and compares every run's final
//! architectural state against the sequential reference interpreter.
//! Failures are minimized before being reported.
//!
//! `sweep` runs the cartesian grid on the claim-cursor pool
//! (`mtsim-sweep`). List axes are comma-separated; integer axes accept
//! `LO-HI` ranges. A `--spec` file holds `key = value` lines with the
//! same keys; explicit flags override it. With `--out`/`--csv` the
//! deterministic result table is written there; otherwise CSV goes to
//! stdout. A failing grid point is one failing row, not a dead sweep.
//!
//! Crash safety (DESIGN.md §18): with `--out FILE.json` every completed
//! job also streams to `FILE.json.jsonl` — an fsync'd, checksummed
//! checkpoint. After a crash, `mtsim sweep --resume FILE.json.jsonl`
//! (with the same spec) reruns only the missing grid points and writes
//! output byte-identical to an uninterrupted run; a mismatched spec is
//! refused. `--job-timeout SECS` cancels attempts exceeding a wall-clock
//! budget; panicked/timed-out jobs are retried up to `--retries` times
//! (default 2) with backoff, then quarantined into a `failed_jobs`
//! section instead of aborting the sweep. `mtsim check --chaos N` runs
//! the kill/resume chaos harness over N seeded failure injections.
//!
//! Latency distributions: `constant` (the paper's model), `uniform:LO:HI`,
//! `geometric:MIN:MEAN` (MEAN is the average extra tail beyond MIN).
//!
//! Network topologies (`--net`): `constant` (the paper's contention-free
//! pipe, the default), `crossbar`, `mesh`, `butterfly`. `--link-bw` sets
//! bits/cycle per link (default 16); `--combining` merges concurrent
//! fetch-and-adds to one address inside the switches.
//!
//! `serve` starts the persistent simulation service (`mtsim-serve`,
//! DESIGN.md §19): a JSON-over-HTTP job queue on the sweep engine with
//! a shared artifact cache and crash-safe restart-resume. `--port 0`
//! binds an ephemeral port; the bound address is printed on stdout.
//!
//! `paper` regenerates the paper's tables and figures (`mtsim-bench`):
//! each NAME (`table1`, `fig2`, ...; all of them, in DESIGN.md §7 order,
//! when none is given) prints its report on stdout. `opt_gains`,
//! `net_contention` and `model_frontier` also write `BENCH_opt.json`,
//! `BENCH_net.json` and `BENCH_models.json` to the working directory.
//!
//! Worker counts for `sweep`, `check`, `serve` and `paper` come from
//! `--jobs` or, when absent, the `MTSIM_JOBS` environment variable; an
//! invalid value in either place is a usage error (exit 2), never a
//! silent fallback.
//!
//! Exit codes: `0` success, `1` the simulation failed (fault exhaustion,
//! deadlock, watchdog, bad program, wrong results), `2` usage,
//! configuration, or checkpoint-corruption error, `3` sweep completed
//! but quarantined at least one job, `4` sweep aborted early (checkpoint
//! write failure); completed jobs remain resumable.
//!
//! Examples:
//!
//! ```text
//! mtsim run sor --model explicit-switch -p 4 -t 8 --stats
//! mtsim run sieve --fault-drop 0.05 --seed 7 --stats
//! mtsim disasm sor --grouped | head -40
//! ```

mod flags;

use flags::{net_config, parse_latency_dist, FlagError};
use std::borrow::Cow;

use mtsim_apps::{build_app, program_for, replay::replay_app, run_program, AppKind, Scale};
use mtsim_bench::ARTIFACTS;
use mtsim_core::{
    Machine, MachineConfig, NoopRecorder, ObsRecorder, StreamHist, SwitchModel, MAX_TOTAL_THREADS,
};
use mtsim_mem::FaultConfig;
use mtsim_opt::{GroupStats, OptLevel};
use mtsim_sweep::{OptChoice, SweepOpts, SweepSpec, KNOBS};

/// The simulation ran and failed (typed `SimError` or wrong results).
const EXIT_RUN_FAILED: i32 = 1;
/// The command line or configuration was invalid — or a checkpoint
/// failed validation (corruption, spec mismatch); nothing was simulated.
const EXIT_USAGE: i32 = 2;
/// The sweep completed but quarantined at least one transiently failing
/// job (graceful degradation; see DESIGN.md §18).
const EXIT_QUARANTINED: i32 = 3;
/// The sweep aborted before finishing the grid (checkpoint write
/// failure); completed jobs are durable and the sweep is resumable.
const EXIT_ABORTED: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mtsim run <app> [--model M] [-p N] [-t N] [--scale tiny|small|full]\n             [--latency N] [--max-run N|off] [--priority] [--estimate] [--stats]\n             [--opt-level auto|none|intra]\n             [--seed N] [--fault-drop R] [--fault-delay R] [--fault-dup R]\n             [--latency-dist constant|uniform:LO:HI|geometric:MIN:MEAN]\n             [--max-retries N] [--max-cycles N]\n             [--net constant|crossbar|mesh|butterfly] [--link-bw N] [--combining]\n  mtsim list\n  mtsim models\n  mtsim disasm <app> [--grouped] [--scale S]\n  mtsim opt <app> [--level none|intra] [--scale S] [-t N] [--diff]\n  mtsim compile <file.mtc> [-t N] [--grouped]\n  mtsim run-file <file.mtc> [--model M] [-p N] [-t N] [--max-cycles N] [--stats]\n              [fault/net flags]\n  mtsim profile <app> [--model M] [-p N] [-t N] [--scale S] [--latency N]\n              [--max-run N|off] [--max-cycles N]\n              [--out trace.json] [--ring N] [--attr] [fault/net flags]\n  mtsim sweep [--spec FILE] [--apps LIST|all] [--models LIST|all] [--p LIST]\n              [--t LIST] [--latency LIST] [--seeds LIST] [--drop LIST]\n              [--net LIST|all] [--opt LIST|all] [--link-bw N] [--combining] [--attr]\n              [--smt-width N] [--scale S] [--max-cycles N] [--max-retries N]\n              [--jobs N] [--out FILE.json] [--csv FILE.csv] [--quiet]\n              [--resume FILE.jsonl] [--job-timeout SECS] [--retries N]\n  mtsim check [--fuzz N] [--seed S] [--jobs N] [--shrink-budget N] [--chaos N]\n              [--deep [--bless]]\n  mtsim replay <trace.txt>|--synth SEED [--model M] [-p N] [-t N] [--latency N]\n              [--events N] [--addr-words N] [--locality R] [--sharing R]\n              [--max-cycles N] [--stats] [net flags]\n  mtsim serve [--addr A] [--port N] [--jobs N] [--state-dir DIR]\n              [--queue-cap N] [--cache-cap N]\n  mtsim paper [NAME...] [--scale tiny|small|full] [--jobs N]\n\napps: {}\nmodels: {}",
        AppKind::ALL.map(|a| a.name()).join(", "),
        SwitchModel::ALL.map(|m| m.name()).join(", ") + " (smt takes smt:<width>)"
    );
    std::process::exit(EXIT_USAGE);
}

/// Reports `msg` on stderr and exits with `code`.
fn die(code: i32, msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Reports a usage/configuration error and exits with code 2.
fn bad_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage()
}

fn parse_app(s: &str) -> AppKind {
    AppKind::from_name(s).unwrap_or_else(|| bad_usage(&format!("unknown app '{s}'")))
}

/// Parses `--model`, returning the model plus the pinned SMT issue width
/// when the `smt:<width>` form was used (`None` keeps the model default).
fn model_from_args(args: &Args) -> (SwitchModel, Option<usize>) {
    match args.get("model") {
        Some(v) => flag_or_die(flags::parse_model_spec(v)),
        None => (SwitchModel::SwitchOnLoad, None),
    }
}

fn parse_scale(s: &str) -> Scale {
    Scale::from_name(s)
        .unwrap_or_else(|| bad_usage(&format!("unknown scale '{s}' (want tiny, small, or full)")))
}

/// Parses a flag value, rejecting garbage with a clear message instead of
/// a panic.
fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| bad_usage(&format!("bad value '{v}' for --{flag}")))
}

/// Parses a probability flag: a number in [0, 1] (NaN is refused).
fn parse_fraction(flag: &str, v: &str) -> f64 {
    let r: f64 = parse_num(flag, v);
    if !(0.0..=1.0).contains(&r) {
        bad_usage(&format!("--{flag} {v} is outside [0, 1]"));
    }
    r
}

/// Unwraps a typed flag-parse result, mapping [`FlagError`] to the usage
/// exit path (stderr + exit code 2).
fn flag_or_die<T>(r: Result<T, FlagError>) -> T {
    r.unwrap_or_else(|e| bad_usage(&e.to_string()))
}

/// Value-taking fault flags shared by `run`, `profile` and `run-file`.
const FAULT_FLAGS: [&str; 6] =
    ["seed", "fault-drop", "fault-delay", "fault-dup", "latency-dist", "max-retries"];

/// Value-taking network flags shared by the single-point commands
/// (`--combining` is boolean and listed separately).
const NET_FLAGS: [&str; 2] = ["net", "link-bw"];

/// Builds the network configuration from the shared network flags.
fn net_from_args(args: &Args) -> mtsim_mem::NetworkConfig {
    flag_or_die(net_config(args.get("net"), args.get("link-bw"), args.has("combining")))
}

/// Builds the fault configuration from the shared fault flags.
fn fault_config(args: &Args) -> FaultConfig {
    let mut fc = FaultConfig::default();
    if let Some(v) = args.get("seed") {
        fc.seed = parse_num("seed", v);
    }
    if let Some(v) = args.get("fault-drop") {
        fc.drop_rate = parse_num("fault-drop", v);
    }
    if let Some(v) = args.get("fault-delay") {
        fc.delay_rate = parse_num("fault-delay", v);
    }
    if let Some(v) = args.get("fault-dup") {
        fc.dup_rate = parse_num("fault-dup", v);
    }
    if let Some(v) = args.get("latency-dist") {
        fc.dist = flag_or_die(parse_latency_dist(v));
    }
    if let Some(v) = args.get("max-retries") {
        fc.max_retries = parse_num("max-retries", v);
    }
    fc
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the command line, accepting only the listed flags: anything
    /// else is rejected with a clear message and exit code 2.
    fn parse(takes_value: &[&str], boolean: &[&str]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if a == "-" || !a.starts_with('-') {
                positional.push(a);
                continue;
            }
            let name =
                a.strip_prefix("--").or_else(|| a.strip_prefix('-')).unwrap_or(&a).to_string();
            let value = if takes_value.contains(&name.as_str()) {
                Some(
                    it.next().unwrap_or_else(|| bad_usage(&format!("flag --{name} needs a value"))),
                )
            } else if boolean.contains(&name.as_str()) {
                None
            } else {
                bad_usage(&format!("unknown flag '{a}' for this command"));
            };
            flags.push((name, value));
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn main() {
    // Dispatch on the subcommand first so every command can validate its
    // own flag set strictly.
    match std::env::args().nth(1).as_deref() {
        Some("list") => {
            Args::parse(&[], &[]);
            for a in AppKind::ALL {
                println!("{:<8} {}", a.name(), a.description());
            }
        }
        Some("models") => {
            Args::parse(&[], &[]);
            for m in SwitchModel::ALL {
                println!("{}", m.name());
            }
        }
        Some("disasm") => cmd_disasm(&Args::parse(&["scale"], &["grouped"])),
        Some("opt") => cmd_opt(&Args::parse(&["level", "scale", "t"], &["diff"])),
        Some("run") => {
            let mut value_flags =
                vec!["model", "p", "t", "scale", "latency", "max-run", "max-cycles", "opt-level"];
            value_flags.extend(FAULT_FLAGS);
            value_flags.extend(NET_FLAGS);
            cmd_run(&Args::parse(&value_flags, &["priority", "estimate", "stats", "combining"]))
        }
        Some("profile") => {
            let mut value_flags =
                vec!["model", "p", "t", "scale", "latency", "max-run", "max-cycles", "out", "ring"];
            value_flags.extend(FAULT_FLAGS);
            value_flags.extend(NET_FLAGS);
            cmd_profile(&Args::parse(&value_flags, &["attr", "combining"]))
        }
        Some("compile") => cmd_compile(&Args::parse(&["t"], &["grouped"])),
        Some("run-file") => {
            let mut value_flags = vec!["model", "p", "t", "max-cycles"];
            value_flags.extend(FAULT_FLAGS);
            value_flags.extend(NET_FLAGS);
            cmd_run_file(&Args::parse(&value_flags, &["stats", "combining"]))
        }
        Some("sweep") => {
            let mut value_flags =
                vec!["spec", "jobs", "out", "csv", "resume", "job-timeout", "retries"];
            let mut boolean = vec!["quiet"];
            for knob in KNOBS {
                let flags = if knob.boolean { &mut boolean } else { &mut value_flags };
                flags.push(knob.flag());
            }
            cmd_sweep(&Args::parse(&value_flags, &boolean))
        }
        Some("check") => cmd_check(&Args::parse(
            &["fuzz", "seed", "jobs", "shrink-budget", "chaos"],
            &["deep", "bless"],
        )),
        Some("serve") => cmd_serve(&Args::parse(
            &["addr", "port", "jobs", "state-dir", "queue-cap", "cache-cap"],
            &[],
        )),
        Some("replay") => {
            let mut value_flags = vec![
                "model",
                "p",
                "t",
                "latency",
                "max-cycles",
                "synth",
                "events",
                "addr-words",
                "locality",
                "sharing",
            ];
            value_flags.extend(NET_FLAGS);
            cmd_replay(&Args::parse(&value_flags, &["stats", "combining"]))
        }
        Some("paper") => cmd_paper(&Args::parse(&["scale", "jobs"], &[])),
        _ => usage(),
    }
}

fn cmd_paper(args: &Args) {
    let scale = args.get("scale").map(parse_scale).unwrap_or(Scale::Small);
    let jobs = flag_or_die(flags::resolve_jobs(args.get("jobs")));
    let names = &args.positional[1..];
    let artifacts: Vec<_> = if names.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                ARTIFACTS.iter().find(|(n, _)| n == name).unwrap_or_else(|| {
                    let known: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
                    bad_usage(&format!("unknown artifact '{name}' (want {})", known.join(", ")))
                })
            })
            .collect()
    };
    for (name, render) in artifacts {
        match render(scale, jobs) {
            Ok(text) => print!("{text}"),
            Err(e) => die(EXIT_RUN_FAILED, format!("error: {name}: {e}")),
        }
    }
}

fn cmd_serve(args: &Args) {
    let port: u16 = args.get("port").map(|v| parse_num("port", v)).unwrap_or(8117);
    let addr = format!("{}:{port}", args.get("addr").unwrap_or("127.0.0.1"));
    let workers = flag_or_die(flags::resolve_jobs(args.get("jobs")));
    let queue_cap: usize = args.get("queue-cap").map(|v| parse_num("queue-cap", v)).unwrap_or(64);
    if queue_cap == 0 {
        bad_usage("--queue-cap must be >= 1");
    }
    let cache_cap: usize = args.get("cache-cap").map(|v| parse_num("cache-cap", v)).unwrap_or(128);
    let cfg = mtsim_serve::ServeConfig {
        addr,
        workers,
        state_dir: args.get("state-dir").unwrap_or("mtsim-serve-state").to_string(),
        queue_cap,
        cache_cap,
    };
    let server = mtsim_serve::Server::bind(cfg)
        .unwrap_or_else(|e| die(EXIT_RUN_FAILED, format!("error: cannot start server: {e}")));
    // The authoritative address line (stdout, flushed): with --port 0
    // the kernel picks the port, and scripts parse it from here.
    match server.local_addr() {
        Ok(local) => {
            use std::io::Write;
            println!("mtsim-serve listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => die(EXIT_RUN_FAILED, format!("error: cannot read bound address: {e}")),
    }
    if let Err(e) = server.run() {
        die(EXIT_RUN_FAILED, format!("error: {e}"));
    }
}

/// Parses an unsigned seed, accepting both decimal and `0x` hex.
fn parse_seed(flag: &str, v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| bad_usage(&format!("bad value '{v}' for --{flag}")))
}

fn cmd_check(args: &Args) {
    if args.has("deep") {
        let mut cfg = mtsim_check::DeepConfig { bless: args.has("bless"), ..Default::default() };
        if let Some(n) = flag_or_die(flags::resolve_jobs(args.get("jobs"))) {
            cfg.jobs = n;
        }
        let summary = mtsim_check::deep(cfg);
        print!("{}", summary.report());
        if !summary.passed() && !summary.blessed {
            std::process::exit(EXIT_RUN_FAILED);
        }
        return;
    }
    if let Some(v) = args.get("chaos") {
        let mut cfg =
            mtsim_check::ChaosConfig { trials: parse_num("chaos", v), ..Default::default() };
        if cfg.trials == 0 {
            bad_usage("--chaos must be >= 1");
        }
        if let Some(v) = args.get("seed") {
            cfg.seed = parse_seed("seed", v);
        }
        if let Some(n) = flag_or_die(flags::resolve_jobs(args.get("jobs"))) {
            cfg.workers = n;
        }
        let summary = mtsim_check::chaos(cfg);
        print!("{}", summary.report());
        if !summary.passed() {
            std::process::exit(EXIT_RUN_FAILED);
        }
        return;
    }
    let mut cfg = mtsim_check::FuzzConfig::default();
    if let Some(v) = args.get("fuzz") {
        cfg.cases = parse_num("fuzz", v);
    }
    if let Some(v) = args.get("seed") {
        cfg.seed = parse_seed("seed", v);
    }
    if let Some(n) = flag_or_die(flags::resolve_jobs(args.get("jobs"))) {
        cfg.jobs = n;
    }
    if let Some(v) = args.get("shrink-budget") {
        cfg.shrink_budget = parse_num("shrink-budget", v);
    }
    if cfg.cases == 0 {
        bad_usage("--fuzz must be >= 1");
    }

    let summary = mtsim_check::fuzz(cfg);
    print!("{}", summary.report());
    if !summary.passed() {
        std::process::exit(EXIT_RUN_FAILED);
    }
}

fn cmd_sweep(args: &Args) {
    use std::io::IsTerminal;

    // Spec file first, explicit flags override.
    let mut spec = match args.get("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot read {path}: {e}")));
            SweepSpec::parse_file(&text).unwrap_or_else(|e| bad_usage(&format!("{path}: {e}")))
        }
        None => SweepSpec::default(),
    };
    for knob in KNOBS {
        let flag = knob.flag();
        let value = if knob.boolean { args.has(flag).then_some("true") } else { args.get(flag) };
        if let Some(value) = value {
            spec.set(flag, value).unwrap_or_else(|e| bad_usage(&e));
        }
    }

    let workers = flag_or_die(flags::resolve_jobs(args.get("jobs")));
    let quiet = args.has("quiet");
    let job_timeout = args.get("job-timeout").map(|v| {
        let secs: f64 = parse_num("job-timeout", v);
        if !(secs > 0.0 && secs.is_finite()) {
            bad_usage("--job-timeout must be a positive number of seconds");
        }
        std::time::Duration::from_secs_f64(secs)
    });
    let retries: u32 = args.get("retries").map(|v| parse_num("retries", v)).unwrap_or(2);
    // Streaming rides along with --out: the checkpoint lives next to the
    // final table. On resume the checkpoint path is the stream.
    let resume = args.get("resume");
    let stream = match resume {
        Some(_) => None, // resume_sweep reopens the checkpoint itself
        None => args.get("out").map(|o| format!("{o}.jsonl")),
    };
    let opts = SweepOpts {
        workers,
        progress: !quiet && std::io::stderr().is_terminal(),
        stream,
        job_timeout,
        retries,
        ..SweepOpts::default()
    };

    let run = match resume {
        Some(path) => mtsim_sweep::resume_sweep(&spec, &opts, path),
        None => mtsim_sweep::run_sweep(&spec, &opts),
    };
    let out = match run {
        Ok(out) => out,
        Err(e @ mtsim_sweep::SweepError::Aborted { .. }) => {
            die(EXIT_ABORTED, format!("error: {e}"))
        }
        Err(e) => die(EXIT_USAGE, format!("error: {e}")),
    };

    // Deterministic table to the requested sinks; CSV to stdout when no
    // file was asked for.
    let mut wrote_file = false;
    if let Some(path) = args.get("out") {
        std::fs::write(path, out.results_json() + "\n")
            .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot write {path}: {e}")));
        wrote_file = true;
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, out.results_csv())
            .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot write {path}: {e}")));
        wrote_file = true;
    }
    if !wrote_file {
        print!("{}", out.results_csv());
    }

    if !quiet {
        eprintln!("{}", out.summary_line());
        for job in out.jobs.iter().filter(|j| j.result.is_err()) {
            let s = &job.spec;
            if let Err(e) = &job.result {
                let tag = if job.quarantined { "quarantined" } else { "failed" };
                eprintln!(
                    "  {tag}: job {} ({} {} p={} t={} latency={} seed={}): {e}",
                    s.id, s.app, s.model, s.procs, s.threads_per_proc, s.latency, s.seed
                );
            }
        }
    }
    if out.quarantined_count() > 0 {
        std::process::exit(EXIT_QUARANTINED);
    }
    if out.failed_count() > 0 {
        std::process::exit(EXIT_RUN_FAILED);
    }
}

fn cmd_disasm(args: &Args) {
    let Some(app_name) = args.positional.get(1) else { usage() };
    let scale = args.get("scale").map(parse_scale).unwrap_or(Scale::Tiny);
    let app = build_app(parse_app(app_name), scale, 1);
    if args.has("grouped") {
        let (grouped, stats) = app.grouped();
        println!(
            "; {} grouped: {} loads in {} groups (factor {:.2})",
            app_name,
            stats.grouped_loads,
            stats.switches_inserted,
            stats.grouping_factor()
        );
        print!("{}", grouped.listing());
    } else {
        print!("{}", app.program.listing());
    }
}

/// Minimal LCS line diff between two disassembly listings, rendered as
/// `-`/`+` runs under `@@ -LINE +LINE @@` hunk headers (context lines are
/// omitted: optimizer diffs are sparse and the listings are long).
fn listing_diff(before: &str, after: &str) -> String {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let mut lcs = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] =
                if a[i] == b[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let (mut i, mut j) = (0, 0);
    let mut out = String::new();
    let mut in_hunk = false;
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
            in_hunk = false;
        } else {
            if !in_hunk {
                out.push_str(&format!("@@ -{} +{} @@\n", i + 1, j + 1));
                in_hunk = true;
            }
            if j >= b.len() || (i < a.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
                out.push_str(&format!("-{}\n", a[i]));
                i += 1;
            } else {
                out.push_str(&format!("+{}\n", b[j]));
                j += 1;
            }
        }
    }
    out
}

fn cmd_opt(args: &Args) {
    let Some(app_name) = args.positional.get(1) else { usage() };
    let kind = parse_app(app_name);
    let scale = args.get("scale").map(parse_scale).unwrap_or(Scale::Tiny);
    let threads = capped_threads(args);
    if threads == 0 {
        bad_usage("-t must be >= 1");
    }
    let level = args
        .get("level")
        .map(|v| flag_or_die(flags::parse_opt_level(v)))
        .unwrap_or(OptLevel::Intra);

    let app = build_app(kind, scale, threads);
    let (optimized, stats) = match level {
        OptLevel::None => (app.program.clone(), GroupStats::default()),
        OptLevel::Intra => app.grouped(),
    };
    println!(
        "{app_name} (scale {scale:?}, {threads} threads) at opt-level {level}: {} -> {} insts",
        app.program.len(),
        optimized.len()
    );
    println!(
        "  grouped {} shared loads into {} groups (mean {:.2}, max {})",
        stats.grouped_loads,
        stats.switches_inserted,
        stats.grouping_factor(),
        stats.max_group()
    );
    if args.has("diff") {
        println!("--- {app_name} (base)");
        println!("+++ {app_name} ({level})");
        print!("{}", listing_diff(&app.program.listing(), &optimized.listing()));
    }
}

fn read_and_compile(args: &Args, nthreads: usize) -> mtsim_lang::CompiledUnit {
    let Some(path) = args.positional.get(1) else { usage() };
    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot read {path}: {e}")));
    match mtsim_lang::compile(path, &source, nthreads) {
        Ok(unit) => unit,
        Err(e) => die(EXIT_RUN_FAILED, format!("{path}:{e}")),
    }
}

/// `-t` (default 4) for the commands that build a program without a
/// machine (`opt`, `compile`), refused above the machine's context cap.
fn capped_threads(args: &Args) -> usize {
    let threads: usize = args.get("t").map(|v| parse_num("t", v)).unwrap_or(4);
    if threads > MAX_TOTAL_THREADS {
        bad_usage(&format!(
            "-t {threads} exceeds the cap of {MAX_TOTAL_THREADS} hardware contexts"
        ));
    }
    threads
}

fn cmd_compile(args: &Args) {
    let threads = capped_threads(args);
    let unit = read_and_compile(args, threads);
    if args.has("grouped") {
        let g = mtsim_opt::group_shared_loads(&unit.program);
        println!(
            "; grouped: {} loads in {} groups (factor {:.2})",
            g.stats.grouped_loads,
            g.stats.switches_inserted,
            g.stats.grouping_factor()
        );
        print!("{}", g.program.listing());
    } else {
        for (name, base, words) in unit.layout.regions() {
            println!("; shared {name} @ {base} ({words} words)");
        }
        print!("{}", unit.program.listing());
    }
}

/// Builds the machine of a single-point command (`run`, `profile`,
/// `run-file`, `replay`) from its resolved model and geometry plus
/// whichever machine flags are present — each command's flag whitelist
/// decides which can be. An invalid configuration exits with code 2.
fn machine_config(
    args: &Args,
    (model, width): (SwitchModel, Option<usize>),
    procs: usize,
    threads: usize,
) -> MachineConfig {
    let mut cfg = MachineConfig::new(model, procs, threads);
    if let Some(w) = width {
        cfg = cfg.with_issue_width(w);
    }
    if let Some(l) = args.get("latency") {
        cfg.latency = parse_num("latency", l);
    }
    if let Some(mr) = args.get("max-run") {
        cfg.max_run = if mr == "off" { None } else { Some(parse_num("max-run", mr)) };
    }
    cfg.priority_scheduling = args.has("priority");
    cfg.interblock_estimate = args.has("estimate") && model == SwitchModel::ExplicitSwitch;
    cfg.max_cycles =
        args.get("max-cycles").map(|v| parse_num("max-cycles", v)).unwrap_or(5_000_000_000);
    cfg.fault = fault_config(args);
    cfg.net = net_from_args(args);
    if let Err(e) = cfg.try_validate() {
        die(EXIT_USAGE, format!("error: invalid configuration: {e}"));
    }
    cfg
}

/// Unwraps a simulation outcome, reporting a failed run (typed
/// `SimError` or wrong results) on stderr with exit code 1.
fn run_or_die<T>(run: Result<T, impl std::fmt::Display>) -> T {
    run.unwrap_or_else(|e| die(EXIT_RUN_FAILED, format!("run failed: {e}")))
}

/// Prints the modeled-network summary line when a network was simulated.
/// With a latency histogram (from a recorder-attached run) the line
/// reports p50/p99 round-trip latency; without one it falls back to the
/// mean.
fn print_net_stats(cfg: &MachineConfig, r: &mtsim_core::RunResult, lat: Option<&StreamHist>) {
    if let Some(n) = r.net {
        let latency = match lat.filter(|h| h.count() > 0) {
            Some(h) => format!("latency p50 {} p99 {}", h.p50(), h.p99()),
            None => format!("mean latency {:.1}", n.mean_latency()),
        };
        println!(
            "  network       {} ({} round trips, {latency}, max {}, {} queue cycles{})",
            cfg.net.topology,
            n.requests,
            n.latency_max,
            n.queue_cycles,
            if cfg.net.combining {
                format!(", {} of {} F&As combined", n.fa_combined, n.fa_requests)
            } else {
                String::new()
            }
        );
    }
}

/// Prints the shared-load round-trip latency percentile line when the
/// histogram saw at least one reply-bearing load.
fn print_latency_stats(h: &StreamHist) {
    if h.count() > 0 {
        println!(
            "  latency       p50 {} p99 {} round-trip cycles ({} shared loads)",
            h.p50(),
            h.p99(),
            h.count()
        );
    }
}

/// Prints the fault-recovery summary line when fault injection was on.
fn print_fault_stats(cfg: &MachineConfig, r: &mtsim_core::RunResult) {
    if !cfg.fault.is_active() {
        return;
    }
    let wait: u64 = r.per_proc.iter().map(|p| p.fault_wait).sum();
    println!(
        "  faults        {} nack retries, {} timeout resends, {} cycles extra wait",
        r.total_retries(),
        r.total_timeouts(),
        wait
    );
}

fn cmd_run_file(args: &Args) {
    let (model, width) = model_from_args(args);
    let procs: usize = args.get("p").map(|v| parse_num("p", v)).unwrap_or(2);
    let threads: usize = args.get("t").map(|v| parse_num("t", v)).unwrap_or(4);
    let cfg = machine_config(args, (model, width), procs, threads);

    // A kernel has no host verifier and its result is the final shared
    // regions, so it runs on the engine directly rather than as an app.
    let unit = read_and_compile(args, procs * threads);
    let program = program_for(&unit.program, model);
    let mem = mtsim_mem::SharedMemory::new(unit.shared_words());
    let mut rec =
        args.has("stats").then(|| ObsRecorder::with_capacity(procs, cfg.total_threads(), 1));
    let machine = Machine::try_new(cfg.clone(), &program, mem);
    let fin = run_or_die(match rec.as_mut() {
        Some(r) => machine.and_then(|m| m.run_with(r)),
        None => machine.and_then(Machine::run),
    });
    println!(
        "{model}: {} cycles, utilization {:.1}%, {} switches",
        fin.result.cycles,
        fin.result.utilization() * 100.0,
        fin.result.switches_taken
    );
    for (name, base, words) in unit.layout.regions() {
        let shown = words.min(8);
        let vals: Vec<String> =
            (0..shown).map(|k| fin.shared.read_i64(base + k).to_string()).collect();
        let ell = if words > shown { ", ..." } else { "" };
        println!("  {name:<12} [{}{}]", vals.join(", "), ell);
    }
    if args.has("stats") {
        println!(
            "  run-length mean {:.1}; {:.2} bits/cycle/proc",
            fin.result.run_lengths.mean(),
            fin.result.bits_per_cycle()
        );
        let lat = rec.as_ref().map(|rec| &rec.load_latency);
        if let Some(h) = lat {
            print_latency_stats(h);
        }
        print_net_stats(&cfg, &fin.result, lat);
        print_fault_stats(&cfg, &fin.result);
    }
}

fn cmd_replay(args: &Args) {
    let (model, width) = model_from_args(args);
    let procs: usize = args.get("p").map(|v| parse_num("p", v)).unwrap_or(2);
    if procs == 0 {
        bad_usage("-p must be >= 1");
    }
    let explicit_t: Option<usize> = args.get("t").map(|v| parse_num("t", v));
    if explicit_t == Some(0) {
        bad_usage("-t must be >= 1");
    }

    let compile_or_die = |events: &[mtsim_mem::TraceEvent], what: &str| {
        mtsim_replay::compile(events)
            .unwrap_or_else(|e| die(EXIT_USAGE, format!("error: {what}: {e}")))
    };
    let tp = match (args.positional.get(1), args.get("synth")) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot read {path}: {e}")));
            let events = mtsim_trace::load_trace(&text)
                .unwrap_or_else(|e| die(EXIT_USAGE, format!("error: {path}: {e}")));
            compile_or_die(&events, path)
        }
        (None, Some(seed)) => {
            // A synthetic trace sized to the machine: one trace thread
            // per hardware context. The machine is checked first, so an
            // untrusted -p or -t never sizes an allocation.
            let threads = explicit_t.unwrap_or(4);
            machine_config(args, (model, width), procs, threads);
            let mut sc = mtsim_replay::SynthConfig {
                seed: parse_seed("synth", seed),
                threads: procs * threads,
                ..mtsim_replay::SynthConfig::default()
            };
            if let Some(v) = args.get("events") {
                sc.events_per_thread = parse_num("events", v);
            }
            if let Some(v) = args.get("addr-words") {
                // Below two words the synthesizer would quietly use two;
                // past the replay cap the whole trace would be built only
                // for `compile` to refuse it.
                let max = mtsim_replay::MAX_ADDR_WORDS;
                sc.addr_words = parse_num("addr-words", v);
                if !(2..=max).contains(&sc.addr_words) {
                    bad_usage(&format!("--addr-words {v} is outside [2, {max}]"));
                }
            }
            if let Some(v) = args.get("locality") {
                sc.locality = parse_fraction("locality", v);
            }
            if let Some(v) = args.get("sharing") {
                sc.sharing = parse_fraction("sharing", v);
            }
            if sc.threads.saturating_mul(sc.events_per_thread) > mtsim_replay::MAX_SYNTH_EVENTS {
                bad_usage(&format!(
                    "--events {} x {} trace threads exceeds the replay cap of {} events",
                    sc.events_per_thread,
                    sc.threads,
                    mtsim_replay::MAX_SYNTH_EVENTS
                ));
            }
            compile_or_die(&mtsim_replay::synthesize(&sc), "synthetic trace")
        }
        _ => bad_usage("replay takes a trace file or --synth SEED (exactly one)"),
    };

    // Every trace thread needs a hardware context; extra contexts halt
    // on their first instruction. -t defaults to the smallest level that
    // fits the trace.
    let threads = explicit_t.unwrap_or_else(|| tp.nthreads.div_ceil(procs).max(1));
    if procs * threads < tp.nthreads {
        bad_usage(&format!(
            "trace has {} threads but -p {procs} -t {threads} provides only {} contexts",
            tp.nthreads,
            procs * threads
        ));
    }

    let cfg = machine_config(args, (model, width), procs, threads);

    let (events, trace_threads) = (tp.events, tp.nthreads);
    let app = replay_app(tp, procs * threads);
    // The explicit-switch models run the grouped program, as `run_app`
    // does: the compiled trace itself carries no `Switch`.
    let program = program_for(&app.program, model);
    let r = run_or_die(run_program(&app, &program, cfg.clone(), &mut NoopRecorder));
    println!(
        "replay on {model}: {events} events, {trace_threads} trace threads on {procs} procs x {threads} contexts"
    );
    println!("  cycles        {}", r.cycles);
    println!("  instructions  {}", r.instructions);
    println!("  utilization   {:.1}%", r.utilization() * 100.0);
    println!("  result        verified against the trace's predicted image");
    if args.has("stats") {
        println!(
            "  switches      {} taken, {} skipped, {} forced",
            r.switches_taken, r.switches_skipped, r.forced_switches
        );
        println!("  run-length    mean {:.1}", r.run_lengths.mean());
        println!("  bandwidth     {:.2} bits/cycle/proc (spin excluded)", r.bits_per_cycle());
        print_net_stats(&cfg, &r, None);
    }
}

fn cmd_run(args: &Args) {
    let Some(app_name) = args.positional.get(1) else { usage() };
    let kind = parse_app(app_name);
    let (model, width) = model_from_args(args);
    let procs: usize = args.get("p").map(|v| parse_num("p", v)).unwrap_or(4);
    let threads: usize = args.get("t").map(|v| parse_num("t", v)).unwrap_or(4);
    let scale = args.get("scale").map(parse_scale).unwrap_or(Scale::Small);

    let cfg = machine_config(args, (model, width), procs, threads);

    let opt = args
        .get("opt-level")
        .map(|v| flag_or_die(flags::parse_opt_choice(v)))
        .unwrap_or(OptChoice::Auto);

    let app = build_app(kind, scale, procs * threads);
    // A pinned --opt-level overrides the model-aware auto selection;
    // `Switch` costs one cycle under the non-explicit models, so the
    // grouped image is legal (and verified) everywhere.
    let program = if opt.runs_grouped(model) {
        Cow::Owned(app.grouped().0)
    } else {
        Cow::Borrowed(&app.program)
    };
    // `--stats` attaches a recorder (tiny ring: only the histograms are
    // read) so the latency percentiles come from real per-load samples;
    // the simulation itself is bit-identical either way.
    let (r, rec) = if args.has("stats") {
        let mut rec = ObsRecorder::with_capacity(procs, cfg.total_threads(), 1);
        (run_or_die(run_program(&app, &program, cfg.clone(), &mut rec)), Some(rec))
    } else {
        (run_or_die(run_program(&app, &program, cfg.clone(), &mut NoopRecorder)), None)
    };

    println!("{app_name} on {model}: {procs} procs x {threads} threads (scale {scale:?})");
    if let OptChoice::Level(level) = opt {
        println!("  opt-level     {level} (pinned)");
    }
    println!("  cycles        {}", r.cycles);
    println!("  instructions  {}", r.instructions);
    println!("  utilization   {:.1}%", r.utilization() * 100.0);
    println!("  result        verified against host reference");
    if args.has("stats") {
        println!(
            "  switches      {} taken, {} skipped, {} forced",
            r.switches_taken, r.switches_skipped, r.forced_switches
        );
        println!("  run-length    mean {:.1}", r.run_lengths.mean());
        for (label, count) in r.run_lengths.buckets() {
            println!("    {label:>8}  {count}");
        }
        println!("  grouping      {:.2} reads/switch-point", r.dynamic_grouping_factor());
        println!("  bandwidth     {:.2} bits/cycle/proc (spin excluded)", r.bits_per_cycle());
        println!(
            "  messages      {} data, {} spin",
            r.traffic.data_messages(),
            r.traffic.spin_messages()
        );
        if let Some(c) = r.cache {
            println!(
                "  cache         {:.1}% hits ({} hits, {} misses, {} invalidations)",
                c.hit_rate() * 100.0,
                c.hits,
                c.misses,
                c.invalidations_received
            );
        }
        println!("  scoreboard    {} stall cycles", r.scoreboard_stalls);
        let lat = rec.as_ref().map(|rec| &rec.load_latency);
        if let Some(h) = lat {
            print_latency_stats(h);
        }
        print_net_stats(&cfg, &r, lat);
        print_fault_stats(&cfg, &r);
    }
}

fn cmd_profile(args: &Args) {
    let Some(app_name) = args.positional.get(1) else { usage() };
    let kind = parse_app(app_name);
    let (model, width) = model_from_args(args);
    let procs: usize = args.get("p").map(|v| parse_num("p", v)).unwrap_or(4);
    let threads: usize = args.get("t").map(|v| parse_num("t", v)).unwrap_or(4);
    let scale = args.get("scale").map(parse_scale).unwrap_or(Scale::Small);

    let cfg = machine_config(args, (model, width), procs, threads);

    let ring: usize =
        args.get("ring").map(|v| parse_num("ring", v)).unwrap_or(mtsim_core::DEFAULT_RING_CAPACITY);
    if ring == 0 {
        bad_usage("--ring must be >= 1");
    }

    let app = build_app(kind, scale, procs * threads);
    let mut rec = ObsRecorder::with_capacity(procs, cfg.total_threads(), ring);
    let program = program_for(&app.program, model);
    let r = run_or_die(run_program(&app, &program, cfg.clone(), &mut rec));

    let out_path = args.get("out").unwrap_or("trace.json");
    std::fs::write(out_path, rec.chrome_trace())
        .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot write {out_path}: {e}")));

    println!("{app_name} on {model}: {procs} procs x {threads} threads (scale {scale:?})");
    println!("  cycles        {}", r.cycles);
    println!(
        "  trace         {} events ({} dropped) -> {out_path}",
        rec.events.len(),
        rec.events.dropped()
    );
    print_latency_stats(&rec.load_latency);
    if rec.run_lengths.count() > 0 {
        println!(
            "  run-length    p50 {} p99 {} busy cycles between switches",
            rec.run_lengths.p50(),
            rec.run_lengths.p99()
        );
    }
    if rec.queue_residency.count() > 0 {
        println!(
            "  net queueing  p50 {} p99 {} cycles per message",
            rec.queue_residency.p50(),
            rec.queue_residency.p99()
        );
    }
    print_net_stats(&cfg, &r, Some(&rec.load_latency));
    print_fault_stats(&cfg, &r);
    if args.has("attr") {
        print!("{}", rec.flame_table());
    }
}
