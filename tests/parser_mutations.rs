//! Seeded, bounded mutation tests of the parsers that read untrusted input:
//! sweep spec files, trace files, checkpoint lines and files, and `.mtc`
//! kernels. Each test feeds a few thousand seeded edits of valid inputs to
//! one parser, with `catch_unwind` around every call: a parser may reject
//! any input, but it must never panic. Inputs that once panicked stay as
//! fixed regression cases ahead of the mutants.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mtsim_replay::{synthesize, SynthConfig};
use mtsim_rng::Rng;
use mtsim_sweep::checkpoint::{fnv1a64, load_checkpoint, parse_json};
use mtsim_sweep::SweepSpec;
use mtsim_trace::{load_trace, save_trace};

/// Text spliced into inputs: multi-byte characters, delimiters of every
/// format, and numbers at and past the caps.
const SPLICES: [&str; 30] = [
    "\u{e9}",
    "\u{20ac}",
    "\u{1f600}",
    "\u{2028}",
    "\0",
    "\n",
    " ",
    "\"",
    "\\",
    ",",
    "=",
    "{",
    "}",
    "[",
    "]",
    ":",
    "/*",
    "*/",
    "//",
    "#",
    "-",
    "0",
    "-1",
    "4097",
    "1048577",
    "18446744073709551615",
    "18446744073709551616",
    "1e308",
    "NaN",
    "inf",
];

/// One to four seeded edits of `input`: overwrite a byte, delete a short
/// range, duplicate a short range, or insert a splice.
fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut s = input.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(s.len() as u64 + 1) as usize;
        let end = (at + 1 + rng.below(16) as usize).min(s.len());
        match rng.below(4) {
            0 if at < s.len() => s[at] = rng.below(256) as u8,
            1 if at < s.len() => drop(s.drain(at..end)),
            2 if at < s.len() => {
                let dup = s[at..end].to_vec();
                s.splice(at..at, dup);
            }
            _ => {
                let splice = SPLICES[rng.below(SPLICES.len() as u64) as usize];
                s.splice(at..at, splice.bytes());
            }
        }
    }
    s
}

/// Checks that `parse` accepts every seed input, runs it on each
/// regression case, then on `count` mutants of the seeds drawn from
/// `seed`, and fails naming the first input that panicked. `parse`
/// returns whether it accepted its input.
fn probe(
    seed: u64,
    count: usize,
    seeds: &[Vec<u8>],
    regressions: &[&str],
    parse: impl Fn(&[u8]) -> bool,
) {
    for input in seeds {
        assert!(parse(input), "seed input rejected: {:?}", String::from_utf8_lossy(input));
    }
    let mut rng = Rng::seed_from_u64(seed);
    let fixed = regressions.iter().map(|r| r.as_bytes().to_vec());
    let mutants = (0..count).map(|i| mutate(&mut rng, &seeds[i % seeds.len()]));
    for (i, input) in fixed.chain(mutants).enumerate() {
        if catch_unwind(AssertUnwindSafe(|| parse(&input))).is_err() {
            panic!("input {i} panicked: {:?}", String::from_utf8_lossy(&input));
        }
    }
}

/// Text parsers see what a reader of a file would: invalid UTF-8 turns
/// into U+FFFD, itself a multi-byte character.
fn text(input: &[u8]) -> String {
    String::from_utf8_lossy(input).into_owned()
}

/// A checkpoint whose crc field ends inside `é`, which is two bytes.
const CRC_SPLIT_CHAR: &str = "{\"crc\":\"000000000000000\u{e9}\",\"schema\":\"x\"}\n";

#[test]
fn sweep_specs_parse_validate_and_expand_without_panicking() {
    let seeds = [
        "apps=sieve,sor\nmodels=switch-on-load,explicit-switch\nprocs=1,2\nthreads=1-3\n\
         latencies=50,100\nseeds=0,7\ndrop_rates=0,0.05\nnets=constant,mesh\nopts=auto,intra\n\
         link_bw=8\ncombining=true\nattr=true\nscale=tiny\nmax_cycles=123456\nmax_retries=3\n\
         smt_width=4\n",
        "app=all\nmodel=smt\np=2\nt=1,4-6\nlatency=0-3\nseed=5\ndrop=0.01\nnet=all\nopt=all\n\
         link-bw=32\ncombining=1\nattr=0\nscale=full\nmax-cycles=1000\nmax-retries=0\n",
        "# a comment\n  apps = sor , sieve  \nt = 2 \nlatency = 1, 5-8 ,200 # inline\n",
    ];
    let seeds: Vec<Vec<u8>> = seeds.iter().map(|s| s.as_bytes().to_vec()).collect();
    // Validation comes first, so no grid is expanded past the point cap.
    let grid_past_the_cap = "procs=1-4096\nthreads=1-4096\n";
    probe(0x5EED_5BEC, 3000, &seeds, &[grid_past_the_cap], |input| {
        let Ok(spec) = SweepSpec::parse_file(&text(input)) else { return false };
        let _ = spec.canonical();
        spec.validate().is_ok() && !spec.expand().is_empty()
    });
}

#[test]
fn trace_files_load_and_compile_without_panicking() {
    let cfg = SynthConfig { seed: 3, threads: 4, events_per_thread: 12, ..SynthConfig::default() };
    let mut trace = save_trace(&synthesize(&cfg));
    trace.insert_str(0, "# time proc thread kind addr\n\n");
    trace.push_str("900 1 1 r 3 spin\n");
    let seeds = [trace.into_bytes()];
    probe(0x5EED_7ACE, 3000, &seeds, &[], |input| {
        load_trace(&text(input)).is_ok_and(|events| mtsim_replay::compile(&events).is_ok())
    });
}

/// A committed checkpoint with ok, error and quarantined rows.
const CHECKPOINT: &str = include_str!("golden/sweep_schema.jsonl");
/// The same stream cut mid-line.
const CUT_CHECKPOINT: &str = include_str!("golden/sweep_schema_cut.jsonl");

#[test]
fn checkpoint_lines_parse_without_panicking() {
    let seeds: Vec<Vec<u8>> = CHECKPOINT.lines().map(|l| l.as_bytes().to_vec()).collect();
    probe(0x5EED_0150, 4000, &seeds, &[CRC_SPLIT_CHAR.trim_end()], |input| {
        parse_json(&text(input)).is_ok()
    });
}

/// Bytes of a sealed line before its body: `{"crc":"`, 16 hex digits, `",`.
const SEAL_LEN: usize = 26;

/// Recomputes the crc of every sealed line, so a mutated record reaches
/// the record parser instead of failing its checksum.
fn reseal(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    for line in input.split_inclusive(|&b| b == b'\n') {
        match line.strip_prefix(b"{\"crc\":\"") {
            Some(_) if line.len() >= SEAL_LEN => {
                let body = &line[SEAL_LEN..];
                let body = body.strip_suffix(b"\n").unwrap_or(body);
                out.extend_from_slice(format!("{{\"crc\":\"{:016x}\",", fnv1a64(body)).as_bytes());
                out.extend_from_slice(&line[SEAL_LEN..]);
            }
            _ => out.extend_from_slice(line),
        }
    }
    out
}

#[test]
fn checkpoint_files_load_without_panicking() {
    let seeds = [CHECKPOINT.as_bytes().to_vec(), CUT_CHECKPOINT.as_bytes().to_vec()];
    let path = std::env::temp_dir().join(format!("mtsim-ckpt-mutant-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let load = |input: &[u8]| {
        std::fs::write(&path, input).unwrap();
        load_checkpoint(&path_str).is_ok()
    };
    probe(0x5EED_F11E, 2000, &seeds, &[CRC_SPLIT_CHAR], load);
    // Half the mutants again, resealed, so they pass the checksum.
    probe(0x5EED_5EA1, 1000, &seeds, &[], |input| load(&reseal(input)));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mtc_kernels_compile_without_panicking() {
    let kernel = r#"
        shared float xs[32];
        shared int hits;
        lock l;
        barrier b;
        fn main() {
            local int scratch[8];
            for (int i = tid; i < 32; i = i + nthreads) {
                float v = xs[i];
                xs[i] = sqrt(v * v + 1.5e2);
                scratch[i & 7] = (i << 1) % 5;
                xs[i] = min(xs[i], max(v, 2.0));
            }
            /* a block comment */
            barrier(b);
            if (tid >= nthreads - 1) { acquire(l); faa(hits, 1); release(l); }
        }
    "#;
    let seeds = [
        include_str!("../examples/kernels/histogram.mtc").as_bytes().to_vec(),
        kernel.as_bytes().to_vec(),
    ];
    let regressions = ["/* caf\u{e9} */\nfn main() { int x = 1; }", "fn main() {}\n/* \u{e9}"];
    probe(0x5EED_C0DE, 3000, &seeds, &regressions, |input| {
        mtsim_lang::compile("mutant", &text(input), 4).is_ok()
    });
}
