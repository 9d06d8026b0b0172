//! Crash-safe checkpoint records for streaming sweeps (DESIGN.md §18).
//!
//! A streamed sweep appends one self-validating JSON line per completed
//! job to `<out>.jsonl`. Each line carries an FNV-1a checksum of its own
//! body, the file opens with a header line binding the stream to a hash
//! of the expanded [`SweepSpec`](crate::SweepSpec), and every append is
//! fsync'd — so after a panic, OOM kill, or ctrl-C the file is a durable
//! record of exactly which grid points finished.
//!
//! Recovery semantics are deliberately asymmetric:
//!
//! * A **torn tail** — a final line with no terminating `'\n'` — is the
//!   unique signature of a crash mid-append. The loader reports it, the
//!   resume path truncates it, and the interrupted job simply re-runs.
//! * Anything else — a checksum mismatch on a *complete* line, a
//!   malformed record, a missing or garbled header — is **corruption**
//!   and yields a typed [`SweepError`], never a panic and never a silent
//!   partial resume.
//! * A header whose spec hash differs from the spec being resumed is a
//!   [`SweepError::SpecMismatch`]: resuming a checkpoint against the
//!   wrong grid would silently fabricate results.

use std::collections::HashMap;

use mtsim_core::{AttrSummary, RunStats};

use crate::json::JsonBuilder;
use crate::results::{JobError, JobOutcome, OptCols, Stat, SIM_KINDS, STATS};
use crate::spec::SweepSpec;

/// Schema tag written into every checkpoint header.
pub const CKPT_SCHEMA: &str = "mtsim-sweep-ckpt/v1";

/// Why a sweep failed at the orchestration layer (as opposed to a single
/// grid point failing, which is a row in the result table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The sweep specification itself is invalid.
    Config(String),
    /// A checkpoint or output file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// What was being attempted.
        op: &'static str,
        /// The OS error.
        detail: String,
    },
    /// A checkpoint file failed validation: bad header, bad checksum on a
    /// complete line, malformed record, or impossible field values.
    Corrupt {
        /// Path of the checkpoint.
        path: String,
        /// 1-based line number of the offending line.
        line: usize,
        /// What exactly failed.
        detail: String,
    },
    /// The checkpoint was written by a different sweep specification.
    SpecMismatch {
        /// Spec hash the resume expected (from the spec being resumed).
        expected: u64,
        /// Spec hash recorded in the checkpoint header.
        found: u64,
    },
    /// The sweep stopped early — a checkpoint write failed mid-run, or a
    /// chaos kill fired. Every job that completed before the abort is
    /// durable in the checkpoint and a later `--resume` picks up from
    /// there.
    Aborted {
        /// What triggered the abort.
        reason: String,
        /// Jobs durably completed (including prior checkpointed ones).
        completed: usize,
    },
}

impl SweepError {
    /// Stable machine-readable kind, mirroring [`JobError::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            SweepError::Config(_) => "config",
            SweepError::Io { .. } => "io",
            SweepError::Corrupt { .. } => "corrupt",
            SweepError::SpecMismatch { .. } => "spec-mismatch",
            SweepError::Aborted { .. } => "aborted",
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Config(detail) => write!(f, "invalid sweep: {detail}"),
            SweepError::Io { path, op, detail } => write!(f, "cannot {op} {path}: {detail}"),
            SweepError::Corrupt { path, line, detail } => {
                write!(f, "corrupt checkpoint {path}:{line}: {detail}")
            }
            SweepError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a different sweep spec \
                 (want {expected:016x}, found {found:016x}); refusing to resume"
            ),
            SweepError::Aborted { reason, completed } => write!(
                f,
                "sweep aborted after {completed} completed job(s): {reason}; \
                 completed jobs are checkpointed and resumable"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// 64-bit FNV-1a: the checksum guarding every checkpoint line. Chosen
/// over CRC32 for being table-free and over anything cryptographic
/// because the threat model is torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a spec's canonical form; binds a checkpoint to its grid.
pub fn spec_hash(spec: &SweepSpec) -> u64 {
    fnv1a64(spec.canonical().as_bytes())
}

// ---------------------------------------------------------------------------
// Line sealing: `{"crc":"<16 hex>",<body>` where the checksum covers every
// byte of `<body>` (which runs to the closing `}`). The fixed-width prefix
// makes validation independent of JSON parsing: a flipped bit anywhere in
// the line is caught before the record is even looked at.
// ---------------------------------------------------------------------------

const CRC_PREFIX: &str = "{\"crc\":\"";
const CRC_LEN: usize = 16;

/// Seals a JSON object (serialized without a `crc` field) into a
/// checkpoint line, checksum first.
fn seal(object_json: &str) -> String {
    debug_assert!(object_json.starts_with('{') && object_json.ends_with('}'));
    let body = &object_json[1..];
    format!("{CRC_PREFIX}{:016x}\",{body}", fnv1a64(body.as_bytes()))
}

/// Validates a sealed line and returns its body (the object minus the crc
/// field, with the leading `{` restored).
fn unseal(line: &str) -> Result<String, String> {
    let rest = line.strip_prefix(CRC_PREFIX).ok_or("missing crc prefix")?;
    if rest.len() < CRC_LEN + 2 {
        return Err("line shorter than a sealed record".into());
    }
    // A multi-byte character across the field's end is a malformed
    // field, not a panic.
    let (hex, tail) = rest.split_at_checked(CRC_LEN).ok_or("crc field is not hex")?;
    let want = u64::from_str_radix(hex, 16).map_err(|_| "crc field is not hex".to_string())?;
    let body = tail.strip_prefix("\",").ok_or("malformed crc field terminator")?;
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: line says {want:016x}, content hashes to {got:016x}"
        ));
    }
    Ok(format!("{{{body}"))
}

// ---------------------------------------------------------------------------
// A minimal strict JSON reader — just enough to parse what the sealed
// writer above produces (objects, strings with JsonBuilder's escapes,
// unsigned integers, floats, booleans, null). Anything else is an error,
// which is exactly what a checkpoint validator wants.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Jv {
    /// Object, in source order.
    Obj(Vec<(String, Jv)>),
    /// Array.
    Arr(Vec<Jv>),
    /// String.
    Str(String),
    /// Unsigned integer (the writer only emits `u64` integers).
    U(u64),
    /// Float.
    F(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Jv {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Jv> {
        match self {
            Jv::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Jv::U(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Jv::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Jv, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Jv::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Jv::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Jv::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Jv::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Jv::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Jv::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Jv::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Jv::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            let mut float = false;
            while *pos < b.len() {
                match b[*pos] {
                    b'0'..=b'9' | b'-' | b'+' => *pos += 1,
                    b'.' | b'e' | b'E' => {
                        float = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
            if float {
                text.parse().map(Jv::F).map_err(|_| format!("bad float {text:?}"))
            } else if let Ok(n) = text.parse::<u64>() {
                Ok(Jv::U(n))
            } else {
                text.parse().map(Jv::F).map_err(|_| format!("bad number {text:?}"))
            }
        }
        _ => Err(format!("unexpected byte at offset {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".to_string());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

/// On-disk attribution keys, in [`Cat::ALL`](mtsim_core::Cat::ALL)
/// order. Persisted, so they keep the field names they were first
/// written with rather than the result table's category names.
const ATTR_KEYS: [&str; 7] =
    ["busy", "switch_overhead", "memory_stall", "lock_spin", "barrier_wait", "idle", "issue_idle"];

fn stats_from(jv: &Jv) -> Result<RunStats, String> {
    let mut stats = RunStats::default();
    for (name, stat) in STATS {
        if let Stat::Field { set, .. } = stat {
            let value = jv
                .get(name)
                .and_then(Jv::as_u64)
                .ok_or_else(|| format!("stats: missing or non-integer stat {name:?}"))?;
            set(&mut stats, value);
        }
    }
    Ok(stats)
}

fn attr_from(jv: &Jv) -> Result<AttrSummary, String> {
    let mut totals = [0; 7];
    for (slot, key) in totals.iter_mut().zip(ATTR_KEYS) {
        *slot = match jv.get(key).and_then(Jv::as_u64) {
            Some(v) => v,
            // Absent in pre-SMT checkpoints: those runs were
            // single-issue, so no slots went unfilled.
            None if key == "issue_idle" => 0,
            None => return Err(format!("missing attr {key:?}")),
        };
    }
    Ok(AttrSummary::from_totals(totals))
}

/// The checkpoint header line (line 1 of the stream).
pub(crate) fn header_line(spec_hash: u64, total: usize) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("schema").string(CKPT_SCHEMA);
    j.key("spec").string(&format!("{spec_hash:016x}"));
    j.key("total").u64(total as u64);
    j.end();
    seal(&j.finish())
}

/// One persisted job record.
pub(crate) fn record_line(seq: u64, o: &JobOutcome) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("seq").u64(seq);
    j.key("id").u64(o.spec.id as u64);
    j.key("attempts").u64(u64::from(o.attempts));
    match &o.result {
        Ok(stats) => {
            j.key("status").string("ok");
            j.key("stats").begin_object();
            for (name, stat) in STATS {
                if let Stat::Field { get, .. } = stat {
                    j.key(name).u64(get(stats));
                }
            }
            j.end();
            if let Some(a) = &o.attr {
                j.key("attr").begin_object();
                for (key, (_, cycles)) in ATTR_KEYS.iter().zip(a.by_cat()) {
                    j.key(key).u64(cycles);
                }
                j.end();
            }
            if let Some(op) = &o.opt {
                j.key("opt").begin_object();
                j.key("grouped_loads").u64(op.grouped_loads);
                j.key("groups").u64(op.groups);
                j.end();
            }
        }
        Err(e) => {
            j.key("status").string(if o.quarantined { "quarantined" } else { "error" });
            j.key("error_kind").string(e.kind());
            j.key("error").string(e.message());
        }
    }
    j.end();
    seal(&j.finish())
}

/// A validated checkpoint record: which job finished and with what result.
#[derive(Debug, Clone)]
pub struct CkptRecord {
    /// Append sequence number (completion order; informational).
    pub seq: u64,
    /// Grid-point id (the key used to merge on resume).
    pub id: usize,
    /// Attempts the job took (1 = first try).
    pub attempts: u32,
    /// Whether the job was quarantined after exhausting retries.
    pub quarantined: bool,
    /// The persisted result.
    pub result: Result<RunStats, JobError>,
    /// Persisted cycle attribution, when the sweep ran with `attr`.
    pub attr: Option<AttrSummary>,
    /// Persisted optimizer statistics, when the point pinned an explicit
    /// opt level.
    pub opt: Option<OptCols>,
}

fn record_from(jv: &Jv) -> Result<CkptRecord, String> {
    let seq = jv.get("seq").and_then(Jv::as_u64).ok_or("missing seq")?;
    let id = jv.get("id").and_then(Jv::as_u64).ok_or("missing id")? as usize;
    let attempts = jv.get("attempts").and_then(Jv::as_u64).unwrap_or(1) as u32;
    let status = jv.get("status").and_then(Jv::as_str).ok_or("missing status")?;
    let (result, quarantined) = match status {
        "ok" => (Ok(stats_from(jv.get("stats").ok_or("missing stats")?)?), false),
        "error" | "quarantined" => {
            let kind = jv.get("error_kind").and_then(Jv::as_str).ok_or("missing error_kind")?;
            let message =
                jv.get("error").and_then(Jv::as_str).ok_or("missing error message")?.to_string();
            let err = match kind {
                "verify" => JobError::Verify { message },
                "panic" => JobError::Panic { message },
                other => JobError::Sim {
                    kind: SIM_KINDS
                        .into_iter()
                        .find(|k| *k == other)
                        .ok_or_else(|| format!("unknown error kind {other:?}"))?,
                    message,
                },
            };
            (Err(err), status == "quarantined")
        }
        other => return Err(format!("unknown status {other:?}")),
    };
    let attr = jv.get("attr").map(attr_from).transpose()?;
    let opt = match jv.get("opt") {
        None => None,
        Some(o) => {
            let f = |name: &str| {
                o.get(name).and_then(Jv::as_u64).ok_or_else(|| format!("missing opt {name:?}"))
            };
            Some(OptCols { grouped_loads: f("grouped_loads")?, groups: f("groups")? })
        }
    };
    Ok(CkptRecord { seq, id, attempts, quarantined, result, attr, opt })
}

/// A loaded, fully validated checkpoint stream.
#[derive(Debug)]
pub struct Checkpoint {
    /// Spec hash from the header.
    pub spec_hash: u64,
    /// Grid size from the header.
    pub total: usize,
    /// Validated records keyed by job id (later records win, so a record
    /// re-appended after a torn-tail recovery supersedes nothing — the
    /// torn copy was never valid).
    pub records: HashMap<usize, CkptRecord>,
    /// Whether a torn tail (partial final line, the crash signature) was
    /// discarded.
    pub torn_tail: bool,
    /// Byte length of the valid prefix; resume truncates the file here
    /// before appending.
    pub valid_bytes: u64,
}

/// Loads and validates a checkpoint stream.
///
/// # Errors
///
/// * [`SweepError::Io`] when the file cannot be read;
/// * [`SweepError::Corrupt`] for a bad header, a checksum mismatch or
///   malformed record on any *complete* (newline-terminated) line, or
///   field values that cannot belong to the declared grid.
///
/// A torn tail is *not* an error: it is reported via
/// [`Checkpoint::torn_tail`] and excluded from `valid_bytes`.
pub fn load_checkpoint(path: &str) -> Result<Checkpoint, SweepError> {
    let bytes = std::fs::read(path).map_err(|e| SweepError::Io {
        path: path.to_string(),
        op: "read checkpoint",
        detail: e.to_string(),
    })?;
    let corrupt =
        |line: usize, detail: String| SweepError::Corrupt { path: path.to_string(), line, detail };

    // Split into complete (newline-terminated) lines plus an optional torn
    // tail. Only the torn tail is forgiven; complete lines must validate.
    let mut complete: Vec<&[u8]> = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            complete.push(&bytes[start..i]);
            start = i + 1;
        }
    }
    let torn_tail = start < bytes.len();
    let valid_bytes = start as u64;

    if complete.is_empty() {
        return Err(corrupt(1, "missing header line".into()));
    }

    let mut header = None;
    let mut records: HashMap<usize, CkptRecord> = HashMap::new();
    for (i, raw) in complete.iter().enumerate() {
        let lineno = i + 1;
        let text = std::str::from_utf8(raw)
            .map_err(|_| corrupt(lineno, "line is not valid utf-8".into()))?;
        let body = unseal(text).map_err(|e| corrupt(lineno, e))?;
        let jv = parse_json(&body).map_err(|e| corrupt(lineno, e))?;
        if i == 0 {
            let schema = jv.get("schema").and_then(Jv::as_str).unwrap_or("");
            if schema != CKPT_SCHEMA {
                return Err(corrupt(1, format!("unknown schema {schema:?}")));
            }
            let spec = jv
                .get("spec")
                .and_then(Jv::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| corrupt(1, "missing spec hash".into()))?;
            let total = jv
                .get("total")
                .and_then(Jv::as_u64)
                .ok_or_else(|| corrupt(1, "missing total".into()))?;
            header = Some((spec, total as usize));
        } else {
            let record = record_from(&jv).map_err(|e| corrupt(lineno, e))?;
            let total = header.expect("header parsed first").1;
            if record.id >= total {
                return Err(corrupt(
                    lineno,
                    format!("job id {} out of range for a {total}-point grid", record.id),
                ));
            }
            records.insert(record.id, record);
        }
    }
    let (spec_hash, total) = header.expect("checked non-empty");
    Ok(Checkpoint { spec_hash, total, records, torn_tail, valid_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_unseal_roundtrip_and_tamper_detection() {
        let line = seal(r#"{"seq":3,"id":7}"#);
        assert!(line.starts_with(CRC_PREFIX));
        let body = unseal(&line).unwrap();
        assert_eq!(body, r#"{"seq":3,"id":7}"#);
        // Any single-byte change must be caught.
        let mut tampered = line.clone().into_bytes();
        let last = tampered.len() - 3;
        tampered[last] ^= 1;
        let tampered = String::from_utf8(tampered).unwrap();
        assert!(unseal(&tampered).unwrap_err().contains("checksum mismatch"));
        assert!(unseal("garbage").unwrap_err().contains("crc prefix"));
    }

    #[test]
    fn a_character_across_the_crc_field_end_is_corrupt_not_a_panic() {
        // `é` is two bytes; 15 hex digits put it across byte 16.
        let line = "{\"crc\":\"000000000000000\u{e9}\",\"schema\":\"x\"}\n";
        assert_eq!(unseal(line.trim_end()).unwrap_err(), "crc field is not hex");
        let path =
            std::env::temp_dir().join(format!("mtsim-ckpt-crc-char-{}.jsonl", std::process::id()));
        std::fs::write(&path, line).unwrap();
        let err = load_checkpoint(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(&err, SweepError::Corrupt { line: 1, detail, .. } if detail == "crc field is not hex"),
            "{err}"
        );
    }

    #[test]
    fn json_parser_handles_writer_output() {
        let jv = parse_json(r#"{"a":1,"b":"x\ny","c":[1,2],"d":{"e":true},"f":0.5}"#).unwrap();
        assert_eq!(jv.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(jv.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(jv.get("c"), Some(&Jv::Arr(vec![Jv::U(1), Jv::U(2)])));
        assert_eq!(jv.get("d").unwrap().get("e"), Some(&Jv::Bool(true)));
        assert_eq!(jv.get("f"), Some(&Jv::F(0.5)));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{unquoted:1}").is_err());
    }

    #[test]
    fn escaped_strings_roundtrip_through_seal_and_parse() {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.key("msg").string("a\"b\\c\nd\u{1}e");
        j.end();
        let line = seal(&j.finish());
        let jv = parse_json(&unseal(&line).unwrap()).unwrap();
        assert_eq!(jv.get("msg").unwrap().as_str(), Some("a\"b\\c\nd\u{1}e"));
    }
}
