//! Seeded, bounded mutation test of the HTTP framing parser, which reads
//! untrusted socket bytes. A few thousand seeded edits of valid request
//! streams are fed to `RequestParser`, split at a seeded point as a torn
//! read would split them, with `catch_unwind` around every input: the
//! parser may answer any input with an `HttpError`, but it must never
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mtsim_serve::http::RequestParser;

/// A small body cap, so mutated lengths cross it both ways.
const MAX_BODY: usize = 256;

/// Text spliced into inputs: framing delimiters, multi-byte characters,
/// and lengths at and past the caps.
const SPLICES: [&str; 20] = [
    "\r\n",
    "\r\n\r\n",
    "\r",
    "\n",
    " ",
    ":",
    "?",
    "&",
    "=",
    "\0",
    "\u{e9}",
    "\u{1f600}",
    "content-length: ",
    "Content-Length: 3\r\n",
    "transfer-encoding: chunked\r\n",
    "256",
    "257",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
];

/// Valid streams with their request counts: a bare GET, a POST with a
/// body, pipelined requests, and a query string with repeated and empty
/// keys.
const SEEDS: [(&str, usize); 4] = [
    ("GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n", 1),
    ("POST /v1/sweeps?priority=5 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\napps=sieve\n", 1),
    (
        "GET /v1/stats HTTP/1.1\r\n\r\nPOST /v1/sweeps HTTP/1.1\r\ncontent-length: 4\r\n\r\nt=2\n\
         GET /v1/sweeps/0 HTTP/1.0\r\nContent-Length: 0\r\ncontent-length: 0\r\n\r\n",
        3,
    ),
    ("GET /v1/sweeps/3/results?a=1&&b&a=2 HTTP/1.1\r\nX-Odd:  spaced : value \r\n\r\n", 1),
];

/// SplitMix64: a seeded stream of draws, enough to pick edits.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One to four seeded edits of `input`: overwrite a byte, delete a short
/// range, duplicate a short range, or insert a splice.
fn mutate(d: &mut Draws, input: &[u8]) -> Vec<u8> {
    let mut s = input.to_vec();
    for _ in 0..1 + d.below(4) {
        let at = d.below(s.len() as u64 + 1) as usize;
        let end = (at + 1 + d.below(16) as usize).min(s.len());
        match d.below(4) {
            0 if at < s.len() => s[at] = d.below(256) as u8,
            1 if at < s.len() => drop(s.drain(at..end)),
            2 if at < s.len() => {
                let dup = s[at..end].to_vec();
                s.splice(at..at, dup);
            }
            _ => {
                let splice = SPLICES[d.below(SPLICES.len() as u64) as usize];
                s.splice(at..at, splice.bytes());
            }
        }
    }
    s
}

/// Pushes `input` in two reads split at `split`, draining complete
/// requests after each, and returns how many came out before the parser
/// wanted more bytes, or `None` once it answered with an error.
fn parse(input: &[u8], split: usize) -> Option<usize> {
    let mut parser = RequestParser::new(MAX_BODY);
    let mut requests = 0;
    for part in [&input[..split], &input[split..]] {
        parser.push(part);
        loop {
            match parser.next_request() {
                Ok(Some(request)) => {
                    assert!(request.body.len() <= MAX_BODY, "body past the cap");
                    requests += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e.status(), 400 | 413), "status {}", e.status());
                    return None;
                }
            }
        }
    }
    Some(requests)
}

#[test]
fn request_framing_never_panics_on_mutated_streams() {
    for (seed, count) in SEEDS {
        for split in 0..=seed.len() {
            assert_eq!(parse(seed.as_bytes(), split), Some(count), "{seed:?} split at {split}");
        }
    }
    let mut d = Draws(0x5EED_4777);
    for i in 0..20_000 {
        let input = mutate(&mut d, SEEDS[i % SEEDS.len()].0.as_bytes());
        let split = d.below(input.len() as u64 + 1) as usize;
        if catch_unwind(AssertUnwindSafe(|| parse(&input, split))).is_err() {
            panic!("input {i} split at {split} panicked: {:?}", String::from_utf8_lossy(&input));
        }
    }
}
