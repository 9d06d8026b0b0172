//! In-process API tests: a real `Server` on an ephemeral port, talked to
//! over real sockets with hand-written HTTP.
//!
//! Beyond endpoint behavior, one structural property is enforced
//! throughout: **every `application/json` body the server emits must
//! reparse under the strict checkpoint JSON parser**
//! (`mtsim_sweep::checkpoint::parse_json`) — the server's hand-rolled
//! JSON never gets to drift from what the rest of the workspace can
//! read.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mtsim_serve::{ServeConfig, Server};
use mtsim_sweep::checkpoint::parse_json;
use mtsim_sweep::{run_sweep, SweepOpts, SweepSpec};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtsim-serve-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(state_dir: &std::path::Path, queue_cap: usize) -> SocketAddr {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: Some(2),
        state_dir: state_dir.to_string_lossy().into_owned(),
        queue_cap,
        cache_cap: 16,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    addr
}

/// One response off the wire: status, content-type, body.
struct Reply {
    status: u16,
    content_type: String,
    body: Vec<u8>,
}

impl Reply {
    /// The body as text, asserting it reparses under the strict JSON
    /// parser whenever the server labeled it JSON.
    fn text(&self) -> String {
        let text = String::from_utf8(self.body.clone()).expect("utf-8 body");
        if self.content_type == "application/json" {
            parse_json(text.trim_end()).unwrap_or_else(|e| {
                panic!("server emitted unparseable JSON ({e}): {text}");
            });
        }
        text
    }
}

/// Reads exactly one response: the head a byte at a time and then the
/// declared body, so a pipelined reply behind it stays in the socket for
/// the next call.
fn read_reply(conn: &mut TcpStream) -> Reply {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = conn.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed mid-head: {:?}", String::from_utf8_lossy(&raw));
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("content-type: "))
        .unwrap_or("")
        .trim()
        .to_string();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("response must declare content-length");
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body).expect("connection closed mid-body");
    Reply { status, content_type, body }
}

fn send(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw).expect("write request");
    read_reply(&mut conn)
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    send(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    send(
        addr,
        format!("POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len())
            .as_bytes(),
    )
}

const TINY_SPEC: &str =
    "apps=sieve\nmodels=switch-on-load,explicit-switch\nprocs=2\nthreads=1,2\nscale=tiny\n";

fn field_u64(json: &str, key: &str) -> u64 {
    parse_json(json.trim_end())
        .unwrap()
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("missing {key} in {json}"))
}

fn field_str(json: &str, key: &str) -> String {
    parse_json(json.trim_end())
        .unwrap()
        .get(key)
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("missing {key} in {json}"))
}

/// Polls the job until it leaves queued/running (or panics after 60s).
fn wait_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = field_str(&get(addr, &format!("/v1/sweeps/{id}")).text(), "state");
        if state != "queued" && state != "running" {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn healthz_and_error_paths_speak_parseable_json() {
    let dir = tmp_dir("errors");
    let addr = start(&dir, 4);
    let ok = get(addr, "/v1/healthz");
    assert_eq!(ok.status, 200);
    assert!(ok.text().contains("\"ok\":true"));

    assert_eq!(get(addr, "/v1/nonsense").status, 404);
    assert_eq!(get(addr, "/v1/sweeps/notanumber").status, 400);
    assert_eq!(get(addr, "/v1/sweeps/999").status, 404);
    assert_eq!(post(addr, "/v1/sweeps", "apps=unobtainium\n").status, 400);
    assert_eq!(post(addr, "/v1/sweeps?priority=11", TINY_SPEC).status, 400);
    let delete = send(addr, b"DELETE /v1/healthz HTTP/1.1\r\n\r\n");
    assert_eq!(delete.status, 405);
    // Each error body above went through Reply::text()'s reparse check.
    for r in [
        get(addr, "/v1/nonsense"),
        get(addr, "/v1/sweeps/notanumber"),
        post(addr, "/v1/sweeps", "bogus\n"),
    ] {
        r.text();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 44-byte spec whose range would expand to ~10^11 values: the server
/// must refuse it with a 400 instead of trying to allocate the range,
/// and keep serving.
#[test]
fn over_wide_range_spec_is_refused_and_the_server_stays_up() {
    let dir = tmp_dir("wide");
    let addr = start(&dir, 4);
    let reply = post(addr, "/v1/sweeps", "apps=sieve\nthreads=1-99999999999\nscale=tiny\n");
    assert_eq!(reply.status, 400);
    assert!(reply.text().contains("4096 values"), "{}", reply.text());
    assert_eq!(get(addr, "/v1/healthz").status, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submitted_sweep_results_are_byte_identical_to_the_library() {
    let dir = tmp_dir("identity");
    let addr = start(&dir, 4);

    let submit = post(addr, "/v1/sweeps", TINY_SPEC);
    assert_eq!(submit.status, 201, "{}", submit.text());
    let id = field_u64(&submit.text(), "id");
    assert_eq!(wait_terminal(addr, id), "done");

    let served = get(addr, &format!("/v1/sweeps/{id}/results"));
    assert_eq!(served.status, 200);
    let spec = SweepSpec::parse_file(TINY_SPEC).unwrap();
    let reference = run_sweep(&spec, &SweepOpts::default()).unwrap().results_json() + "\n";
    assert_eq!(
        String::from_utf8(served.body.clone()).unwrap(),
        reference,
        "served results must be byte-identical to the library's table"
    );

    // Incremental streaming: line 0 is the checkpoint header, then one
    // line per grid point; past-the-end reads are empty, not errors.
    let total = field_u64(&get(addr, &format!("/v1/sweeps/{id}")).text(), "total");
    let all = get(addr, &format!("/v1/sweeps/{id}/results?from=0"));
    assert_eq!(all.content_type, "application/x-ndjson");
    let lines: Vec<&str> = std::str::from_utf8(&all.body).unwrap().lines().collect();
    assert_eq!(lines.len() as u64, total + 1);
    let tail = get(addr, &format!("/v1/sweeps/{id}/results?from={}", total + 1));
    assert!(tail.body.is_empty());

    // The trace renders every grid point as a Perfetto slice.
    let trace = get(addr, &format!("/v1/sweeps/{id}/trace"));
    assert_eq!(trace.status, 200);
    let trace_text = trace.text();
    assert!(trace_text.starts_with("{\"traceEvents\":["));
    assert_eq!(trace_text.matches("\"ph\":\"X\"").count() as u64, total);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_identical_sweep_rebuilds_nothing() {
    let dir = tmp_dir("warm");
    let addr = start(&dir, 4);

    let first = field_u64(&post(addr, "/v1/sweeps", TINY_SPEC).text(), "id");
    assert_eq!(wait_terminal(addr, first), "done");
    let misses_before = {
        let stats = get(addr, "/v1/stats").text();
        let jv = parse_json(stats.trim_end()).unwrap();
        jv.get("cache").and_then(|c| c.get("misses")).and_then(|v| v.as_u64()).unwrap()
    };
    assert!(misses_before > 0, "first sweep must have built artifacts");

    let second = field_u64(&post(addr, "/v1/sweeps", TINY_SPEC).text(), "id");
    assert_eq!(wait_terminal(addr, second), "done");
    let stats = get(addr, "/v1/stats").text();
    let jv = parse_json(stats.trim_end()).unwrap();
    let misses_after =
        jv.get("cache").and_then(|c| c.get("misses")).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        misses_after, misses_before,
        "a repeated identical sweep must rebuild nothing: {stats}"
    );
    // Both jobs produced identical bytes from the shared cache.
    let a = get(addr, &format!("/v1/sweeps/{first}/results")).body;
    let b = get(addr, &format!("/v1/sweeps/{second}/results")).body;
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_admission_is_bounded() {
    let dir = tmp_dir("admission");
    // Capacity zero: every submission is rejected up front and nothing
    // touches the disk.
    let addr = start(&dir, 0);
    let reply = post(addr, "/v1/sweeps", TINY_SPEC);
    assert_eq!(reply.status, 429);
    reply.text();
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a rejected submission must not persist anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_durable() {
    let dir = tmp_dir("cancel");
    let addr = start(&dir, 8);

    // A multi-point first job occupies the single runner; the second job
    // is deterministically still queued when the cancel arrives.
    let busy_spec = "apps=sieve\nmodels=switch-on-load\nprocs=2\nthreads=2\n\
                     latencies=1,2,3,4,5,6,7,8,9,10\nseeds=1,2,3\nscale=tiny\n";
    let busy = field_u64(&post(addr, "/v1/sweeps", busy_spec).text(), "id");
    let victim = field_u64(&post(addr, "/v1/sweeps", TINY_SPEC).text(), "id");

    let reply = post(addr, &format!("/v1/sweeps/{victim}/cancel"), "");
    assert_eq!(reply.status, 200);
    assert_eq!(field_str(&reply.text(), "state"), "cancelled");
    assert_eq!(wait_terminal(addr, victim), "cancelled");
    // Results of a cancelled job: 409 without ?from, rows via ?from.
    assert_eq!(get(addr, &format!("/v1/sweeps/{victim}/results")).status, 409);
    assert_eq!(get(addr, &format!("/v1/sweeps/{victim}/results?from=0")).status, 200);

    // The busy job is unaffected.
    assert_eq!(wait_terminal(addr, busy), "done");
    // Cancelling a finished job is a no-op reporting its real state.
    let reply = post(addr, &format!("/v1/sweeps/{busy}/cancel"), "");
    assert_eq!(field_str(&reply.text(), "state"), "done");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_and_torn_requests_work_over_a_real_socket() {
    let dir = tmp_dir("pipeline");
    let addr = start(&dir, 4);

    // Two pipelined requests in one write → two responses in order.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n").unwrap();
    let first = read_reply(&mut conn);
    let second = read_reply(&mut conn);
    assert_eq!((first.status, second.status), (200, 200));
    assert!(first.text().contains("\"ok\""));
    assert!(second.text().contains("\"queue\""));

    // A request torn across writes still parses.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /v1/hea").unwrap();
    conn.flush().unwrap();
    std::thread::sleep(Duration::from_millis(10));
    conn.write_all(b"lthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_reply(&mut conn).status, 200);

    // An oversized declared body is rejected at the header.
    let mut conn = TcpStream::connect(addr).unwrap();
    let huge = mtsim_serve::MAX_BODY_BYTES + 1;
    conn.write_all(
        format!("POST /v1/sweeps HTTP/1.1\r\ncontent-length: {huge}\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let reply = read_reply(&mut conn);
    assert_eq!(reply.status, 413);
    reply.text();

    // A malformed content-length is a 400.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"POST /v1/sweeps HTTP/1.1\r\ncontent-length: nope\r\n\r\n").unwrap();
    assert_eq!(read_reply(&mut conn).status, 400);
    let _ = std::fs::remove_dir_all(&dir);
}
