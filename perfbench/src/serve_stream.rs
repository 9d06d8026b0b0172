//! `serve-stream`: an in-process `mtsim_serve::Server` on loopback and
//! one client in a closed loop over one connection. The client submits a
//! seeded sequence of small paper-app specs, polls each job until it is
//! done and fetches its results. The server's artifact cache is warm, so
//! each job costs engine runs, checkpoint appends and HTTP requests.
//! Set-up binds a server and fills an artifact cache for the pool; the
//! server the client talks to is the only one left running.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtsim_apps::AppKind;
use mtsim_serve::{ServeConfig, Server};
use mtsim_sweep::checkpoint::{fnv1a64, parse_json, Jv};
use mtsim_sweep::{
    run_sweep, spec_hash, ArtifactCache, JobOutcome, StreamWriter, SweepOpts, SweepSpec,
};

use crate::layered::{interleaved, Counters, Layers};
use crate::trace::Tracer;
use crate::{Args, Report};

/// The paper's seven apps; the pool holds one spec per app.
const APPS: [AppKind; 7] = [
    AppKind::Sieve,
    AppKind::Blkmat,
    AppKind::Sor,
    AppKind::Ugray,
    AppKind::Water,
    AppKind::Locus,
    AppKind::Mp3d,
];
/// Each round submits every pool spec once, in a seeded order; a pass is
/// this many rounds (105 jobs, so the p90 has ten samples beyond it).
const ROUNDS: usize = 15;
/// Sleep between two status polls of a running job.
const POLL: Duration = Duration::from_millis(1);
/// Timed passes per run, at least.
const MIN_REPS: usize = 1;

/// The pool spec for one app: 24 small-scale points.
fn spec_text(app: AppKind) -> String {
    format!(
        "apps = {app}\nmodels = switch-on-load,explicit-switch,conditional-switch\n\
         procs = 2\nthreads = 1-8\nscale = small\n"
    )
}

/// The seeded submission sequence: `ROUNDS` shuffles of the pool.
fn sequence(seed: u64) -> Vec<AppKind> {
    let mut state = seed;
    let mut out = Vec::with_capacity(ROUNDS * APPS.len());
    for _ in 0..ROUNDS {
        let mut round = APPS;
        for i in (1..round.len()).rev() {
            let j = (crate::splitmix(&mut state) % (i as u64 + 1)) as usize;
            round.swap(i, j);
        }
        out.extend(round);
    }
    out
}

/// A minimal HTTP/1.1 client over one persistent connection.
struct Client {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client { conn, buf: Vec::new() })
    }

    /// Sends one request; returns the status and body. A status outside
    /// 2xx is an error.
    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Vec<u8>, String> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.conn.write_all(req.as_bytes()).map_err(|e| format!("{method} {path}: {e}"))?;
        let (status, reply) = self.read_response().map_err(|e| format!("{method} {path}: {e}"))?;
        if !(200..300).contains(&status) {
            return Err(format!(
                "{method} {path}: status {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(reply)
    }

    fn read_response(&mut self) -> Result<(u16, Vec<u8>), String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(|e| e.to_string())?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line in {head:?}"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(|v| v.trim().to_string())
                    })
                    .and_then(|v| v.parse().ok())
                    .ok_or("response without content-length")?;
                let need = end + 4 + len;
                while self.buf.len() < need {
                    self.fill(&mut chunk)?;
                }
                let body = self.buf[end + 4..need].to_vec();
                self.buf.drain(..need);
                return Ok((status, body));
            }
            self.fill(&mut chunk)?;
        }
    }

    fn fill(&mut self, chunk: &mut [u8]) -> Result<(), String> {
        match self.conn.read(chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn json(&mut self, method: &str, path: &str, body: &str) -> Result<Jv, String> {
        let reply = self.call(method, path, body)?;
        parse_json(&String::from_utf8_lossy(&reply))
    }
}

fn field_u64(v: &Jv, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Jv::as_u64).ok_or_else(|| format!("reply without {key:?}"))
}

/// One job through the service: submit, poll until done, fetch results.
/// Returns the result table.
fn job(client: &mut Client, tr: &mut Tracer, spec: &str) -> Result<String, String> {
    let open = tr.begin("serve.job");
    let submitted = tr.span("serve.submit", || client.json("POST", "/v1/sweeps", spec))?;
    let id = field_u64(&submitted, "id")?;
    loop {
        let status =
            tr.span("serve.poll", || client.json("GET", &format!("/v1/sweeps/{id}"), ""))?;
        match status.get("state").and_then(Jv::as_str) {
            Some("done") => break,
            Some("queued" | "running") => std::thread::sleep(POLL),
            other => return Err(format!("job {id} ended {other:?}")),
        }
    }
    let table =
        tr.span("serve.results", || client.call("GET", &format!("/v1/sweeps/{id}/results"), ""))?;
    tr.end(open);
    String::from_utf8(table).map_err(|e| e.to_string())
}

/// Rows, failed rows and simulated cycles from a result table's summary.
fn summary(table: &str) -> Result<[u64; 3], String> {
    let v = parse_json(table)?;
    let s = v.get("summary").ok_or("result table without summary")?;
    Ok([field_u64(s, "total")?, field_u64(s, "failed")?, field_u64(s, "sim_cycles")?])
}

/// The pool's specs, one per app in [`APPS`] order.
fn pool() -> Result<Vec<SweepSpec>, String> {
    APPS.iter().map(|&app| SweepSpec::parse_file(&spec_text(app))).collect()
}

/// Binds a server on a loopback port with a fresh state directory.
fn bind(dir: &Path, workers: usize) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: Some(workers),
        state_dir: dir.to_string_lossy().into_owned(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot bind server: {e}"))
}

/// The set-up: bind a server, and fill a fresh artifact cache for the
/// pool, the lookups a server's first jobs make. Both are dropped again,
/// so set-up can be repeated without leaving servers behind.
fn setup(dir: &Path, pool: &[SweepSpec], workers: usize) -> Result<(), String> {
    let server = bind(dir, workers)?;
    drop(crate::fill_cache(pool.iter().flat_map(SweepSpec::expand)));
    drop(server);
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

/// Binds a server with a fresh state directory, starts it, connects, and
/// warms its artifact cache with every pool spec.
fn start(dir: &Path, workers: usize) -> Result<Client, String> {
    let server = bind(dir, workers)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The server serves until the process exits; it holds no work then.
    std::thread::Builder::new()
        .name("perfbench-serve".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(addr)?;
    let mut off = Tracer::new(false);
    for app in APPS {
        let [_, failed, _] = summary(&job(&mut client, &mut off, &spec_text(app))?)?;
        if failed > 0 {
            return Err(format!("warm-up spec for {app} had {failed} failed points"));
        }
    }
    Ok(client)
}

/// Cache and machine-reuse counters from `GET /v1/stats`.
fn stats(client: &mut Client) -> Result<[u64; 3], String> {
    let v = client.json("GET", "/v1/stats", "")?;
    let cache = v.get("cache").ok_or("stats without cache")?;
    Ok([field_u64(cache, "hits")?, field_u64(cache, "misses")?, field_u64(&v, "machine_reuses")?])
}

/// One client pass over the sequence: per-job latency in ms and table.
type Pass = Vec<(f64, Result<String, String>)>;

/// Runs the jobs of `seq` one after another, calling `between` after each.
fn pass(
    client: &mut Client,
    tr: &mut Tracer,
    seq: &[AppKind],
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let mut out = Vec::with_capacity(seq.len());
    for &app in seq {
        let t = Instant::now();
        let r = job(client, tr, &spec_text(app));
        out.push((t.elapsed().as_secs_f64() * 1e3, r));
        between()?;
    }
    Ok(out)
}

/// What one pass produced.
struct Checked {
    digest: u64,
    attempted: u64,
    failed: u64,
    sim_cycles: u64,
}

/// Sums a pass's result tables; a job that failed outright counts as one
/// failed point.
fn check(pass: &Pass) -> Checked {
    let mut text = String::new();
    let (mut attempted, mut failed, mut sim_cycles) = (0, 0, 0);
    for (_, r) in pass {
        match r.as_deref().map_err(String::clone).and_then(|t| summary(t).map(|s| (t, s))) {
            Ok((table, [rows, bad, cycles])) => {
                text.push_str(table);
                attempted += rows;
                failed += bad;
                sim_cycles += cycles;
            }
            Err(e) => {
                eprintln!("serve-stream: job failed: {e}");
                attempted += 1;
                failed += 1;
            }
        }
    }
    Checked { digest: fnv1a64(text.as_bytes()), attempted, failed, sim_cycles }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let workers = crate::workers();
    let root = crate::out_dir()?.join(format!("serve-{}", std::process::id()));
    let pool = pool()?;
    let mut client = start(&root.join("state"), workers)?;
    let seq = sequence(args.seed);
    let report = if args.trace {
        traced(args, &mut client, &seq, &pool, &root)
    } else {
        let clock = crate::SetupClock::new(|| setup(&root.join("setup"), &pool, workers));
        untraced(args, &mut client, &seq, clock, workers)
    };
    let _ = std::fs::remove_dir_all(&root);
    report
}

fn untraced(
    args: &Args,
    client: &mut Client,
    seq: &[AppKind],
    mut clock: crate::SetupClock<impl FnMut() -> Result<(), String>>,
    workers: usize,
) -> Result<Report, String> {
    let mut off = Tracer::new(false);
    let reps = crate::timed_reps(args.seconds, MIN_REPS, || {
        pass(client, &mut off, seq, || clock.sample())
    })?;
    let setup_s = clock.median()?;
    let job_ms: Vec<Vec<f64>> =
        reps.iter().map(|pass| pass.iter().map(|(ms, _)| *ms).collect()).collect();
    let walls = crate::walls_s(&job_ms);
    let latencies_ms = job_ms.concat();
    let checks: Vec<Checked> = reps.iter().map(check).collect();
    let attempted: u64 = checks.iter().map(|c| c.attempted).sum();
    let failed: u64 = checks.iter().map(|c| c.failed).sum();
    eprintln!(
        "serve-stream: {} jobs x {} passes on {workers} workers, walls {walls:.3?} s, digest {:016x}",
        seq.len(),
        reps.len(),
        checks[0].digest
    );
    let metrics = [
        ("setup_s", setup_s),
        ("wall_s", crate::rep_wall_s(&job_ms)),
        ("job_latency_p50_ms", crate::median(&latencies_ms)),
        ("job_latency_p90_ms", crate::percentile(&latencies_ms, 90.0)),
        ("sim_cycles", checks[0].sim_cycles as f64),
        ("peak_rss_mb", crate::peak_rss_mb()?),
        ("ok_rate", 1.0 - failed as f64 / attempted as f64),
    ];
    Ok(Report {
        correct: failed == 0 && checks.iter().all(|c| c.digest == checks[0].digest),
        attempted,
        failed,
        digest: checks[0].digest,
        metrics: metrics.into_iter().collect(),
    })
}

/// One job's points through the layers as the server runs them: each
/// point on the engine with its row appended to a checkpoint, then the
/// result table. Returns the wall ms, the table, the failed points and
/// the checkpoint's bytes.
fn layered_job(
    layers: &mut Layers,
    spec: &SweepSpec,
    ckpt: &Path,
) -> Result<(f64, String, u64, u64), String> {
    let jobs = spec.expand();
    let ckpt_path = ckpt.to_string_lossy().into_owned();
    let t = Instant::now();
    let open = layers.tr.begin("sweep.checkpoint_append");
    let writer = StreamWriter::create(&ckpt_path, spec_hash(spec), jobs.len());
    layers.tr.end(open);
    let mut writer = writer.map_err(|e| e.to_string())?;
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut failed = 0;
    for job in jobs {
        let open = layers.tr.begin("bench.point");
        let art = layers.artifact(&job);
        let outcome = JobOutcome::once(job, layers.run(&art, job.config(), false));
        failed += u64::from(outcome.result.is_err());
        let appended = layers.tr.span("sweep.checkpoint_append", || writer.append(&outcome));
        appended.map_err(|e| e.to_string())?;
        outcomes.push(outcome);
        layers.tr.end(open);
    }
    drop(writer);
    let table = crate::table(outcomes);
    let text = layers.tr.span("sweep.results_json", || table.results_json() + "\n");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(ckpt).map_err(|e| e.to_string())?.len();
    std::fs::remove_file(ckpt).map_err(|e| e.to_string())?;
    Ok((ms, text, failed, bytes))
}

/// The traced pass: one client pass with spans around each request;
/// then, job by job, the same points through the layers twice, once
/// untraced and once under spans (engine, verify, checkpoint appends,
/// result table), and the same spec through `run_sweep` on one worker,
/// streaming its checkpoint as the server does. The two layered runs
/// time the same code, so their ratio is the cost of the spans;
/// `run_sweep` against the layers' self time is the sweep layer's own
/// overhead.
fn traced(
    args: &Args,
    client: &mut Client,
    seq: &[AppKind],
    pool: &[SweepSpec],
    root: &Path,
) -> Result<Report, String> {
    let spec_of = |app: AppKind| &pool[APPS.iter().position(|&a| a == app).expect("pool app")];

    // Warm both layered passes' artifacts and a sweep cache like the
    // server's, outside the spans.
    let (mut off, mut on) = (Layers::new(Tracer::new(false)), Layers::new(Tracer::new(false)));
    let cache = Arc::new(ArtifactCache::new());
    let opts = SweepOpts { workers: Some(1), cache: Some(cache), ..SweepOpts::default() };
    for spec in pool {
        for job in spec.expand() {
            drop((off.artifact(&job), on.artifact(&job)));
        }
        run_sweep(spec, &opts).map_err(|e| e.to_string())?;
    }
    on.tr = Tracer::new(true);
    on.c = Counters::default();

    let before = stats(client)?;
    let served = check(&pass(client, &mut on.tr, seq, || Ok(()))?);
    let after = stats(client)?;

    let ckpt = root.join("bench.jsonl");
    let (mut off_text, mut on_text) = (String::new(), String::new());
    let (mut layered_failed, mut ckpt_bytes) = (0, 0);
    let (mut off_ms, mut on_ms, mut sweep_ms) = (0.0, 0.0, 0.0);
    for (i, &app) in seq.iter().enumerate() {
        let spec = spec_of(app);
        let (untraced, traced) =
            interleaved(i, &mut off, &mut on, |layers| layered_job(layers, spec, &ckpt));
        let (ms, table, failed, _) = untraced?;
        (off_ms, layered_failed) = (off_ms + ms, layered_failed + failed);
        off_text.push_str(&table);
        let (ms, table, failed, bytes) = traced?;
        (on_ms, layered_failed, ckpt_bytes) =
            (on_ms + ms, layered_failed + failed, ckpt_bytes + bytes);
        on_text.push_str(&table);

        let t = Instant::now();
        let opts = SweepOpts { stream: Some(ckpt.to_string_lossy().into_owned()), ..opts.clone() };
        run_sweep(spec, &opts).map_err(|e| e.to_string())?;
        sweep_ms += t.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_file(&ckpt).map_err(|e| e.to_string())?;
    }
    let digests = [served.digest, fnv1a64(off_text.as_bytes()), fnv1a64(on_text.as_bytes())];
    eprintln!(
        "serve-stream traced: layered {off_ms:.0} ms untraced, {on_ms:.0} ms traced, \
         run_sweep {sweep_ms:.0} ms, digests {digests:016x?}"
    );

    let mut m = crate::zero_layers();
    crate::layer_metrics(&mut m, &on);
    m.insert("sweep.checkpoint_bytes", ckpt_bytes as f64);
    m.insert("sweep.overhead_ms", sweep_ms - on.layer_self_ms());
    m.insert("sweep.cache_hits", (after[0] - before[0]) as f64);
    m.insert("sweep.cache_misses", (after[1] - before[1]) as f64);
    m.insert("sweep.machine_reuses", (after[2] - before[2]) as f64);
    m.insert("trace.overhead_frac", on_ms / off_ms - 1.0);
    crate::write_trace(&on.tr, args)?;
    let failed = served.failed + layered_failed;
    Ok(Report {
        correct: failed == 0 && digests.iter().all(|d| *d == digests[0]),
        attempted: 3 * served.attempted,
        failed,
        digest: served.digest,
        metrics: m,
    })
}
