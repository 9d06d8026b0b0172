//! The service itself: TCP accept loop, request routing, and the job
//! runner.
//!
//! Layout: one listener thread per connection (requests are tiny and
//! rare; threads are simpler to reason about than a poll loop and the
//! kernel amortizes them fine at this scale), one *single* runner thread
//! that drains the queue. Sweeps parallelize internally through the
//! worker pool, so running two sweeps at once would just fight over the
//! same cores while breaking the "a sweep owns the machine" performance
//! model — admission control happens at the queue, not the scheduler.
//!
//! Crash safety is delegated: submissions are fsync'd spec files, sweep
//! progress is the PR-6 checkpoint stream, completion is the final
//! result file. The server can be `kill -9`ed at any instant and a
//! restart resumes every unfinished job from its last durable grid
//! point ([`crate::state`] documents the commit points).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mtsim_obs::{spans_to_chrome_trace, JsonBuilder, TraceSpan};
use mtsim_sweep::{load_checkpoint, resume_sweep, run_sweep, ArtifactCache, SweepError, SweepSpec};

use crate::http::{error_response, response, HttpError, Request, RequestParser};
use crate::queue::JobQueue;
use crate::state::{write_durable, JobState, JobStore};

/// Largest accepted request body (a sweep spec is a few hundred bytes).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the kernel for a free port.
    pub addr: String,
    /// Worker threads per sweep; `None` defers to the pool default.
    pub workers: Option<usize>,
    /// State directory holding job files.
    pub state_dir: String,
    /// Maximum queued (not yet started) jobs; submissions beyond it get
    /// 429.
    pub queue_cap: usize,
    /// Artifact-cache entry cap, enforced between jobs.
    pub cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: None,
            state_dir: "mtsim-serve-state".into(),
            queue_cap: 64,
            cache_cap: 128,
        }
    }
}

/// Process-lifetime counters surfaced by `GET /v1/stats`.
#[derive(Debug, Default)]
struct Telemetry {
    requests: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
}

/// Shared server state.
struct ServeState {
    cfg: ServeConfig,
    store: Mutex<JobStore>,
    queue: Mutex<JobQueue>,
    /// Wakes the runner when the queue gains work.
    work: Condvar,
    cache: Arc<ArtifactCache>,
    stats: Telemetry,
    started: Instant,
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listener, opens the state directory, and re-enqueues
    /// every job interrupted by the previous process's death.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let (store, requeue) = JobStore::open(Path::new(&cfg.state_dir))?;
        let mut queue = JobQueue::new(cfg.queue_cap.max(requeue.len()));
        for &(id, priority) in &requeue {
            queue.push(id, priority).expect("capacity raised to fit recovered jobs");
        }
        let state = Arc::new(ServeState {
            cfg,
            store: Mutex::new(store),
            queue: Mutex::new(queue),
            work: Condvar::new(),
            cache: Arc::new(ArtifactCache::new()),
            stats: Telemetry::default(),
            started: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (authoritative when the config asked for port
    /// 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: spawns the runner thread, then accepts
    /// connections until the process dies. Crash safety, not graceful
    /// shutdown, is the contract — `kill -9` is the supported way down.
    pub fn run(self) -> std::io::Result<()> {
        let runner_state = Arc::clone(&self.state);
        std::thread::Builder::new()
            .name("mtsim-serve-runner".into())
            .spawn(move || runner_loop(&runner_state))?;
        for conn in self.listener.incoming() {
            let Ok(conn) = conn else { continue };
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("mtsim-serve-conn".into())
                .spawn(move || handle_connection(conn, &state));
        }
        Ok(())
    }
}

/// Runs queued jobs one at a time until the process dies.
fn runner_loop(state: &ServeState) {
    loop {
        let id = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(id) = queue.pop() {
                    break id;
                }
                queue = state.work.wait(queue).unwrap();
            }
        };
        run_job(state, id);
        // Bound the artifact cache between jobs, never during one: the
        // eviction scan keeps the most recently used program images hot
        // while a burst of one-off specs cannot grow memory unboundedly.
        state.cache.evict_to(state.cfg.cache_cap);
    }
}

/// Runs one job to a terminal state.
fn run_job(state: &ServeState, id: u64) {
    let (spec, ckpt_path, final_path, cancel, completed) = {
        let mut store = state.store.lock().unwrap();
        let ckpt = store.ckpt_path(id);
        let fin = store.final_path(id);
        let Some(job) = store.get_mut(id) else { return };
        // A cancel that raced the queue pop wins: never start the sweep.
        if job.cancel.load(Ordering::Relaxed) || job.state == JobState::Cancelled {
            job.state = JobState::Cancelled;
            state.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        job.state = JobState::Running;
        (job.spec.clone(), ckpt, fin, Arc::clone(&job.cancel), Arc::clone(&job.completed))
    };

    let opts = mtsim_sweep::SweepOpts {
        workers: state.cfg.workers,
        progress: false,
        stream: Some(ckpt_path.clone()),
        cache: Some(Arc::clone(&state.cache)),
        cancel: Some(cancel),
        completed: Some(completed),
        ..mtsim_sweep::SweepOpts::default()
    };

    // A checkpoint that landed its header resumes; an empty or absent
    // file starts fresh (the previous process died before the header
    // sync — nothing durable exists to resume from).
    let fresh = match std::fs::metadata(&ckpt_path) {
        Ok(m) => m.len() == 0,
        Err(_) => true,
    };
    let run = if fresh {
        let _ = std::fs::remove_file(&ckpt_path);
        let opts = mtsim_sweep::SweepOpts { stream: Some(ckpt_path.clone()), ..opts };
        run_sweep(&spec, &opts)
    } else {
        let opts = mtsim_sweep::SweepOpts { stream: None, ..opts };
        resume_sweep(&spec, &opts, &ckpt_path)
    };

    let mut store = state.store.lock().unwrap();
    let Some(job) = store.get_mut(id) else { return };
    match run {
        Ok(out) => {
            // Commit point: the final table, byte-identical to the CLI's
            // `--out` file for the same spec.
            match write_durable(Path::new(&final_path), (out.results_json() + "\n").as_bytes()) {
                Ok(()) => {
                    job.state = JobState::Done;
                    job.completed.store(job.total, Ordering::Relaxed);
                    state.stats.jobs_done.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(format!("cannot write {final_path}: {e}"));
                    state.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Err(SweepError::Aborted { reason, completed }) if reason == "cancelled" => {
            job.state = JobState::Cancelled;
            job.completed.store(completed, Ordering::Relaxed);
            state.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            job.state = JobState::Failed;
            job.error = Some(e.to_string());
            state.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-connection loop: parse, route, respond, until EOF or a framing
/// error.
fn handle_connection(mut conn: TcpStream, state: &ServeState) {
    let mut parser = RequestParser::new(MAX_BODY_BYTES);
    let mut buf = [0u8; 8 * 1024];
    loop {
        match parser.next_request() {
            Ok(Some(request)) => {
                state.stats.requests.fetch_add(1, Ordering::Relaxed);
                let reply = route(state, &request);
                if conn.write_all(&reply).is_err() {
                    return;
                }
                continue; // drain pipelined requests before reading more
            }
            Ok(None) => {}
            Err(e) => {
                let _ = conn.write_all(&framing_error_response(&e));
                return; // framing errors are unrecoverable; close
            }
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => parser.push(&buf[..n]),
        }
    }
}

fn framing_error_response(e: &HttpError) -> Vec<u8> {
    error_response(e.status(), e.message())
}

/// Routes one request to its handler.
fn route(state: &ServeState, request: &Request) -> Vec<u8> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => {
            let mut j = JsonBuilder::new();
            j.begin_object().key("ok").bool(true).end();
            response(200, "application/json", j.finish().as_bytes())
        }
        ("GET", ["v1", "stats"]) => stats(state),
        ("POST", ["v1", "sweeps"]) => submit(state, request),
        ("GET", ["v1", "sweeps", id]) => with_job_id(id, |id| status(state, id)),
        ("GET", ["v1", "sweeps", id, "results"]) => {
            with_job_id(id, |id| results(state, id, request))
        }
        ("GET", ["v1", "sweeps", id, "trace"]) => with_job_id(id, |id| trace(state, id)),
        ("POST", ["v1", "sweeps", id, "cancel"]) => with_job_id(id, |id| cancel(state, id)),
        ("GET" | "POST", _) => error_response(404, "no such endpoint"),
        _ => error_response(405, "only GET and POST are supported"),
    }
}

fn with_job_id(raw: &str, f: impl FnOnce(u64) -> Vec<u8>) -> Vec<u8> {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => error_response(400, &format!("bad job id {raw:?}")),
    }
}

/// `POST /v1/sweeps`: body is a spec file (the same format `mtsim sweep
/// --spec` reads); optional `?priority=N` (0–9, default 0; higher runs
/// first).
fn submit(state: &ServeState, request: &Request) -> Vec<u8> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_response(400, "spec body is not valid utf-8");
    };
    let spec = match SweepSpec::parse_file(text) {
        Ok(spec) => spec,
        Err(e) => return error_response(400, &format!("bad spec: {e}")),
    };
    if let Err(e) = spec.validate() {
        return error_response(400, &format!("bad spec: {e}"));
    }
    let priority: u8 = match request.query_get("priority").unwrap_or("0").parse() {
        Ok(p) if p <= 9 => p,
        _ => return error_response(400, "priority must be an integer in 0..=9"),
    };

    // Admission check first so a full queue never allocates an id or
    // touches the disk.
    {
        let queue = state.queue.lock().unwrap();
        if queue.len() >= state.cfg.queue_cap {
            return error_response(429, &format!("queue is full ({} jobs)", queue.len()));
        }
    }
    let mut store = state.store.lock().unwrap();
    let total = spec.len();
    let id = match store.create(spec, priority) {
        Ok(id) => id,
        Err(e) => return error_response(500, &format!("cannot persist job: {e}")),
    };
    {
        let mut queue = state.queue.lock().unwrap();
        if queue.push(id, priority).is_err() {
            // Lost an admission race; the durable spec stays on disk and
            // will re-enqueue on the next restart, so reply honestly.
            return error_response(429, "queue filled while persisting the job");
        }
    }
    state.work.notify_one();

    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("id").u64(id);
    j.key("state").string(JobState::Queued.name());
    j.key("priority").u64(priority as u64);
    j.key("total").u64(total as u64);
    j.end();
    response(201, "application/json", j.finish().as_bytes())
}

/// `GET /v1/sweeps/:id`: current state and durable progress.
fn status(state: &ServeState, id: u64) -> Vec<u8> {
    let store = state.store.lock().unwrap();
    let Some(job) = store.get(id) else {
        return error_response(404, &format!("no job {id}"));
    };
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("id").u64(job.id);
    j.key("state").string(job.state.name());
    j.key("priority").u64(job.priority as u64);
    j.key("total").u64(job.total as u64);
    j.key("completed").u64(job.completed.load(Ordering::Relaxed) as u64);
    if let Some(e) = &job.error {
        j.key("error").string(e);
    }
    j.end();
    response(200, "application/json", j.finish().as_bytes())
}

/// `GET /v1/sweeps/:id/results`: the final table once the job is done;
/// with `?from=N`, complete checkpoint lines N.. as NDJSON for
/// incremental polling (the header is line 0).
fn results(state: &ServeState, id: u64, request: &Request) -> Vec<u8> {
    let (job_state, ckpt_path, final_path) = {
        let store = state.store.lock().unwrap();
        let Some(job) = store.get(id) else {
            return error_response(404, &format!("no job {id}"));
        };
        (job.state, store.ckpt_path(id), store.final_path(id))
    };
    if let Some(from) = request.query_get("from") {
        let Ok(from) = from.parse::<usize>() else {
            return error_response(400, "from must be a non-negative integer");
        };
        // Complete (newline-terminated) lines only: a concurrent append
        // can leave a torn tail, which the next poll will pick up whole.
        let bytes = std::fs::read(&ckpt_path).unwrap_or_default();
        let complete_upto = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let body: Vec<u8> = bytes[..complete_upto]
            .split_inclusive(|&b| b == b'\n')
            .skip(from)
            .flatten()
            .copied()
            .collect();
        return response(200, "application/x-ndjson", &body);
    }
    match job_state {
        JobState::Done => match std::fs::read(&final_path) {
            Ok(bytes) => response(200, "application/json", &bytes),
            Err(e) => error_response(500, &format!("cannot read results: {e}")),
        },
        JobState::Failed | JobState::Cancelled => error_response(
            409,
            &format!("job is {}; partial rows are available via ?from=0", job_state.name()),
        ),
        JobState::Queued | JobState::Running => {
            // 202: not done yet — poll again (or stream via ?from=N).
            let mut j = JsonBuilder::new();
            j.begin_object().key("state").string(job_state.name()).end();
            response(202, "application/json", j.finish().as_bytes())
        }
    }
}

/// `POST /v1/sweeps/:id/cancel`: stops a queued or running job. The
/// cancellation is durable — a restart will not resurrect the job.
fn cancel(state: &ServeState, id: u64) -> Vec<u8> {
    let mut store = state.store.lock().unwrap();
    let Some(job) = store.get(id) else {
        return error_response(404, &format!("no job {id}"));
    };
    let reply_state = match job.state {
        JobState::Done | JobState::Failed | JobState::Cancelled => job.state,
        JobState::Queued | JobState::Running => {
            job.cancel.store(true, Ordering::Relaxed);
            if let Err(e) = store.persist_cancel(id) {
                return error_response(500, &format!("cannot persist cancellation: {e}"));
            }
            // A queued job cancels immediately; a running one flips state
            // when the sweep unwinds (its workers observe the token at
            // the next job boundary).
            let was_queued = state.queue.lock().unwrap().remove(id);
            let job = store.get_mut(id).expect("job existed above");
            if was_queued {
                job.state = JobState::Cancelled;
                state.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            job.state
        }
    };
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("id").u64(id);
    j.key("state").string(reply_state.name());
    j.end();
    response(200, "application/json", j.finish().as_bytes())
}

/// `GET /v1/sweeps/:id/trace`: the job's durable grid points rendered as
/// a Perfetto timeline — one slice per completed job in completion
/// (checkpoint `seq`) order, sized by simulated cycles, on ok/failed
/// tracks.
fn trace(state: &ServeState, id: u64) -> Vec<u8> {
    let ckpt_path = {
        let store = state.store.lock().unwrap();
        if store.get(id).is_none() {
            return error_response(404, &format!("no job {id}"));
        }
        store.ckpt_path(id)
    };
    let ckpt = match load_checkpoint(&ckpt_path) {
        Ok(c) => c,
        Err(e) => return error_response(409, &format!("no usable checkpoint: {e}")),
    };
    let mut records: Vec<_> = ckpt.records.into_values().collect();
    records.sort_by_key(|r| r.seq);
    let mut at = 0u64;
    let mut spans = Vec::with_capacity(records.len());
    for r in records {
        let (track, dur) = match &r.result {
            Ok(stats) => ("ok", stats.cycles.max(1)),
            Err(_) => ("failed", 1),
        };
        spans.push(TraceSpan {
            name: format!("job {}", r.id),
            track: track.into(),
            start: at,
            dur,
        });
        at += dur;
    }
    let json = spans_to_chrome_trace(&format!("sweep {id} (simulated cycles)"), &spans);
    response(200, "application/json", json.as_bytes())
}

/// `GET /v1/stats`: queue, job, cache, and reuse telemetry.
fn stats(state: &ServeState) -> Vec<u8> {
    let (queued, running, done, failed, cancelled) = {
        let store = state.store.lock().unwrap();
        let mut counts = (0u64, 0u64, 0u64, 0u64, 0u64);
        for job in store.jobs() {
            match job.state {
                JobState::Queued => counts.0 += 1,
                JobState::Running => counts.1 += 1,
                JobState::Done => counts.2 += 1,
                JobState::Failed => counts.3 += 1,
                JobState::Cancelled => counts.4 += 1,
            }
        }
        counts
    };
    let queue_depth = state.queue.lock().unwrap().len();
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("uptime_ms").u64(state.started.elapsed().as_millis() as u64);
    j.key("requests").u64(state.stats.requests.load(Ordering::Relaxed));
    j.key("queue").begin_object();
    j.key("depth").u64(queue_depth as u64);
    j.key("cap").u64(state.cfg.queue_cap as u64);
    j.end();
    j.key("jobs").begin_object();
    j.key("queued").u64(queued);
    j.key("running").u64(running);
    j.key("done").u64(done);
    j.key("failed").u64(failed);
    j.key("cancelled").u64(cancelled);
    j.end();
    j.key("cache").begin_object();
    j.key("entries").u64(state.cache.entries() as u64);
    j.key("cap").u64(state.cfg.cache_cap as u64);
    j.key("hits").u64(state.cache.hits());
    j.key("misses").u64(state.cache.misses());
    j.key("evictions").u64(state.cache.evictions());
    j.end();
    // Always 0: sweeps no longer recycle machine buffers. The key stays
    // for the benchmark harness that reads it; ROADMAP item 10 removes
    // it together with those call sites.
    j.key("machine_reuses").u64(0);
    j.end();
    response(200, "application/json", j.finish().as_bytes())
}
