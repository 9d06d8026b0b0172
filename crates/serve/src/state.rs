//! Durable job store: every submitted sweep survives a server crash.
//!
//! A job is three files in the state directory, all keyed by a numeric
//! id the store allocates:
//!
//! * `job-<id>.spec` — the spec's canonical form (itself a parseable
//!   spec file) plus a `# serve: priority=N` comment the spec parser
//!   ignores. Written fsync'd before the submission is acknowledged:
//!   once a client holds an id, the job exists.
//! * `job-<id>.jsonl` — the sweep's checkpoint stream (the PR-6
//!   crash-safe format), appended fsync'd per completed grid point.
//! * `job-<id>.json` — the final result table, byte-identical to what
//!   `mtsim sweep --out` would have written for the same spec. Its
//!   existence is the commit point: a job with a final file is done.
//!
//! Restart recovery derives everything from those files: a spec with a
//! final file is `Done`; a `job-<id>.cancelled` marker pins a
//! cancellation across restarts; anything else re-enqueues and resumes
//! from its checkpoint (or starts fresh if none landed). A job that hit
//! a sweep-level failure (e.g. an operator-corrupted checkpoint) is
//! `Failed` in memory only — after a restart it re-enqueues and retries,
//! which is the conservative reading of "no final file".

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use mtsim_sweep::{load_checkpoint, SweepSpec};

/// Lifecycle of a job. `Failed` means a *sweep-level* error (checkpoint
/// corruption, I/O); per-grid-point failures are rows in the result
/// table of a `Done` job, not a job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One submitted sweep.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub spec: SweepSpec,
    pub priority: u8,
    /// Grid size (`spec.len()`), cached for status reporting.
    pub total: usize,
    pub state: JobState,
    /// Sweep-level error message for `Failed` jobs.
    pub error: Option<String>,
    /// Cancel token shared with the running sweep.
    pub cancel: Arc<AtomicBool>,
    /// Durable completed-job count, updated live by the running sweep.
    pub completed: Arc<AtomicUsize>,
}

/// In-memory index over the state directory.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
}

impl JobStore {
    /// Opens (creating if needed) a state directory and rebuilds the job
    /// index from its files. Returns the store plus the ids that must be
    /// re-enqueued — submitted jobs that never reached their commit
    /// point, in id order so recovery preserves submission order within
    /// a priority level.
    pub fn open(dir: &Path) -> io::Result<(JobStore, Vec<(u64, u8)>)> {
        std::fs::create_dir_all(dir)?;
        let mut store = JobStore { dir: dir.to_path_buf(), jobs: BTreeMap::new(), next_id: 0 };
        let mut requeue = Vec::new();
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_prefix("job-").and_then(|n| n.strip_suffix(".spec")) {
                if let Ok(id) = id.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        for id in ids {
            let text = std::fs::read_to_string(store.spec_path(id))?;
            let spec = SweepSpec::parse_file(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("job-{id}.spec: {e}"))
            })?;
            let priority = parse_priority(&text);
            let total = spec.len();
            let done = Path::new(&store.final_path(id)).exists();
            let cancelled = Path::new(&store.cancel_marker_path(id)).exists();
            let state = match (done, cancelled) {
                (true, _) => JobState::Done,
                (false, true) => JobState::Cancelled,
                (false, false) => JobState::Queued,
            };
            // Durable progress hint for status reporting before the job
            // re-runs; a missing or damaged checkpoint just reads as 0.
            let completed = match state {
                JobState::Done => total,
                _ => load_checkpoint(&store.ckpt_path(id)).map(|c| c.records.len()).unwrap_or(0),
            };
            if state == JobState::Queued {
                requeue.push((id, priority));
            }
            store.jobs.insert(
                id,
                Job {
                    id,
                    spec,
                    priority,
                    total,
                    state,
                    error: None,
                    cancel: Arc::new(AtomicBool::new(false)),
                    completed: Arc::new(AtomicUsize::new(completed)),
                },
            );
            store.next_id = store.next_id.max(id + 1);
        }
        Ok((store, requeue))
    }

    /// Persists a new job and returns its id. The spec file is fsync'd:
    /// an acknowledged submission survives `kill -9`.
    pub fn create(&mut self, spec: SweepSpec, priority: u8) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let body = format!("{}# serve: priority={priority}\n", spec.canonical());
        write_durable(Path::new(&self.spec_path(id)), body.as_bytes())?;
        let total = spec.len();
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                priority,
                total,
                state: JobState::Queued,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
                completed: Arc::new(AtomicUsize::new(0)),
            },
        );
        Ok(id)
    }

    /// Pins a cancellation across restarts with a marker file.
    pub fn persist_cancel(&self, id: u64) -> io::Result<()> {
        write_durable(Path::new(&self.cancel_marker_path(id)), b"")
    }

    pub fn get(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(&id)
    }

    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    pub fn spec_path(&self, id: u64) -> String {
        self.dir.join(format!("job-{id}.spec")).to_string_lossy().into_owned()
    }

    pub fn ckpt_path(&self, id: u64) -> String {
        self.dir.join(format!("job-{id}.jsonl")).to_string_lossy().into_owned()
    }

    pub fn final_path(&self, id: u64) -> String {
        self.dir.join(format!("job-{id}.json")).to_string_lossy().into_owned()
    }

    fn cancel_marker_path(&self, id: u64) -> String {
        self.dir.join(format!("job-{id}.cancelled")).to_string_lossy().into_owned()
    }
}

fn parse_priority(spec_text: &str) -> u8 {
    spec_text
        .lines()
        .find_map(|l| l.trim().strip_prefix("# serve: priority="))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Writes a file and flushes it to stable storage before returning.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mtsim-serve-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse_file("apps=sieve\nmodels=switch-on-load\nprocs=2\nthreads=1,2\n").unwrap()
    }

    #[test]
    fn create_then_reopen_reconstructs_spec_priority_and_queue_order() {
        let dir = tmp_dir("reopen");
        let (mut store, requeue) = JobStore::open(&dir).unwrap();
        assert!(requeue.is_empty());
        let a = store.create(tiny_spec(), 2).unwrap();
        let b = store.create(tiny_spec(), 7).unwrap();
        assert_ne!(a, b);
        drop(store);

        let (store, requeue) = JobStore::open(&dir).unwrap();
        assert_eq!(requeue, vec![(a, 2), (b, 7)]);
        let job = store.get(b).unwrap();
        assert_eq!(job.priority, 7);
        assert_eq!(job.spec, tiny_spec());
        assert_eq!(job.total, 2);
        assert_eq!(job.state, JobState::Queued);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn final_file_marks_done_and_cancel_marker_survives_restart() {
        let dir = tmp_dir("markers");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        let done = store.create(tiny_spec(), 0).unwrap();
        let gone = store.create(tiny_spec(), 0).unwrap();
        write_durable(Path::new(&store.final_path(done)), b"{}\n").unwrap();
        store.persist_cancel(gone).unwrap();
        drop(store);

        let (store, requeue) = JobStore::open(&dir).unwrap();
        assert!(requeue.is_empty(), "neither job may re-enqueue");
        assert_eq!(store.get(done).unwrap().state, JobState::Done);
        assert_eq!(store.get(gone).unwrap().state, JobState::Cancelled);
        // Ids keep growing past recovered ones.
        let (mut store, _) = JobStore::open(&dir).unwrap();
        assert_eq!(store.create(tiny_spec(), 0).unwrap(), gone + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_with_a_character_across_its_crc_field_reads_as_zero() {
        // `é` is two bytes; 15 hex digits put it across the field's end.
        let dir = tmp_dir("crc-char");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        let id = store.create(tiny_spec(), 3).unwrap();
        let line = "{\"crc\":\"000000000000000\u{e9}\",\"schema\":\"x\"}\n";
        std::fs::write(store.ckpt_path(id), line).unwrap();
        drop(store);

        let (store, requeue) = JobStore::open(&dir).unwrap();
        assert_eq!(requeue, vec![(id, 3)]);
        let job = store.get(id).unwrap();
        assert_eq!(job.state, JobState::Queued);
        assert_eq!(job.completed.load(std::sync::atomic::Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
