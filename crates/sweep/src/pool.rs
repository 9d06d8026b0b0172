//! A `std`-only claim-cursor thread pool for sweep jobs.
//!
//! Every job is known up front, so scheduling is one shared cursor:
//! each worker claims the next submission index with a single
//! `fetch_add` and runs it. Jobs run under `catch_unwind`, so one
//! panicking grid point becomes one failed result instead of a dead
//! worker (or a dead sweep). Results carry their submission index and
//! are merged back into submission order, which keeps the output
//! independent of scheduling.
//!
//! **Prefix guarantee.** Indices are claimed in submission order and
//! every claimed index runs to completion, so when the stop flag halts a
//! pool the jobs that ran are exactly a prefix `0..k` of the submitted
//! items. A sweep killed at a job boundary (the chaos harness's injected
//! kill) therefore leaves a checkpoint that holds a prefix of its grid;
//! a hard kill can leave holes only where jobs were still in flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One completed job: submission index, the item, and its result (or
/// caught panic message).
pub type Finished<I, O> = (usize, I, Result<O, String>);

/// Reads the `MTSIM_JOBS` worker-count default — the one reader of that
/// variable, for the front ends (`mtsim`, the table binaries) to call
/// when no `--jobs` is given. Unset or blank means "no preference"
/// (`Ok(None)`); anything else must be a count >= 1, and an invalid
/// value comes back as `Err(value)` so each front end reports it in its
/// own words instead of quietly running on every core.
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    parse_jobs_env(std::env::var("MTSIM_JOBS").ok())
}

fn parse_jobs_env(value: Option<String>) -> Result<Option<usize>, String> {
    match value {
        None => Ok(None),
        Some(v) if v.trim().is_empty() => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(v),
        },
    }
}

/// Workers to use when the caller does not say: the machine's available
/// parallelism, else 1. Front ends resolve `--jobs` and `MTSIM_JOBS`
/// ([`jobs_from_env`]) first and pass the count explicitly.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` over every item on `workers` threads, returning
/// `(item, result)` pairs in the original submission order. A panic in
/// `f` is caught and surfaced as `Err(panic message)` for that item only.
///
/// `f` receives the item's submission index alongside the item.
pub fn run_jobs<I, O, F>(items: Vec<I>, workers: usize, f: F) -> Vec<(I, Result<O, String>)>
where
    I: Send,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let total = items.len();
    let finished = run_jobs_partial(items, workers, &AtomicBool::new(false), f);
    debug_assert_eq!(finished.len(), total);
    finished.into_iter().map(|(_, item, result)| (item, result)).collect()
}

/// Like [`run_jobs`], but workers stop claiming new jobs once `stop` is
/// set — jobs already running finish normally. Returns only the jobs
/// that actually ran, as `(submission index, item, result)` sorted by
/// index; by the prefix guarantee (module docs) those indices are
/// `0..k`. The crash-safe sweep layer uses this for graceful aborts
/// (stream-write failure, injected chaos kills): durable progress is
/// whatever completed, and everything else stays runnable on resume.
pub fn run_jobs_partial<I, O, F>(
    items: Vec<I>,
    workers: usize,
    stop: &AtomicBool,
    f: F,
) -> Vec<Finished<I, O>>
where
    I: Send,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let total = items.len();
    let workers = workers.max(1).min(total.max(1));
    // One slot per item: a claimed index is taken exactly once, so its
    // lock is never contended; it only lets `I: Send` items cross threads.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let (f, slots, cursor) = (&f, &slots, &cursor);

    let mut out: Vec<Finished<I, O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(idx) else { break };
                        let item = slot
                            .lock()
                            .expect("a slot is locked only to take its item")
                            .take()
                            .expect("each index is claimed once");
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let _quiet = silence_panics_on_this_thread();
                            f(idx, &item)
                        }))
                        .map_err(|payload| panic_message(payload.as_ref()));
                        done.push((idx, item, result));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked outside a job"))
            .collect()
    });
    out.sort_by_key(|(idx, _, _)| *idx);
    out
}

thread_local! {
    static SILENCE_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Suppresses the default panic hook's backtrace spew on this thread
/// until the returned guard drops (including during unwinding). Job
/// panics are caught by the pool and surfaced as structured errors, so
/// the hook's stderr dump is pure noise — doubly so under chaos
/// injection, which panics on purpose dozens of times per run. The
/// forwarding hook is installed once, process-wide, and delegates to the
/// previous hook everywhere the thread-local flag is unset.
pub(crate) fn silence_panics_on_this_thread() -> impl Drop {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    // The guard restores the flag's *previous* value rather than
    // clearing it: a nested guard (a pool job that itself runs a pool,
    // as the chaos harness does) must not un-silence the enclosing
    // scope when the inner guard drops first.
    struct Quiet {
        prev: bool,
    }
    impl Drop for Quiet {
        fn drop(&mut self) {
            SILENCE_PANICS.with(|s| s.set(self.prev));
        }
    }
    let prev = SILENCE_PANICS.with(|s| s.replace(true));
    Quiet { prev }
}

#[cfg(test)]
pub(crate) fn panics_silenced_on_this_thread() -> bool {
    SILENCE_PANICS.with(|s| s.get())
}

/// Best-effort extraction of a panic payload (`&str` and `String` cover
/// everything `panic!` produces in practice).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Per-job wall-clock watchdog
// ---------------------------------------------------------------------------

struct WatchdogInner {
    /// Active deadlines: (slot id, deadline, the job's cancel token).
    active: Mutex<Vec<(u64, Instant, Arc<AtomicBool>)>>,
    quit: AtomicBool,
    next_id: AtomicU64,
}

/// A deadline thread that cancels jobs exceeding their wall-clock
/// budget.
///
/// Rust threads cannot be killed, so enforcement is cooperative: each
/// armed job gets an `Arc<AtomicBool>` cancel token that the worker
/// threads through [`mtsim_core::Machine::with_cancel_token`]; the
/// engine polls it once per step and bails out with
/// `SimError::Cancelled`, which the sweep layer reports as a `timeout`
/// and treats as transient (retryable). One watchdog thread serves the
/// whole pool — the scan list never exceeds the worker count.
pub struct Watchdog {
    inner: Arc<WatchdogInner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the deadline thread.
    pub fn new() -> Watchdog {
        let inner = Arc::new(WatchdogInner {
            active: Mutex::new(Vec::new()),
            quit: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
        });
        let scan = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("mtsim-watchdog".into())
            .spawn(move || {
                while !scan.quit.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    for (_, deadline, token) in scan.active.lock().unwrap().iter() {
                        if now >= *deadline {
                            token.store(true, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { inner, thread: Some(thread) }
    }

    /// Arms a fresh cancel token with `budget` of wall-clock time. The
    /// token disarms (and stops being scanned) when the guard drops, so
    /// each retry attempt re-arms with a full budget.
    pub fn arm(&self, budget: Duration) -> ArmedToken {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // A zero budget is already expired: trip synchronously so jobs
        // faster than the scan interval still observe the deadline
        // (deterministic behaviour the tests rely on).
        let token = Arc::new(AtomicBool::new(budget.is_zero()));
        self.inner.active.lock().unwrap().push((id, Instant::now() + budget, Arc::clone(&token)));
        ArmedToken { id, token, inner: Arc::clone(&self.inner) }
    }
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog::new()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.quit.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

/// An armed per-job cancel token; disarms on drop.
pub struct ArmedToken {
    id: u64,
    token: Arc<AtomicBool>,
    inner: Arc<WatchdogInner>,
}

impl ArmedToken {
    /// The cancel token to hand to the engine.
    pub fn token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.token)
    }
}

impl Drop for ArmedToken {
    fn drop(&mut self) {
        self.inner.active.lock().unwrap().retain(|(id, _, _)| *id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_jobs(items, 8, |idx, &n| {
            assert_eq!(idx, n);
            n * 2
        });
        assert_eq!(out.len(), 100);
        for (i, (item, result)) in out.iter().enumerate() {
            assert_eq!(*item, i);
            assert_eq!(*result.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_jobs((0..57).collect::<Vec<usize>>(), 4, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 57);
        assert_eq!(ran.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let out = run_jobs(vec![1, 2, 3, 4], 2, |_, &n| {
            if n == 3 {
                panic!("boom at {n}");
            }
            n
        });
        assert_eq!(out.len(), 4);
        assert!(out[0].1.is_ok() && out[1].1.is_ok() && out[3].1.is_ok());
        assert!(out[2].1.as_ref().unwrap_err().contains("boom at 3"));
    }

    #[test]
    fn stop_flag_halts_claiming_at_a_job_boundary() {
        let stop = AtomicBool::new(false);
        let ran = run_jobs_partial((0..64).collect::<Vec<usize>>(), 1, &stop, |_, &n| {
            if n == 5 {
                stop.store(true, Ordering::Relaxed);
            }
            n
        });
        // Serial worker: exactly jobs 0..=5 ran, in order, nothing lost.
        assert_eq!(ran.len(), 6);
        assert!(ran.iter().enumerate().all(|(i, (idx, _, _))| i == *idx));
    }

    #[test]
    fn a_stopped_pool_ran_exactly_a_prefix_of_the_submission_order() {
        // Uneven job costs on 8 workers, stopped partway: every claimed
        // index ran once, and the indices that ran are exactly 0..k —
        // the property that makes a killed sweep's checkpoint a prefix
        // of its grid.
        const JOBS: usize = 200;
        let stop = AtomicBool::new(false);
        let runs: Vec<AtomicUsize> = (0..JOBS).map(|_| AtomicUsize::new(0)).collect();
        let ran = run_jobs_partial((0..JOBS).collect::<Vec<usize>>(), 8, &stop, |idx, &n| {
            runs[idx].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(((n * 7919) % 13) as u64 * 100));
            if n == 37 {
                stop.store(true, Ordering::Relaxed);
            }
            n
        });
        let k = ran.len();
        assert!((38..JOBS).contains(&k), "stopped pool ran {k} of {JOBS} jobs");
        for (i, (idx, item, result)) in ran.iter().enumerate() {
            assert_eq!((*idx, *item, result.as_ref().ok()), (i, i, Some(&i)));
        }
        for (idx, count) in runs.iter().enumerate() {
            let want = usize::from(idx < k);
            assert_eq!(
                count.load(Ordering::Relaxed),
                want,
                "job {idx} ran the wrong number of times"
            );
        }
    }

    #[test]
    fn mtsim_jobs_is_a_positive_count_or_unset() {
        assert_eq!(parse_jobs_env(None), Ok(None));
        assert_eq!(parse_jobs_env(Some("  ".into())), Ok(None));
        assert_eq!(parse_jobs_env(Some("3".into())), Ok(Some(3)));
        assert_eq!(parse_jobs_env(Some(" 2 ".into())), Ok(Some(2)));
        for bad in ["0", "-1", "abc", "1.5"] {
            assert_eq!(parse_jobs_env(Some(bad.into())), Err(bad.to_string()));
        }
    }

    #[test]
    fn watchdog_trips_only_expired_tokens() {
        let dog = Watchdog::new();
        let fast = dog.arm(Duration::from_millis(1));
        let slow = dog.arm(Duration::from_secs(3600));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !fast.token().load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!slow.token().load(Ordering::Relaxed), "unexpired token tripped");
        // Disarmed tokens leave the scan list.
        drop(fast);
        drop(slow);
        assert!(dog.inner.active.lock().unwrap().is_empty());
    }

    #[test]
    fn nested_silence_guards_restore_the_outer_scope() {
        // Regression test: the guard used to *clear* the flag on drop
        // instead of restoring the previous value, so a nested guard
        // (e.g. the chaos harness running a pool inside a pool job)
        // un-silenced the rest of the enclosing scope.
        assert!(!panics_silenced_on_this_thread());
        let outer = silence_panics_on_this_thread();
        assert!(panics_silenced_on_this_thread());
        {
            let _inner = silence_panics_on_this_thread();
            assert!(panics_silenced_on_this_thread());
        }
        assert!(
            panics_silenced_on_this_thread(),
            "inner guard's drop must not un-silence the outer scope"
        );
        drop(outer);
        assert!(!panics_silenced_on_this_thread());
    }

    #[test]
    fn zero_items_and_oversized_pools_are_fine() {
        let out: Vec<(usize, Result<usize, String>)> = run_jobs(Vec::new(), 8, |_, &n| n);
        assert!(out.is_empty());
        let out = run_jobs(vec![9], 64, |_, &n| n + 1);
        assert_eq!(out[0].1.as_ref().unwrap(), &10);
    }
}
