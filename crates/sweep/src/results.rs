//! Per-job outcomes and deterministic sweep-level aggregation.

use std::time::Duration;

use mtsim_core::{AttrSummary, Cat, RunStats, SimError};

use crate::json::JsonBuilder;
use crate::spec::JobSpec;

/// Why one grid point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The simulator returned a typed error.
    Sim {
        /// Stable machine-readable kind (`"watchdog"`, `"fault"`,
        /// `"deadlock"`, `"bad-program"`, `"config"`, `"timeout"`).
        kind: &'static str,
        /// The full human-readable error.
        message: String,
    },
    /// The run completed but the final memory image failed the host-side
    /// verifier.
    Verify {
        /// First mismatch description.
        message: String,
    },
    /// The job panicked; the pool isolated it.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl JobError {
    /// Stable machine-readable kind for the result table.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Sim { kind, .. } => kind,
            JobError::Verify { .. } => "verify",
            JobError::Panic { .. } => "panic",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            JobError::Sim { message, .. }
            | JobError::Verify { message }
            | JobError::Panic { message } => message,
        }
    }

    /// Maps a simulator error to its stable kind string.
    pub fn from_sim(err: &SimError) -> JobError {
        let [watchdog, fault, deadlock, bad_program, config, timeout] = SIM_KINDS;
        let kind = match err {
            SimError::Watchdog { .. } => watchdog,
            SimError::Fault { .. } => fault,
            SimError::Deadlock { .. } => deadlock,
            SimError::BadProgram { .. } => bad_program,
            SimError::Config { .. } => config,
            // Wall-clock cancellation by the pool's per-job watchdog: the
            // only nondeterministic simulator error, and the one the retry
            // layer treats as transient.
            SimError::Cancelled { .. } => timeout,
        };
        JobError::Sim { kind, message: err.to_string() }
    }
}

/// Every simulator error kind, one per [`SimError`] variant.
pub(crate) const SIM_KINDS: [&str; 6] =
    ["watchdog", "fault", "deadlock", "bad-program", "config", "timeout"];

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// One result-table value: JSON types it, CSV prints it bare.
#[derive(Clone, Copy)]
enum Cell {
    Int(u64),
    Float(f64),
    Str(&'static str),
}

impl Cell {
    fn json(self, j: &mut JsonBuilder) {
        match self {
            Cell::Int(v) => j.u64(v),
            Cell::Float(v) => j.f64(v),
            Cell::Str(v) => j.string(v),
        };
    }

    fn csv(self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => v.to_string(),
            Cell::Str(v) => v.to_string(),
        }
    }
}

/// A spec column: its name and how to read it off the job.
type SpecCol = (&'static str, fn(&JobSpec) -> Cell);

/// The spec columns that open every result row, in column order.
const SPEC_COLS: [SpecCol; 11] = [
    ("id", |s| Cell::Int(s.id as u64)),
    ("app", |s| Cell::Str(s.app.name())),
    ("model", |s| Cell::Str(s.model.name())),
    ("scale", |s| Cell::Str(s.scale.name())),
    ("procs", |s| Cell::Int(s.procs as u64)),
    ("threads", |s| Cell::Int(s.threads_per_proc as u64)),
    ("latency", |s| Cell::Int(s.latency)),
    ("seed", |s| Cell::Int(s.seed)),
    ("drop_rate", |s| Cell::Float(s.drop_rate)),
    ("net", |s| Cell::Str(s.net.name())),
    ("opt", |s| Cell::Str(s.opt.name())),
];

/// How one [`STATS`] column is stored.
#[derive(Clone, Copy)]
pub(crate) enum Stat {
    /// A [`RunStats`] field: persisted in checkpoints, and shown in the
    /// result table when `shown`.
    Field { get: fn(&RunStats) -> u64, set: fn(&mut RunStats, u64), shown: bool },
    /// Derived from the fields at render time: shown, never persisted.
    Derived(fn(&RunStats) -> f64),
}

impl Stat {
    fn shown(self) -> bool {
        !matches!(self, Stat::Field { shown: false, .. })
    }

    fn cell(self, r: &RunStats) -> Cell {
        match self {
            Stat::Field { get, .. } => Cell::Int(get(r)),
            Stat::Derived(f) => Cell::Float(f(r)),
        }
    }
}

/// `field!(name, shown)`: a [`STATS`] entry for the `RunStats` field
/// `name`.
macro_rules! field {
    ($name:ident, $shown:expr) => {
        (
            stringify!($name),
            Stat::Field { get: |s| s.$name, set: |s, v| s.$name = v, shown: $shown },
        )
    };
}

/// The sweep row's [`RunStats`] schema, in column order: every field
/// once, plus the derived `utilization`. The result JSON and CSV show
/// the `shown` columns; checkpoint records persist every field, so a
/// resumed job reproduces the result table byte for byte. A new counter
/// is one line here.
pub(crate) const STATS: [(&str, Stat); 19] = [
    field!(processors, false),
    field!(cycles, true),
    field!(instructions, true),
    field!(busy, true),
    field!(idle, true),
    field!(overhead, true),
    field!(stalls, true),
    field!(switches_taken, true),
    field!(switches_skipped, true),
    field!(forced_switches, true),
    field!(reads_issued, true),
    field!(retries, true),
    field!(timeouts, true),
    ("utilization", Stat::Derived(RunStats::utilization)),
    field!(net_requests, true),
    field!(net_latency_sum, false),
    field!(net_latency_max, false),
    field!(net_queue_cycles, true),
    field!(net_fa_combined, true),
];

/// Static grouping statistics for one grid point, recorded when the
/// point ran with a pinned [`crate::OptChoice::Level`] (all zero for
/// `none`). Pure functions of the program and the level — deterministic,
/// so they belong in the result table. `group_mean` is derived at render
/// time as `grouped_loads / groups` (0 when no groups formed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptCols {
    /// Shared loads placed into switch-terminated groups.
    pub grouped_loads: u64,
    /// Number of groups (switches inserted) by the grouping pass.
    pub groups: u64,
}

impl OptCols {
    /// Mean shared loads per group — the paper's grouping factor.
    pub fn group_mean(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.grouped_loads as f64 / self.groups as f64
        }
    }
}

/// One grid point's spec plus its result.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The point that ran.
    pub spec: JobSpec,
    /// Run statistics, or why the point failed.
    pub result: Result<RunStats, JobError>,
    /// Cycle attribution, present only when the job ran with
    /// [`crate::JobSpec::attr`] set and succeeded. Deterministic, so it
    /// may appear in the result table — but only for attributed sweeps,
    /// keeping unattributed output byte-identical to before.
    pub attr: Option<AttrSummary>,
    /// Static optimizer statistics, present only when the point pinned an
    /// explicit opt level and succeeded. Like `attr`, the columns appear
    /// only for sweeps that opted in, keeping legacy output stable.
    pub opt: Option<OptCols>,
    /// Whether the application artifact came from the cache. Depends on
    /// scheduling, so it feeds telemetry only — never the result table.
    pub cache_hit: bool,
    /// Attempts this job took (1 = succeeded or failed typed on the first
    /// try). Greater than 1 only after transient failures (panic or
    /// wall-clock timeout) were retried.
    pub attempts: u32,
    /// True when the job kept failing transiently until its retry budget
    /// ran out. Quarantined jobs appear in the `failed_jobs` section of
    /// the result table and map to a distinct process exit code.
    pub quarantined: bool,
}

impl JobOutcome {
    /// An outcome for a job that ran exactly once — the common case for
    /// callers constructing outcomes outside the retry layer.
    pub fn once(spec: JobSpec, result: Result<RunStats, JobError>) -> JobOutcome {
        JobOutcome {
            spec,
            result,
            attr: None,
            opt: None,
            cache_hit: false,
            attempts: 1,
            quarantined: false,
        }
    }
}

/// A completed sweep: every job outcome (sorted by job id) plus
/// scheduling-dependent telemetry.
///
/// The split matters for reproducibility: [`SweepOutcome::results_json`]
/// and [`SweepOutcome::results_csv`] derive only from specs and
/// deterministic simulation results, so they are byte-identical across
/// worker counts and submission orders. Wall-clock, throughput, and
/// cache-hit telemetry live in separate fields and accessors because
/// they legitimately vary from run to run.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Outcomes sorted by job id.
    pub jobs: Vec<JobOutcome>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Artifact-cache hits. For a sweep running against a shared
    /// process-lifetime cache these count this sweep's lookups only.
    pub cache_hits: u64,
    /// Artifact-cache misses (builds performed).
    pub cache_misses: u64,
    /// Always 0: the sweep no longer recycles machine buffers between
    /// jobs. The field stays only for the benchmark harness that reads
    /// it; ROADMAP item 10 removes it together with those call sites.
    pub machine_reuses: u64,
}

impl SweepOutcome {
    /// Jobs that completed and verified.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_ok()).count()
    }

    /// Jobs that failed (simulator error, verify mismatch, or panic).
    pub fn failed_count(&self) -> usize {
        self.jobs.len() - self.ok_count()
    }

    /// Jobs quarantined after exhausting their transient-failure retry
    /// budget (a subset of [`SweepOutcome::failed_count`]).
    pub fn quarantined_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.quarantined).count()
    }

    /// Simulated cycles summed over successful jobs.
    pub fn total_sim_cycles(&self) -> u64 {
        self.jobs.iter().filter_map(|j| j.result.as_ref().ok()).map(|s| s.cycles).sum()
    }

    /// Jobs completed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.jobs.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Simulated cycles per wall-clock second — the sweep engine's
    /// headline throughput number.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_sim_cycles() as f64 / secs
        } else {
            0.0
        }
    }

    /// The deterministic result table as JSON (schema `mtsim-sweep/v1`).
    ///
    /// Contains only data that is a pure function of the job specs and the
    /// (deterministic) simulations: byte-identical for the same grid at
    /// any worker count. Telemetry is deliberately excluded.
    pub fn results_json(&self) -> String {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.key("schema").string("mtsim-sweep/v1");
        j.key("jobs").begin_array();
        for job in &self.jobs {
            j.begin_object();
            for (name, col) in SPEC_COLS {
                col(&job.spec).json(j.key(name));
            }
            match &job.result {
                Ok(r) => {
                    j.key("status").string("ok");
                    for (name, stat) in STATS.iter().filter(|(_, s)| s.shown()) {
                        stat.cell(r).json(j.key(name));
                    }
                    if let Some(a) = &job.attr {
                        j.key("attr").begin_object();
                        for (cat, cycles) in a.by_cat() {
                            j.key(cat.name()).u64(cycles);
                        }
                        j.end();
                    }
                    if let Some(o) = &job.opt {
                        j.key("opt_stats").begin_object();
                        j.key("grouped_loads").u64(o.grouped_loads);
                        j.key("groups").u64(o.groups);
                        j.key("group_mean").f64(o.group_mean());
                        j.end();
                    }
                }
                Err(e) => {
                    j.key("status").string("error");
                    j.key("error_kind").string(e.kind());
                    j.key("error").string(e.message());
                }
            }
            j.end();
        }
        j.end();
        // Quarantine only happens under wall-clock watchdogs or injected
        // panics, which are inherently nondeterministic — so this section
        // (and the summary key below) appear only when non-empty, keeping
        // deterministic sweeps byte-identical to the historical format.
        if self.quarantined_count() > 0 {
            j.key("failed_jobs").begin_array();
            for job in self.jobs.iter().filter(|j| j.quarantined) {
                let err = job.result.as_ref().expect_err("quarantined jobs carry an error");
                j.begin_object();
                j.key("id").u64(job.spec.id as u64);
                j.key("error_kind").string(err.kind());
                j.key("error").string(err.message());
                j.key("attempts").u64(u64::from(job.attempts));
                j.end();
            }
            j.end();
        }
        j.key("summary").begin_object();
        j.key("total").u64(self.jobs.len() as u64);
        j.key("ok").u64(self.ok_count() as u64);
        j.key("failed").u64(self.failed_count() as u64);
        if self.quarantined_count() > 0 {
            j.key("quarantined").u64(self.quarantined_count() as u64);
        }
        j.key("sim_cycles").u64(self.total_sim_cycles());
        j.end();
        j.end();
        j.finish()
    }

    /// The deterministic result table as CSV, with the determinism
    /// contract of [`SweepOutcome::results_json`]. The columns are the
    /// JSON row's, flattened, except that of the `opt_stats` object only
    /// `group_mean` is carried.
    pub fn results_csv(&self) -> String {
        // Attribution and opt columns appear only when at least one job
        // carries them (the sweep ran with `attr = true` or pinned an opt
        // level), so other sweeps keep the historical columns.
        let with_attr = self.jobs.iter().any(|j| j.attr.is_some());
        let with_opt = self.jobs.iter().any(|j| j.opt.is_some());
        let shown = || STATS.iter().filter(|(_, s)| s.shown());
        let mut header: Vec<String> = SPEC_COLS.iter().map(|(name, _)| name.to_string()).collect();
        header.push("status".into());
        header.extend(shown().map(|(name, _)| name.to_string()));
        header.push("error_kind".into());
        if with_attr {
            header.extend(Cat::ALL.iter().map(|c| format!("attr_{}", c.name().replace('-', "_"))));
        }
        if with_opt {
            header.push("group_mean".into());
        }
        let mut out = header.join(",") + "\n";
        for job in &self.jobs {
            let mut row: Vec<String> =
                SPEC_COLS.iter().map(|(_, col)| col(&job.spec).csv()).collect();
            match &job.result {
                Ok(r) => {
                    row.push("ok".into());
                    row.extend(shown().map(|(_, stat)| stat.cell(r).csv()));
                    row.push(String::new());
                }
                Err(e) => {
                    row.push("error".into());
                    row.extend(shown().map(|_| String::new()));
                    row.push(e.kind().into());
                }
            }
            if with_attr {
                match &job.attr {
                    Some(a) => row.extend(a.by_cat().iter().map(|(_, v)| v.to_string())),
                    None => row.extend(Cat::ALL.iter().map(|_| String::new())),
                }
            }
            if with_opt {
                row.push(job.opt.map(|o| o.group_mean().to_string()).unwrap_or_default());
            }
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// One-line human summary for stderr.
    pub fn summary_line(&self) -> String {
        format!(
            "{} jobs ({} ok, {} failed) in {:.2}s on {} worker(s): {:.1} jobs/s, {:.2e} sim-cycles/s, cache {}/{} hits",
            self.jobs.len(),
            self.ok_count(),
            self.failed_count(),
            self.wall.as_secs_f64(),
            self.workers,
            self.jobs_per_sec(),
            self.sim_cycles_per_sec(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn outcome_with(results: Vec<Result<RunStats, JobError>>) -> SweepOutcome {
        let spec = SweepSpec { threads: vec![1; results.len()], ..SweepSpec::default() };
        let specs = spec.expand();
        SweepOutcome {
            jobs: specs
                .into_iter()
                .zip(results)
                .map(|(spec, result)| JobOutcome::once(spec, result))
                .collect(),
            workers: 1,
            wall: Duration::from_millis(10),
            cache_hits: 0,
            cache_misses: 1,
            machine_reuses: 0,
        }
    }

    #[test]
    fn json_carries_ok_and_error_rows() {
        let ok = RunStats { processors: 2, cycles: 100, busy: 150, ..RunStats::default() };
        let err = JobError::Sim { kind: "watchdog", message: "expired".into() };
        let out = outcome_with(vec![Ok(ok), Err(err)]);
        let json = out.results_json();
        assert!(json.contains(r#""schema":"mtsim-sweep/v1""#));
        assert!(json.contains(r#""status":"ok""#));
        assert!(json.contains(r#""cycles":100"#));
        assert!(json.contains(r#""utilization":0.75"#));
        assert!(json.contains(r#""error_kind":"watchdog""#));
        assert!(json.contains(r#""summary":{"total":2,"ok":1,"failed":1"#));
        // Telemetry stays out of the deterministic table.
        assert!(!json.contains("wall"));
        assert!(!json.contains("cache"));
    }

    #[test]
    fn csv_has_one_row_per_job_plus_header() {
        let ok = RunStats { processors: 1, cycles: 5, ..RunStats::default() };
        let out = outcome_with(vec![Ok(ok), Err(JobError::Panic { message: "boom".into() })]);
        let csv = out.results_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
        assert!(lines[2].contains("error") && lines[2].ends_with("panic"));
    }

    #[test]
    fn attr_columns_appear_only_for_attributed_sweeps() {
        let ok = RunStats { processors: 1, cycles: 10, ..RunStats::default() };
        let plain = outcome_with(vec![Ok(ok)]);
        assert!(!plain.results_csv().contains("attr_busy"));
        assert!(!plain.results_json().contains(r#""attr""#));

        let mut attributed = outcome_with(vec![Ok(ok), Ok(ok)]);
        attributed.jobs[0].attr = Some(AttrSummary {
            busy: 6,
            switch_overhead: 1,
            memory_stall: 2,
            lock_spin: 0,
            barrier_wait: 0,
            idle: 1,
            issue_idle: 2,
        });
        let csv = attributed.results_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with("attr_idle,attr_issue_idle"));
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols), "ragged csv:\n{csv}");
        assert!(lines[1].contains(",6,1,2,0,0,1,2"));
        let json = attributed.results_json();
        assert!(json.contains(r#""attr":{"busy":6,"switch-ovh":1,"mem-stall":2"#));
    }

    #[test]
    fn opt_columns_appear_only_for_opt_pinned_sweeps() {
        let ok = RunStats { processors: 1, cycles: 10, ..RunStats::default() };
        let plain = outcome_with(vec![Ok(ok)]);
        assert!(!plain.results_csv().contains("group_mean"));
        assert!(!plain.results_json().contains("opt_stats"));
        // The spec column is always there; the default renders "auto".
        assert!(plain.results_json().contains(r#""opt":"auto""#));
        assert!(plain.results_csv().lines().next().unwrap().contains(",net,opt,status"));

        let mut pinned = outcome_with(vec![Ok(ok), Ok(ok)]);
        pinned.jobs[0].opt = Some(OptCols { grouped_loads: 6, groups: 3 });
        let csv = pinned.results_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",net_fa_combined,error_kind,group_mean"));
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols), "ragged csv:\n{csv}");
        assert!(lines[1].ends_with(",2"), "row: {}", lines[1]);
        assert!(lines[2].ends_with(","), "row: {}", lines[2]);
        let json = pinned.results_json();
        assert!(json.contains(r#""opt_stats":{"grouped_loads":6,"groups":3,"group_mean":2.0}"#));
        assert_eq!(OptCols::default().group_mean(), 0.0);
    }

    #[test]
    fn quarantined_jobs_surface_in_failed_jobs_section_only_when_present() {
        let ok = RunStats { processors: 1, cycles: 10, ..RunStats::default() };
        let clean = outcome_with(vec![Ok(ok), Ok(ok)]);
        assert!(!clean.results_json().contains("failed_jobs"));
        assert!(!clean.results_json().contains("\"quarantined\""));

        let mut out = outcome_with(vec![Ok(ok), Err(JobError::Panic { message: "flaky".into() })]);
        out.jobs[1].quarantined = true;
        out.jobs[1].attempts = 3;
        assert_eq!(out.quarantined_count(), 1);
        let json = out.results_json();
        assert!(json.contains(
            r#""failed_jobs":[{"id":1,"error_kind":"panic","error":"flaky","attempts":3}]"#
        ));
        assert!(json.contains(r#""failed":1,"quarantined":1"#));
    }

    #[test]
    fn counters_and_throughput() {
        let ok = RunStats { cycles: 1000, ..RunStats::default() };
        let out = outcome_with(vec![Ok(ok), Ok(ok), Err(JobError::Verify { message: "m".into() })]);
        assert_eq!(out.ok_count(), 2);
        assert_eq!(out.failed_count(), 1);
        assert_eq!(out.total_sim_cycles(), 2000);
        assert!(out.jobs_per_sec() > 0.0);
    }
}
