//! Declarative sweep specifications and their expansion into jobs.

use mtsim_apps::{AppKind, Scale};
use mtsim_core::{MachineConfig, NetworkConfig, SwitchModel, Topology, DEFAULT_SMT_WIDTH};
use mtsim_mem::FaultConfig;
use mtsim_opt::OptLevel;

/// One value of the sweep's optimizer axis: either the legacy model-aware
/// selection (`Auto`, the default — grouped program iff the model uses
/// explicit switches) or a pinned [`OptLevel`] applied to every model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptChoice {
    /// Legacy behavior: the grouping pass runs exactly when the
    /// switch model needs explicit switches. Keeps historical sweeps
    /// byte-identical.
    Auto,
    /// Run this level's image regardless of model: `none` is the
    /// compiler-natural program, `intra` the grouped one (a `Switch` is
    /// a 1-cycle no-op on the implicit machines).
    Level(OptLevel),
}

impl OptChoice {
    /// Stable lowercase name (spec key / column value).
    pub fn name(self) -> &'static str {
        match self {
            OptChoice::Auto => "auto",
            OptChoice::Level(l) => l.name(),
        }
    }

    /// Parses a [`name`](OptChoice::name) back into a choice.
    pub fn from_name(s: &str) -> Option<OptChoice> {
        if s == "auto" {
            return Some(OptChoice::Auto);
        }
        OptLevel::from_name(s).map(OptChoice::Level)
    }
}

impl std::fmt::Display for OptChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative experiment grid: the cartesian product of every axis,
/// one job per point.
///
/// Axes the paper sweeps (DESIGN.md §7): application, switch model,
/// processor count `P`, multithreading level `T`, and round-trip latency
/// `L`. On top of those the fault-injection layer (§13) adds a seed axis
/// and a reply-drop-rate axis, so reliability experiments fit the same
/// grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Applications to run.
    pub apps: Vec<AppKind>,
    /// Context-switch models.
    pub models: Vec<SwitchModel>,
    /// Processor counts.
    pub procs: Vec<usize>,
    /// Multithreading levels (threads per processor).
    pub threads: Vec<usize>,
    /// Round-trip shared-memory latencies in cycles.
    pub latencies: Vec<u64>,
    /// Fault-schedule seeds. Ignored unless a drop rate is non-zero.
    pub seeds: Vec<u64>,
    /// Reply drop rates (0.0 disables fault injection for that point).
    pub drop_rates: Vec<f64>,
    /// Interconnection-network topologies (PR 4). `Constant` is the
    /// paper's contention-free pipe and simulates no network at all.
    pub nets: Vec<Topology>,
    /// Optimizer axis: `auto`, `none` or `intra`. The default `[Auto]`
    /// reproduces the legacy model-aware program selection exactly.
    pub opts: Vec<OptChoice>,
    /// Link bandwidth in bits/cycle for contention topologies.
    pub link_bw: u64,
    /// Whether switches combine concurrent fetch-and-adds (§ combining).
    pub combining: bool,
    /// Collect per-thread cycle attribution (observability, DESIGN.md
    /// §17) and append it to the result table. Off by default: the
    /// attributed run costs a few percent and the extra columns would
    /// perturb existing golden files.
    pub attr: bool,
    /// Workload scale preset.
    pub scale: Scale,
    /// Watchdog limit per job, in cycles.
    pub max_cycles: u64,
    /// Retry budget per shared request under fault injection.
    pub max_retries: u32,
    /// Issue width applied to every `smt` grid point (DESIGN.md §22);
    /// single-issue models ignore it. The canonical form renders it only
    /// when it differs from [`DEFAULT_SMT_WIDTH`], so pre-SMT spec hashes
    /// (and therefore checkpoint resume) are unchanged.
    pub smt_width: usize,
}

/// Watchdog default: generous enough for every `Small`-scale table run.
pub const DEFAULT_MAX_CYCLES: u64 = 300_000_000;

/// Most values one integer axis may list, counting each value of a
/// `LO-HI` range.
pub const MAX_AXIS_VALUES: usize = 4096;

/// Most grid points one sweep may expand to.
pub const MAX_GRID_POINTS: usize = 100_000;

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            apps: vec![AppKind::Sieve],
            models: vec![SwitchModel::SwitchOnLoad],
            procs: vec![2],
            threads: vec![1, 2],
            latencies: vec![200],
            seeds: vec![0],
            drop_rates: vec![0.0],
            nets: vec![Topology::Constant],
            opts: vec![OptChoice::Auto],
            link_bw: NetworkConfig::constant().link_bw,
            combining: false,
            attr: false,
            scale: Scale::Small,
            max_cycles: DEFAULT_MAX_CYCLES,
            max_retries: 8,
            smt_width: DEFAULT_SMT_WIDTH,
        }
    }
}

impl SweepSpec {
    /// Sets one axis or scalar from its spec-file/CLI key. Lists are
    /// comma-separated; integer axes also accept `LO-HI` ranges
    /// (`t = 1-8`); `apps`/`models` accept `all`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending key/value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let value = value.trim();
        match key {
            "apps" | "app" => self.apps = names(value, &AppKind::ALL, AppKind::from_name, "app")?,
            "models" | "model" => {
                self.models = names(value, &SwitchModel::ALL, SwitchModel::from_name, "model")?
            }
            "p" | "procs" => self.procs = parse_usize_list(value).map_err(|e| ctx(key, &e))?,
            "t" | "threads" => self.threads = parse_usize_list(value).map_err(|e| ctx(key, &e))?,
            "latency" | "latencies" => {
                self.latencies = parse_u64_list(value).map_err(|e| ctx(key, &e))?
            }
            "seeds" | "seed" => self.seeds = parse_u64_list(value).map_err(|e| ctx(key, &e))?,
            "drop" | "drop-rates" | "drop_rates" => {
                self.drop_rates = value
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<f64>().map_err(|_| ctx(key, &format!("bad float {s:?}")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "net" | "nets" => {
                self.nets = names(value, &Topology::ALL, Topology::from_name, "topology")?
            }
            "opt" | "opts" | "opt-level" | "opt_level" => {
                let all: Vec<OptChoice> = std::iter::once(OptChoice::Auto)
                    .chain(OptLevel::ALL.into_iter().map(OptChoice::Level))
                    .collect();
                self.opts = names(value, &all, OptChoice::from_name, "opt level")?;
            }
            "link-bw" | "link_bw" => self.link_bw = parse_int(key, value)?,
            "combining" => self.combining = parse_bool(key, value)?,
            "attr" => self.attr = parse_bool(key, value)?,
            "scale" => {
                self.scale =
                    Scale::from_name(value).ok_or_else(|| format!("unknown scale {value:?}"))?;
            }
            "max-cycles" | "max_cycles" => self.max_cycles = parse_int(key, value)?,
            "max-retries" | "max_retries" => self.max_retries = parse_int(key, value)?,
            "smt-width" | "smt_width" => self.smt_width = parse_int(key, value)?,
            _ => return Err(format!("unknown sweep key {key:?}")),
        }
        Ok(())
    }

    /// Parses a spec file: one `key = value` per line, `#` comments and
    /// blank lines ignored. Keys are the same as [`SweepSpec::set`].
    ///
    /// # Errors
    ///
    /// Returns the first malformed line or unknown key/value.
    pub fn parse_file(text: &str) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            spec.set(key.trim(), value.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        Ok(spec)
    }

    /// Checks every axis is non-empty and every value is in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the empty or invalid axis.
    pub fn validate(&self) -> Result<(), String> {
        for (name, empty) in [
            ("apps", self.apps.is_empty()),
            ("models", self.models.is_empty()),
            ("procs", self.procs.is_empty()),
            ("threads", self.threads.is_empty()),
            ("latencies", self.latencies.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("drop rates", self.drop_rates.is_empty()),
            ("nets", self.nets.is_empty()),
            ("opt levels", self.opts.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep axis {name:?} is empty"));
            }
        }
        if self.procs.contains(&0) || self.threads.contains(&0) {
            return Err("processor and thread counts must be >= 1".into());
        }
        if self.drop_rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err("drop rates must lie in [0, 1]".into());
        }
        if self.link_bw == 0 {
            return Err("link bandwidth must be >= 1 bit/cycle".into());
        }
        if self.smt_width == 0 {
            return Err("smt issue width must be >= 1".into());
        }
        if self.len() > MAX_GRID_POINTS {
            return Err(format!("sweep grid has more than {MAX_GRID_POINTS} points"));
        }
        Ok(())
    }

    /// Number of grid points without materializing them, saturating at
    /// `usize::MAX`.
    pub fn len(&self) -> usize {
        [
            self.apps.len(),
            self.models.len(),
            self.procs.len(),
            self.threads.len(),
            self.latencies.len(),
            self.seeds.len(),
            self.drop_rates.len(),
            self.nets.len(),
            self.opts.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A canonical, order-stable rendering of every field that shapes the
    /// grid or its results. Two specs produce byte-identical result
    /// tables iff their canonical forms are equal, so the checkpoint
    /// layer hashes this string to decide whether a resume is legal.
    ///
    /// The rendering is itself a valid spec file:
    /// `parse_file(canonical())` reproduces the spec exactly, which is
    /// how `mtsim serve` persists submitted sweeps for restart-resume.
    pub fn canonical(&self) -> String {
        fn list<T: std::fmt::Display>(items: &[T]) -> String {
            items.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        }
        let mut out = format!(
            "apps={}\nmodels={}\nprocs={}\nthreads={}\nlatencies={}\nseeds={}\n\
             drop_rates={}\nnets={}\nopts={}\nlink_bw={}\ncombining={}\nattr={}\nscale={}\n\
             max_cycles={}\nmax_retries={}\n",
            self.apps.iter().map(|a| a.name()).collect::<Vec<_>>().join(","),
            self.models.iter().map(|m| m.name()).collect::<Vec<_>>().join(","),
            list(&self.procs),
            list(&self.threads),
            list(&self.latencies),
            list(&self.seeds),
            list(&self.drop_rates),
            self.nets.iter().map(|n| n.name()).collect::<Vec<_>>().join(","),
            self.opts.iter().map(|o| o.name()).collect::<Vec<_>>().join(","),
            self.link_bw,
            self.combining,
            self.attr,
            self.scale.name(),
            self.max_cycles,
            self.max_retries,
        );
        // Rendered only when non-default so that pre-SMT canonical forms
        // (and the checkpoint hashes derived from them) are byte-stable.
        if self.smt_width != DEFAULT_SMT_WIDTH {
            out.push_str(&format!("smt_width={}\n", self.smt_width));
        }
        out
    }

    /// Expands the grid into concrete jobs in deterministic nested-axis
    /// order (app, model, P, T, latency, seed, drop rate, net, opt),
    /// assigning sequential ids. The id — not submission or completion
    /// order — keys the result table, so the output is reproducible at
    /// any worker count.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.len());
        for &app in &self.apps {
            for &model in &self.models {
                for &procs in &self.procs {
                    for &threads_per_proc in &self.threads {
                        for &latency in &self.latencies {
                            for &seed in &self.seeds {
                                for &drop_rate in &self.drop_rates {
                                    for &net in &self.nets {
                                        for &opt in &self.opts {
                                            jobs.push(JobSpec {
                                                id: jobs.len(),
                                                app,
                                                model,
                                                procs,
                                                threads_per_proc,
                                                latency,
                                                seed,
                                                drop_rate,
                                                net,
                                                opt,
                                                link_bw: self.link_bw,
                                                combining: self.combining,
                                                attr: self.attr,
                                                scale: self.scale,
                                                max_cycles: self.max_cycles,
                                                max_retries: self.max_retries,
                                                smt_width: self.smt_width,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }
}

fn ctx(key: &str, e: &str) -> String {
    format!("key {key:?}: {e}")
}

/// A comma-separated list of names, or `all` for `every`.
fn names<T: Copy>(
    value: &str,
    every: &[T],
    from_name: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, String> {
    if value == "all" {
        return Ok(every.to_vec());
    }
    value
        .split(',')
        .map(|s| from_name(s.trim()).ok_or_else(|| format!("unknown {what} {:?}", s.trim())))
        .collect()
}

fn parse_int<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| ctx(key, &format!("bad integer {value:?}")))
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "true" | "1" | "on" | "yes" => Ok(true),
        "false" | "0" | "off" | "no" => Ok(false),
        _ => Err(ctx(key, &format!("bad boolean {value:?}"))),
    }
}

fn parse_usize_list(value: &str) -> Result<Vec<usize>, String> {
    parse_u64_list(value).map(|v| v.into_iter().map(|n| n as usize).collect())
}

/// `"1,2,4"` and `"1-4"` (inclusive) both work, and mix: `"1,4-6"`.
/// The list may hold at most [`MAX_AXIS_VALUES`] values.
fn parse_u64_list(value: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in value.split(',') {
        let part = part.trim();
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: u64 = lo.trim().parse().map_err(|_| format!("bad range {part:?}"))?;
                let hi: u64 = hi.trim().parse().map_err(|_| format!("bad range {part:?}"))?;
                if lo > hi {
                    return Err(format!("empty range {part:?}"));
                }
                (lo, hi)
            }
            None => {
                let n = part.parse().map_err(|_| format!("bad integer {part:?}"))?;
                (n, n)
            }
        };
        // Checked before expanding: a range is materialized value by value.
        if hi - lo >= (MAX_AXIS_VALUES - out.len()) as u64 {
            return Err(format!("{part:?} makes the list longer than {MAX_AXIS_VALUES} values"));
        }
        out.extend(lo..=hi);
    }
    Ok(out)
}

/// One fully-specified grid point, ready to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Position in the result table (assigned at expansion; callers
    /// building explicit job lists must keep ids unique).
    pub id: usize,
    /// Application.
    pub app: AppKind,
    /// Context-switch model.
    pub model: SwitchModel,
    /// Processors.
    pub procs: usize,
    /// Threads per processor.
    pub threads_per_proc: usize,
    /// Round-trip latency in cycles (forced to 0 under `Ideal`).
    pub latency: u64,
    /// Fault-schedule seed.
    pub seed: u64,
    /// Reply drop rate; 0.0 disables fault injection.
    pub drop_rate: f64,
    /// Interconnection-network topology (`Constant` = no network).
    pub net: Topology,
    /// Optimizer choice for this point (`Auto` = legacy model-aware
    /// selection).
    pub opt: OptChoice,
    /// Link bandwidth in bits/cycle for contention topologies.
    pub link_bw: u64,
    /// Whether switches combine concurrent fetch-and-adds.
    pub combining: bool,
    /// Collect per-thread cycle attribution for this point.
    pub attr: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Watchdog limit in cycles.
    pub max_cycles: u64,
    /// Retry budget under fault injection.
    pub max_retries: u32,
    /// Issue width when `model` is [`SwitchModel::Smt`]; ignored
    /// otherwise.
    pub smt_width: usize,
}

impl JobSpec {
    /// Total threads the application image must be built for.
    pub fn nthreads(&self) -> usize {
        self.procs * self.threads_per_proc
    }

    /// The machine configuration for this point.
    pub fn config(&self) -> MachineConfig {
        let latency = if self.model == SwitchModel::Ideal { 0 } else { self.latency };
        let mut cfg =
            MachineConfig::new(self.model, self.procs, self.threads_per_proc).with_latency(latency);
        // Width is an SMT-only knob: applying it to a single-issue model
        // would fail config validation, so the grid pins those cells to 1.
        if self.model == SwitchModel::Smt {
            cfg = cfg.with_issue_width(self.smt_width);
        }
        cfg.max_cycles = self.max_cycles;
        if self.drop_rate > 0.0 {
            cfg = cfg.with_faults(FaultConfig {
                seed: self.seed,
                drop_rate: self.drop_rate,
                max_retries: self.max_retries,
                ..FaultConfig::default()
            });
        }
        // Network simulation is meaningless on the zero-latency ideal
        // machine, so the grid quietly pins that cell to the constant pipe
        // (mirrors the latency override above).
        if self.model != SwitchModel::Ideal {
            let mut net = NetworkConfig::new(self.net);
            net.link_bw = self.link_bw;
            net.combining = self.combining;
            cfg = cfg.with_net(net);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_expands_to_two_jobs_with_sequential_ids() {
        let jobs = SweepSpec::default().expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 0);
        assert_eq!(jobs[1].id, 1);
        assert_eq!(jobs[0].threads_per_proc, 1);
        assert_eq!(jobs[1].threads_per_proc, 2);
    }

    #[test]
    fn set_parses_lists_ranges_and_all() {
        let mut s = SweepSpec::default();
        s.set("apps", "sieve, sor").unwrap();
        assert_eq!(s.apps, vec![AppKind::Sieve, AppKind::Sor]);
        s.set("models", "all").unwrap();
        assert_eq!(s.models.len(), SwitchModel::ALL.len());
        s.set("t", "1,4-6").unwrap();
        assert_eq!(s.threads, vec![1, 4, 5, 6]);
        s.set("scale", "tiny").unwrap();
        assert_eq!(s.scale, Scale::Tiny);
        assert!(s.set("apps", "nonesuch").is_err());
        assert!(s.set("frobnicate", "1").is_err());
        assert!(s.set("t", "6-4").is_err());
    }

    #[test]
    fn parse_file_honors_comments_and_overrides() {
        let text = "# demo sweep\napps = sieve\nt = 1-3  # inline comment\n\nlatency = 50,100\n";
        let s = SweepSpec::parse_file(text).unwrap();
        assert_eq!(s.apps, vec![AppKind::Sieve]);
        assert_eq!(s.threads, vec![1, 2, 3]);
        assert_eq!(s.latencies, vec![50, 100]);
        assert!(SweepSpec::parse_file("no equals here").is_err());
    }

    #[test]
    fn canonical_form_round_trips_through_parse_file() {
        let mut s = SweepSpec::default();
        s.set("apps", "sieve,sor").unwrap();
        s.set("models", "all").unwrap();
        s.set("t", "1-3").unwrap();
        s.set("drop", "0,0.05").unwrap();
        s.set("net", "mesh").unwrap();
        s.set("opt", "auto,none").unwrap();
        s.set("link-bw", "8").unwrap();
        s.set("combining", "true").unwrap();
        s.set("attr", "true").unwrap();
        s.set("scale", "tiny").unwrap();
        s.set("max-cycles", "123456").unwrap();
        s.set("max-retries", "3").unwrap();
        let parsed = SweepSpec::parse_file(&s.canonical()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.canonical(), s.canonical());
    }

    #[test]
    fn smt_width_is_canonical_only_when_non_default_and_wires_into_config() {
        // Default width: canonical form is byte-identical to the pre-SMT
        // rendering (no `smt_width` line), so old checkpoint hashes hold.
        let s = SweepSpec::default();
        assert_eq!(s.smt_width, DEFAULT_SMT_WIDTH);
        assert!(!s.canonical().contains("smt_width"));

        let mut s = SweepSpec::default();
        s.set("models", "smt").unwrap();
        s.set("smt-width", "8").unwrap();
        assert!(s.canonical().ends_with("smt_width=8\n"));
        let parsed = SweepSpec::parse_file(&s.canonical()).unwrap();
        assert_eq!(parsed, s);

        let cfg = s.expand()[0].config();
        assert_eq!(cfg.issue_width, 8);
        assert!(cfg.try_validate().is_ok());

        // Non-SMT points ignore the knob (width stays 1 and validates).
        s.set("models", "switch-on-load").unwrap();
        let cfg = s.expand()[0].config();
        assert_eq!(cfg.issue_width, 1);
        assert!(cfg.try_validate().is_ok());

        let s = SweepSpec { smt_width: 0, ..SweepSpec::default() };
        assert!(s.validate().is_err());
        let mut s = SweepSpec::default();
        assert!(s.set("smt-width", "wide").is_err());
    }

    #[test]
    fn over_wide_ranges_are_rejected_before_expanding() {
        let mut s = SweepSpec::default();
        let err = s.set("threads", "1-99999999999").unwrap_err();
        assert!(err.contains("threads") && err.contains("4096"), "{err}");
        assert!(s.set("seeds", &format!("0-{}", u64::MAX)).is_err());
        assert!(s.set("latency", "1,2-4097").is_err(), "the cap counts the whole list");
        assert_eq!(s.threads, SweepSpec::default().threads, "a failed set leaves the axis");
        s.set("t", &format!("1-{MAX_AXIS_VALUES}")).unwrap();
        assert_eq!(s.threads.len(), MAX_AXIS_VALUES);
    }

    #[test]
    fn grids_past_the_point_cap_fail_validation() {
        let mut s = SweepSpec::default();
        s.set("t", "1-1000").unwrap();
        s.set("seeds", "1-100").unwrap();
        assert_eq!(s.len(), MAX_GRID_POINTS);
        assert!(s.validate().is_ok());
        s.set("latency", "1,2").unwrap();
        assert!(s.validate().unwrap_err().contains("more than 100000 points"));
        // An overflowing product (4096^6 = 2^72) saturates instead of
        // wrapping round to a small grid.
        let n = MAX_AXIS_VALUES;
        let s = SweepSpec {
            models: vec![SwitchModel::SwitchOnLoad; n],
            procs: vec![1; n],
            threads: vec![1; n],
            latencies: vec![1; n],
            seeds: vec![1; n],
            drop_rates: vec![0.0; n],
            ..SweepSpec::default()
        };
        assert_eq!(s.len(), usize::MAX);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let mut s = SweepSpec::default();
        assert!(s.validate().is_ok());
        s.procs.clear();
        assert!(s.validate().is_err());
        let s = SweepSpec { threads: vec![0], ..SweepSpec::default() };
        assert!(s.validate().is_err());
        let s = SweepSpec { drop_rates: vec![1.5], ..SweepSpec::default() };
        assert!(s.validate().is_err());
    }

    #[test]
    fn net_axis_expands_and_wires_into_the_config() {
        let mut s = SweepSpec::default();
        s.set("net", "constant,mesh").unwrap();
        s.set("link-bw", "8").unwrap();
        s.set("combining", "true").unwrap();
        assert_eq!(s.len(), 4); // 2 threads × 2 nets
        let jobs = s.expand();
        assert_eq!(jobs[0].net, Topology::Constant);
        assert_eq!(jobs[1].net, Topology::Mesh);
        let cfg = jobs[1].config();
        assert_eq!(cfg.net.topology, Topology::Mesh);
        assert_eq!(cfg.net.link_bw, 8);
        assert!(cfg.net.combining);
        assert!(s.set("net", "torus").is_err());
        assert!(s.set("combining", "maybe").is_err());

        let mut s = SweepSpec::default();
        s.set("nets", "all").unwrap();
        assert_eq!(s.nets.len(), Topology::ALL.len());
    }

    #[test]
    fn opt_axis_expands_innermost_and_round_trips() {
        let mut s = SweepSpec::default();
        s.set("opt", "auto, intra,none").unwrap();
        assert_eq!(
            s.opts,
            vec![
                OptChoice::Auto,
                OptChoice::Level(OptLevel::Intra),
                OptChoice::Level(OptLevel::None)
            ]
        );
        assert_eq!(s.len(), 6); // 2 threads × 3 opt levels
        let jobs = s.expand();
        assert_eq!(jobs[0].opt, OptChoice::Auto);
        assert_eq!(jobs[1].opt, OptChoice::Level(OptLevel::Intra));
        assert_eq!(jobs[2].opt, OptChoice::Level(OptLevel::None));
        assert_eq!(jobs[3].opt, OptChoice::Auto, "opt nests innermost");
        for gone in ["superduper", "inter", "inter-pipeline"] {
            assert!(s.set("opt", gone).is_err(), "{gone}");
        }

        s.set("opt-level", "all").unwrap();
        assert_eq!(s.opts.len(), 3);
        assert_eq!(s.opts[0], OptChoice::Auto);

        for o in [OptChoice::Auto, OptChoice::Level(OptLevel::Intra)] {
            assert_eq!(OptChoice::from_name(o.name()), Some(o));
            assert_eq!(format!("{o}"), o.name());
        }
        let s = SweepSpec { opts: vec![], ..SweepSpec::default() };
        assert!(s.validate().is_err());
    }

    #[test]
    fn ideal_machine_pins_the_net_axis_to_constant() {
        let spec = SweepSpec {
            models: vec![SwitchModel::Ideal],
            nets: vec![Topology::Butterfly],
            combining: true,
            ..SweepSpec::default()
        };
        let cfg = spec.expand()[0].config();
        assert!(!cfg.net.is_active(), "ideal machine must not simulate a network");
        assert!(cfg.try_validate().is_ok());
    }

    #[test]
    fn config_zeroes_latency_for_ideal_and_wires_faults() {
        let spec = SweepSpec {
            models: vec![SwitchModel::Ideal],
            drop_rates: vec![0.25],
            seeds: vec![7],
            ..SweepSpec::default()
        };
        let job = spec.expand()[0];
        let cfg = job.config();
        assert_eq!(cfg.latency, 0);
        assert!(cfg.fault.is_active());
        assert_eq!(cfg.fault.seed, 7);
    }
}
