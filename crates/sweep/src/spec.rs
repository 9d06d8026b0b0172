//! Declarative sweep specifications and their expansion into jobs.
//!
//! [`KNOBS`] lists every sweep key once; parsing, the canonical text,
//! the grid size, the empty-axis check and expansion all iterate it.

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
    /// Every choice, `auto` first, then each level in [`OptLevel::ALL`] order.
    pub const ALL: [OptChoice; 1 + OptLevel::ALL.len()] =
        [OptChoice::Auto, OptChoice::Level(OptLevel::ALL[0]), OptChoice::Level(OptLevel::ALL[1])];

    /// Stable lowercase name (spec key / column value).
    pub fn name(self) -> &'static str {
        match self {
            OptChoice::Auto => "auto",
            OptChoice::Level(l) => l.name(),
        }
    }

    /// Whether this choice runs the §5.1 grouped image under `model`:
    /// `auto` groups exactly when the model switches explicitly, a
    /// pinned level exactly when it is `intra`. The one image choice
    /// behind both the sweep and `mtsim run --opt-level`.
    pub fn runs_grouped(self, model: SwitchModel) -> bool {
        match self {
            OptChoice::Auto => model.uses_explicit_switch(),
            OptChoice::Level(level) => level == OptLevel::Intra,
        }
    }

    /// Parses a [`name`](OptChoice::name) back into a choice.
    pub fn from_name(s: &str) -> Option<OptChoice> {
        OptChoice::ALL.into_iter().find(|o| o.name() == s)
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
    /// Interconnection-network topologies. `Constant` is the
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

/// Most values one axis may list, counting each value of a `LO-HI`
/// range.
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

/// One sweep key: how [`SweepSpec::set`] parses it, how
/// [`SweepSpec::canonical`] writes it, and how [`SweepSpec::expand`] puts
/// it into each [`JobSpec`]. [`KNOBS`] holds one row per key.
pub struct Knob {
    /// The key as the canonical text writes it.
    pub key: &'static str,
    /// Every spelling [`SweepSpec::set`] accepts, the `mtsim sweep` flag
    /// (without `--`) first.
    pub aliases: &'static [&'static str],
    /// Whether the flag takes no value and sets the key to `true`.
    pub boolean: bool,
    /// Parses a trimmed value into the spec, leaving it as it was on error.
    set: fn(&mut SweepSpec, &str) -> Parsed<()>,
    /// The canonical value text, or `None` when the key is omitted.
    render: fn(&SweepSpec) -> Option<String>,
    /// How many values the axis has; 1 for a scalar, which every job shares.
    values: fn(&SweepSpec) -> usize,
    /// Copies value `i` of this key into a job.
    pick: fn(&SweepSpec, usize, &mut JobSpec),
}

impl Knob {
    /// The `mtsim sweep` flag, without `--`.
    pub fn flag(&self) -> &'static str {
        self.aliases[0]
    }
}

/// Builds a [`Knob`] row from a [`SweepSpec`] field, the [`JobSpec`]
/// field each job copies it into, and the value parser. An `axis` field
/// is a list, each job taking one value; a `scalar` is one value every
/// job shares; a `switch` is a boolean scalar whose flag takes no value.
macro_rules! knob {
    (@values axis $field:expr) => { &$field[..] };
    (@values scalar $field:expr) => { std::slice::from_ref(&$field) };
    (scalar $key:literal $aliases:tt $field:ident, $parse:expr) => {
        knob!(scalar $key $aliases $field -> $field, $parse)
    };
    (switch $key:literal $field:ident) => {
        Knob { boolean: true, ..knob!(scalar $key [$key] $field, parse_bool) }
    };
    ($shape:ident $key:literal [$($alias:literal),+] $spec:ident -> $job:ident, $parse:expr) => {
        Knob {
            key: $key,
            aliases: &[$($alias),+],
            boolean: false,
            set: |s, v| {
                let parse: fn(&str) -> Parsed<_> = $parse;
                parse(v).map(|x| s.$spec = x)
            },
            render: |s| Some(join(knob!(@values $shape s.$spec), ",")),
            values: |s| knob!(@values $shape s.$spec).len(),
            pick: |s, i, job| job.$job = knob!(@values $shape s.$spec)[i],
        }
    };
}

/// Every sweep key, in canonical-text order. The axes nest in this order
/// too, the last innermost: app, model, P, T, latency, seed, drop rate,
/// net, opt.
pub const KNOBS: &[Knob] = &[
    knob!(axis "apps" ["apps", "app"] apps -> app, |v| names(v, &AppKind::ALL, "app")),
    knob!(axis "models" ["models", "model"] models -> model,
        |v| names(v, &SwitchModel::ALL, "model")),
    knob!(axis "procs" ["p", "procs"] procs -> procs, usize_list),
    knob!(axis "threads" ["t", "threads"] threads -> threads_per_proc, usize_list),
    knob!(axis "latencies" ["latency", "latencies"] latencies -> latency, u64_list),
    knob!(axis "seeds" ["seeds", "seed"] seeds -> seed, u64_list),
    knob!(axis "drop_rates" ["drop", "drop-rates", "drop_rates"] drop_rates -> drop_rate,
        f64_list),
    knob!(axis "nets" ["net", "nets"] nets -> net, |v| names(v, &Topology::ALL, "topology")),
    knob!(axis "opts" ["opt", "opts", "opt-level", "opt_level"] opts -> opt,
        |v| names(v, &OptChoice::ALL, "opt level")),
    knob!(scalar "link_bw" ["link-bw", "link_bw"] link_bw, parse_int),
    knob!(switch "combining" combining),
    knob!(switch "attr" attr),
    knob!(scalar "scale" ["scale"] scale, |v| name(v, &Scale::ALL, "scale")),
    knob!(scalar "max_cycles" ["max-cycles", "max_cycles"] max_cycles, parse_int),
    knob!(scalar "max_retries" ["max-retries", "max_retries"] max_retries, parse_int),
    Knob {
        // Omitted at its default; see `SweepSpec::smt_width`.
        render: |s| (s.smt_width != DEFAULT_SMT_WIDTH).then(|| s.smt_width.to_string()),
        ..knob!(scalar "smt_width" ["smt-width", "smt_width"] smt_width, parse_int)
    },
];

impl SweepSpec {
    /// Sets one axis or scalar from any spelling of its [`KNOBS`] key.
    /// Lists are comma-separated and hold at most [`MAX_AXIS_VALUES`]
    /// values; integer axes also accept `LO-HI` ranges (`t = 1-8`);
    /// `apps`, `models`, `nets` and `opts` accept `all`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending key/value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let knob = KNOBS.iter().find(|k| k.aliases.contains(&key));
        let knob = knob.ok_or_else(|| format!("unknown sweep key {key:?}"))?;
        (knob.set)(self, value.trim()).map_err(|e| format!("key {key:?}: {e}"))
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
        if let Some(knob) = KNOBS.iter().find(|k| (k.values)(self) == 0) {
            return Err(format!("sweep axis {:?} is empty", knob.key));
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
        // Every distinct machine of the grid is within the engine's size
        // caps before any app is built. Apps, seeds and opt levels do not
        // size the machine, so one value of each stands in for its axis.
        // Other invalid machines stay per-row `config` errors.
        let machines = SweepSpec {
            apps: self.apps[..1].to_vec(),
            seeds: self.seeds[..1].to_vec(),
            opts: self.opts[..1].to_vec(),
            ..self.clone()
        };
        for job in machines.expand() {
            job.config().check_caps().map_err(|e| {
                format!("{} at P={} T={}: {e}", job.model, job.procs, job.threads_per_proc)
            })?;
        }
        Ok(())
    }

    /// Number of grid points without materializing them, saturating at
    /// `usize::MAX`.
    pub fn len(&self) -> usize {
        KNOBS.iter().map(|k| (k.values)(self)).fold(1, usize::saturating_mul)
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A canonical, order-stable rendering of every field that shapes the
    /// grid or its results, one `key=value` line per [`KNOBS`] row. Two
    /// specs produce byte-identical result tables iff their canonical
    /// forms are equal, so the checkpoint layer hashes this string to
    /// decide whether a resume is legal.
    ///
    /// The rendering is itself a valid spec file:
    /// `parse_file(canonical())` reproduces the spec exactly, which is
    /// how `mtsim serve` persists submitted sweeps for restart-resume.
    pub fn canonical(&self) -> String {
        KNOBS.iter().filter_map(|k| Some(format!("{}={}\n", k.key, (k.render)(self)?))).collect()
    }

    /// Expands the grid into concrete jobs in the nested axis order of
    /// [`KNOBS`] (app, model, P, T, latency, seed, drop rate, net, opt),
    /// assigning sequential ids. The id — not submission or completion
    /// order — keys the result table, so the output is reproducible at
    /// any worker count.
    pub fn expand(&self) -> Vec<JobSpec> {
        let sizes: Vec<usize> = KNOBS.iter().map(|k| (k.values)(self)).collect();
        let mut job = JobSpec::default();
        (0..self.len())
            .map(|id| {
                // The id's mixed-radix digits, one per row, the last
                // row's digit lowest.
                let mut rest = id;
                for (knob, &size) in KNOBS.iter().zip(&sizes).rev() {
                    (knob.pick)(self, rest % size, &mut job);
                    rest /= size;
                }
                JobSpec { id, ..job }
            })
            .collect()
    }
}

/// A parsed value, or a message naming what is wrong with it.
type Parsed<T> = Result<T, String>;

/// Parses a comma-separated list of at most [`MAX_AXIS_VALUES`] values;
/// `part` yields the values of one trimmed item (several for a range).
fn list<I: Iterator>(value: &str, part: impl Fn(&str) -> Parsed<I>) -> Parsed<Vec<I::Item>> {
    let mut out = Vec::new();
    for item in value.split(',').map(str::trim) {
        let values = part(item)?;
        // Counted before collecting, as a range is materialized value by
        // value: a range's size hint is its length, saturating.
        if values.size_hint().0 > MAX_AXIS_VALUES - out.len() {
            return Err(format!("{item:?} makes the list longer than {MAX_AXIS_VALUES} values"));
        }
        out.extend(values);
    }
    Ok(out)
}

/// The one of `every` whose display name is `value`.
fn name<T: Copy + std::fmt::Display>(value: &str, every: &[T], what: &str) -> Parsed<T> {
    let found = every.iter().copied().find(|x| x.to_string() == value);
    found.ok_or_else(|| format!("unknown {what} {value:?} (want {})", join(every, ", ")))
}

/// A comma-separated list of names, or `all` for `every`.
fn names<T: Copy + std::fmt::Display>(value: &str, every: &[T], what: &str) -> Parsed<Vec<T>> {
    if value == "all" {
        return Ok(every.to_vec());
    }
    list(value, |s| name(s, every, what).map(std::iter::once))
}

/// `"1,2,4"` and `"1-4"` (inclusive) both work, and mix: `"1,4-6"`.
fn u64_list(value: &str) -> Parsed<Vec<u64>> {
    list(value, |part| match part.split_once('-') {
        Some((lo, hi)) => {
            let bound = |b: &str| b.trim().parse().map_err(|_| format!("bad range {part:?}"));
            let (lo, hi): (u64, u64) = (bound(lo)?, bound(hi)?);
            (lo <= hi).then_some(lo..=hi).ok_or_else(|| format!("empty range {part:?}"))
        }
        None => part.parse().map(|n| n..=n).map_err(|_| format!("bad integer {part:?}")),
    })
}

fn usize_list(value: &str) -> Parsed<Vec<usize>> {
    let too_large = |n| format!("{n} is too large");
    u64_list(value)?.into_iter().map(|n| usize::try_from(n).map_err(|_| too_large(n))).collect()
}

fn f64_list(value: &str) -> Parsed<Vec<f64>> {
    list(value, |s| s.parse().map(std::iter::once).map_err(|_| format!("bad float {s:?}")))
}

fn parse_int<T: std::str::FromStr>(value: &str) -> Parsed<T> {
    value.parse().map_err(|_| format!("bad integer {value:?}"))
}

fn parse_bool(value: &str) -> Parsed<bool> {
    match value {
        "true" | "1" | "on" | "yes" => Ok(true),
        "false" | "0" | "off" | "no" => Ok(false),
        _ => Err(format!("bad boolean {value:?}")),
    }
}

fn join<T: std::fmt::Display>(items: &[T], sep: &str) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(sep)
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

impl Default for JobSpec {
    /// The first point of [`SweepSpec::default`]'s grid. [`SweepSpec::expand`]
    /// starts from it, and each [`KNOBS`] row overwrites its own field.
    fn default() -> JobSpec {
        JobSpec {
            id: 0,
            app: AppKind::Sieve,
            model: SwitchModel::SwitchOnLoad,
            procs: 2,
            threads_per_proc: 1,
            latency: 200,
            seed: 0,
            drop_rate: 0.0,
            net: Topology::Constant,
            opt: OptChoice::Auto,
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
        assert_eq!(jobs[0], JobSpec::default());
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
        let e = s.set("scale", "huge").unwrap_err();
        assert_eq!(e, "key \"scale\": unknown scale \"huge\" (want tiny, small, full)");
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
        // Name and float lists share the cap.
        for (key, item) in [("drop", "0"), ("apps", "sieve")] {
            let err = s.set(key, &vec![item; MAX_AXIS_VALUES + 1].join(",")).unwrap_err();
            assert!(err.contains(key) && err.contains("4096"), "{err}");
            s.set(key, &vec![item; MAX_AXIS_VALUES].join(",")).unwrap();
        }
        assert_eq!((s.drop_rates.len(), s.apps.len()), (MAX_AXIS_VALUES, MAX_AXIS_VALUES));
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

        // Every machine of the grid is checked against the engine's caps.
        let mut s = SweepSpec::default();
        s.set("threads", "2,100000000").unwrap();
        let e = s.validate().unwrap_err();
        assert!(e.contains("T=100000000") && e.contains("hardware contexts"), "{e}");

        let mut s = SweepSpec::default();
        s.set("latencies", "200,18446744073709551615").unwrap();
        assert!(s.validate().unwrap_err().contains("latency 18446744073709551615"));
        // The ideal machine runs at latency 0 whatever the axis says.
        s.set("models", "ideal").unwrap();
        assert!(s.validate().is_ok());

        // A machine invalid for a reason other than a cap is left to its
        // grid rows, which fail as `config` errors while the rest run.
        let mut s = SweepSpec::default();
        s.set("models", "all").unwrap();
        s.set("drop_rates", "0,0.05").unwrap();
        assert!(s.validate().is_ok());
        assert!(s.expand().iter().any(|j| j.config().try_validate().is_err()));
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
