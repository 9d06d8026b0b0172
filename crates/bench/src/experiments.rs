//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns structured rows so the `--bin` printers and the
//! shape-check integration tests share one implementation. Absolute
//! numbers differ from the 1992 testbed (scaled workloads, reconstructed
//! applications); EXPERIMENTS.md records the paper-vs-measured comparison
//! and the shape criteria.

use mtsim_apps::{
    app_builder, baseline_cycles, build_app, efficiency, run_app, run_program, AppKind, Scale,
};
use mtsim_core::{MachineConfig, NoopRecorder, RunLengthHist, RunStats, SwitchModel, Topology};
use mtsim_sweep::{run_job_specs, JobOutcome, JobSpec, SweepOpts};

/// Watchdog for every experiment run (generous; catches deadlocks).
const MAX_CYCLES: u64 = 300_000_000;

fn cfg(model: SwitchModel, procs: usize, t: usize) -> MachineConfig {
    let mut c = MachineConfig::new(model, procs, t);
    c.max_cycles = MAX_CYCLES;
    c
}

/// The per-application processor count used by the multithreading tables
/// (the paper lists one per app, e.g. "sieve (16)", "mp3d (32)").
pub fn procs_for(kind: AppKind, scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2,
        Scale::Small => match kind {
            AppKind::Sieve => 8,
            AppKind::Mp3d => 8,
            _ => 4,
        },
        Scale::Full => match kind {
            AppKind::Sieve => 16,
            AppKind::Mp3d => 16,
            _ => 8,
        },
    }
}

/// Highest multithreading level the sweeps explore.
pub fn max_t(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 6,
        Scale::Small => 24,
        Scale::Full => 32,
    }
}

/// The efficiency targets of Tables 3, 5, 6 and 8.
pub const TARGETS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One row of Table 1: application inventory.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application.
    pub app: AppKind,
    /// Static instruction count of the built program (the paper reports
    /// source lines; static instructions are the analogue we have).
    pub static_insts: usize,
    /// Serial cycles on the ideal machine (the paper's "Cycles" column).
    pub serial_cycles: u64,
    /// Dynamic shared accesses in the serial run.
    pub shared_reads: u64,
}

/// Regenerates Table 1 at the given scale.
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let app = build_app(kind, scale, 1);
            let mut c = MachineConfig::ideal(1);
            c.max_cycles = MAX_CYCLES;
            let r = run_app(&app, c).expect("table1 run");
            Table1Row {
                app: kind,
                static_insts: app.program.len(),
                serial_cycles: r.cycles,
                shared_reads: r.reads_issued,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// One efficiency point.
#[derive(Debug, Clone, Copy)]
pub struct EffPoint {
    /// Processor count.
    pub procs: usize,
    /// Efficiency (speedup / processors).
    pub efficiency: f64,
}

/// Figure 2: efficiency vs processors on the ideal (0-latency) machine.
pub fn fig2(scale: Scale, procs: &[usize]) -> Vec<(AppKind, Vec<EffPoint>)> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let build = app_builder(kind, scale);
            let baseline = baseline_cycles(&build);
            let pts = procs
                .iter()
                .map(|&p| {
                    let app = build(p);
                    let mut c = MachineConfig::ideal(p);
                    c.max_cycles = MAX_CYCLES;
                    let r = run_app(&app, c).expect("fig2 run");
                    EffPoint { procs: p, efficiency: efficiency(baseline, p, r.cycles) }
                })
                .collect();
            (kind, pts)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Tables 2 and 4: run-length distributions
// ---------------------------------------------------------------------

/// One row of Table 2 / Table 4.
#[derive(Debug, Clone)]
pub struct RunLenRow {
    /// Application.
    pub app: AppKind,
    /// The run-length histogram.
    pub hist: RunLengthHist,
    /// Dynamic grouping factor (Table 4's "grouping" column; ~1 for the
    /// ungrouped switch-on-load runs of Table 2).
    pub grouping: f64,
}

/// Run-length distributions under `model` (Table 2 uses `SwitchOnLoad`,
/// Table 4 `ExplicitSwitch` on the grouped code).
pub fn run_length_table(scale: Scale, model: SwitchModel) -> Vec<RunLenRow> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let procs = procs_for(kind, scale).min(4);
            let t = 2;
            let app = build_app(kind, scale, procs * t);
            let r = run_app(&app, cfg(model, procs, t)).expect("run-length run");
            let grouping =
                if model.uses_explicit_switch() { r.dynamic_grouping_factor() } else { 1.0 };
            RunLenRow { app: kind, hist: r.run_lengths, grouping }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// Figure 3: sieve efficiency vs processors at several multithreading
/// levels (switch-on-load, 200-cycle latency), plus the ideal curve.
///
/// Returns `(label, points)` per curve.
pub fn fig3(scale: Scale, levels: &[usize], procs: &[usize]) -> Vec<(String, Vec<EffPoint>)> {
    let build = app_builder(AppKind::Sieve, scale);
    let baseline = baseline_cycles(&build);
    let mut curves = Vec::new();

    let ideal_pts = procs
        .iter()
        .map(|&p| {
            let app = build(p);
            let mut c = MachineConfig::ideal(p);
            c.max_cycles = MAX_CYCLES;
            let r = run_app(&app, c).expect("fig3 ideal");
            EffPoint { procs: p, efficiency: efficiency(baseline, p, r.cycles) }
        })
        .collect();
    curves.push(("ideal".to_string(), ideal_pts));

    for &t in levels {
        let pts = procs
            .iter()
            .map(|&p| {
                let app = build(p * t);
                let r = run_app(&app, cfg(SwitchModel::SwitchOnLoad, p, t)).expect("fig3 run");
                EffPoint { procs: p, efficiency: efficiency(baseline, p, r.cycles) }
            })
            .collect();
        curves.push((format!("T={t}"), pts));
    }
    curves
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Figure 4: the sor inner-loop listing before and after grouping.
/// Returns `(original, grouped)` listings of the hottest block.
pub fn fig4() -> (String, String) {
    let app = build_app(AppKind::Sor, Scale::Tiny, 1);
    let (grouped, _) = app.grouped();
    (app.program.listing(), grouped.listing())
}

// ---------------------------------------------------------------------
// Tables 3, 5, 8: multithreading levels for target efficiencies
// ---------------------------------------------------------------------

/// One row of a multithreading-level table.
#[derive(Debug, Clone)]
pub struct MtRow {
    /// Application.
    pub app: AppKind,
    /// Processor count used for the sweep.
    pub procs: usize,
    /// For each entry of [`TARGETS`], the smallest multithreading level
    /// reaching it (or `None`, printed `-` as in the paper).
    pub needed: Vec<Option<usize>>,
    /// Efficiency at each tried level (for the curious).
    pub efficiencies: Vec<f64>,
}

/// The ideal-machine serial baseline as a sweep job (the denominator of
/// every efficiency figure).
fn baseline_job(id: usize, app: AppKind, scale: Scale) -> JobSpec {
    JobSpec {
        id,
        app,
        model: SwitchModel::Ideal,
        procs: 1,
        threads_per_proc: 1,
        latency: 0,
        scale,
        max_cycles: MAX_CYCLES,
        ..JobSpec::default()
    }
}

/// Unwraps a sweep job's stats, panicking with context on failure — the
/// table generators treat any failing grid point as a broken experiment,
/// exactly as the pre-sweep serial code did.
fn stats_or_panic<'a>(job: &'a JobOutcome, what: &str) -> &'a RunStats {
    match &job.result {
        Ok(stats) => stats,
        Err(e) => panic!(
            "{what} failed for {} under {} (p={}, t={}): {e}",
            job.spec.app, job.spec.model, job.spec.procs, job.spec.threads_per_proc
        ),
    }
}

/// Tables 3 (`SwitchOnLoad`), 5 (`ExplicitSwitch`) and 8
/// (`ConditionalSwitch`): the multithreading level needed per efficiency
/// target.
///
/// Runs on the `mtsim-sweep` engine with `workers` threads (`None` =
/// machine default), evaluating the full `1..=max_t` grid for every app.
/// The result is a pure function of the grid — identical at any worker
/// count.
pub fn mt_table(scale: Scale, model: SwitchModel, workers: Option<usize>) -> Vec<MtRow> {
    // Per-app grid: one ideal baseline plus max_t multithreaded points.
    // Ids are laid out app-major so aggregation can index directly.
    let tmax = max_t(scale);
    let stride = tmax + 1;
    let mut jobs = Vec::with_capacity(AppKind::ALL.len() * stride);
    for (a, &kind) in AppKind::ALL.iter().enumerate() {
        let procs = procs_for(kind, scale);
        jobs.push(baseline_job(a * stride, kind, scale));
        for t in 1..=tmax {
            jobs.push(JobSpec {
                model,
                procs,
                threads_per_proc: t,
                latency: 200,
                ..baseline_job(a * stride + t, kind, scale)
            });
        }
    }
    let out = run_job_specs(jobs, &SweepOpts { workers, progress: false, ..SweepOpts::default() });

    AppKind::ALL
        .iter()
        .enumerate()
        .map(|(a, &kind)| {
            let procs = procs_for(kind, scale);
            let baseline = stats_or_panic(&out.jobs[a * stride], "baseline").cycles;
            let effs: Vec<f64> = (1..=tmax)
                .map(|t| {
                    let s = stats_or_panic(&out.jobs[a * stride + t], "mt run");
                    efficiency(baseline, procs, s.cycles)
                })
                .collect();
            let needed = TARGETS
                .iter()
                .map(|&target| effs.iter().position(|&e| e >= target).map(|i| i + 1))
                .collect();
            MtRow { app: kind, procs, needed, efficiencies: effs }
        })
        .collect()
}

/// Table 5's last column: the ideal-machine slowdown of the reorganized
/// (grouped) code vs the original — the cost of the added `Switch`
/// instructions and the looser schedule. Returns `(app, penalty)` with
/// `penalty = grouped/original - 1`.
pub fn reorganization_penalty(scale: Scale) -> Vec<(AppKind, f64)> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let app = build_app(kind, scale, 1);
            let mut c = MachineConfig::ideal(1);
            c.max_cycles = MAX_CYCLES;
            let orig = run_program(&app, &app.program, c.clone(), &mut NoopRecorder)
                .expect("penalty original")
                .cycles;
            let (grouped, _) = app.grouped();
            let re =
                run_program(&app, &grouped, c, &mut NoopRecorder).expect("penalty grouped").cycles;
            (kind, re as f64 / orig as f64 - 1.0)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 6: inter-block grouping estimate (§5.2)
// ---------------------------------------------------------------------

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Application.
    pub app: AppKind,
    /// One-line-cache hit rate (the paper: ugray 42 %, locus 84 %).
    pub one_line_hit_rate: f64,
    /// Dynamic grouping factor without the estimator.
    pub grouping_before: f64,
    /// Revised grouping factor with one-line-hit groups merged.
    pub grouping_after: f64,
    /// Multithreading levels needed per target, estimator on.
    pub needed: Vec<Option<usize>>,
}

/// Table 6: revised multithreading figures under the §5.2 inter-block
/// grouping estimator.
pub fn table6(scale: Scale) -> Vec<Table6Row> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let procs = procs_for(kind, scale);
            let build = app_builder(kind, scale);
            let baseline = baseline_cycles(&build);

            // Measurement run (moderate T) for hit rate and factors.
            let t0 = 2;
            let app = build_app(kind, scale, procs.min(4) * t0);
            let plain = run_app(&app, cfg(SwitchModel::ExplicitSwitch, procs.min(4), t0))
                .expect("t6 plain");
            let est = run_app(
                &app,
                cfg(SwitchModel::ExplicitSwitch, procs.min(4), t0).with_interblock_estimate(true),
            )
            .expect("t6 est");

            let mut effs = Vec::new();
            let mut best = 0.0f64;
            for t in 1..=max_t(scale) {
                let app = build(procs * t);
                let r = run_app(
                    &app,
                    cfg(SwitchModel::ExplicitSwitch, procs, t).with_interblock_estimate(true),
                )
                .expect("t6 sweep");
                let e = efficiency(baseline, procs, r.cycles);
                effs.push(e);
                best = best.max(e);
                if best >= TARGETS[TARGETS.len() - 1] {
                    break;
                }
            }
            let needed = TARGETS
                .iter()
                .map(|&target| effs.iter().position(|&e| e >= target).map(|i| i + 1))
                .collect();

            // Revised factor: reads per *taken* switch point.
            let after = if est.switches_taken == 0 {
                est.reads_issued as f64
            } else {
                est.reads_issued as f64 / est.switches_taken as f64
            };
            Table6Row {
                app: kind,
                one_line_hit_rate: est.one_line_hit_rate(),
                grouping_before: plain.dynamic_grouping_factor(),
                grouping_after: after,
                needed,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Model frontier: every switch model on the trace-replay workload
// ---------------------------------------------------------------------

/// One row of the model-frontier comparison (DESIGN.md §22): one switch
/// model on the `replay` workload, efficiency per multithreading level.
#[derive(Debug, Clone)]
pub struct ModelFrontierRow {
    /// The switch model.
    pub model: SwitchModel,
    /// Processor count (shared by every row).
    pub procs: usize,
    /// Efficiency at each level of [`frontier_levels`], in order.
    pub efficiencies: Vec<f64>,
}

/// The multithreading levels the model frontier is evaluated at.
pub fn frontier_levels(scale: Scale) -> Vec<usize> {
    let mut levels = vec![1, 2, 4];
    let top = max_t(scale);
    if !levels.contains(&top) {
        levels.push(top);
    }
    levels
}

/// The model frontier: every switch model (the registry order of
/// [`SwitchModel::ALL`]) on the trace-replay workload at the Table-6
/// operating point — the per-app processor count and 200-cycle round
/// trips — swept over [`frontier_levels`]. SMT runs at its default issue
/// width.
///
/// The replay workload weak-scales: every hardware context carries its
/// own fixed-length trace stream, so the problem size grows with
/// `procs * t`. Efficiency therefore uses a *per-level* baseline — the
/// same `procs * t` trace threads run serially on the ideal zero-latency
/// machine — which keeps the ratio a strong-scaling comparison at equal
/// total work (ideal lands near 100% at every level).
///
/// Runs on the `mtsim-sweep` engine with `workers` threads (`None` =
/// machine default); the result is a pure function of the grid.
pub fn model_frontier(scale: Scale, workers: Option<usize>) -> Vec<ModelFrontierRow> {
    let kind = AppKind::Replay;
    let procs = procs_for(kind, scale);
    let levels = frontier_levels(scale);
    let nlev = levels.len();
    let mut jobs: Vec<JobSpec> = levels
        .iter()
        .enumerate()
        .map(|(i, &t)| JobSpec { threads_per_proc: procs * t, ..baseline_job(i, kind, scale) })
        .collect();
    for (m, &model) in SwitchModel::ALL.iter().enumerate() {
        for (i, &t) in levels.iter().enumerate() {
            jobs.push(JobSpec {
                model,
                procs,
                threads_per_proc: t,
                latency: 200,
                ..baseline_job(nlev + m * nlev + i, kind, scale)
            });
        }
    }
    let out = run_job_specs(jobs, &SweepOpts { workers, progress: false, ..SweepOpts::default() });
    let baselines: Vec<u64> =
        (0..nlev).map(|i| stats_or_panic(&out.jobs[i], "frontier baseline").cycles).collect();
    SwitchModel::ALL
        .iter()
        .enumerate()
        .map(|(m, &model)| {
            let efficiencies = (0..nlev)
                .map(|i| {
                    let s = stats_or_panic(&out.jobs[nlev + m * nlev + i], "frontier run");
                    efficiency(baselines[i], procs, s.cycles)
                })
                .collect();
            ModelFrontierRow { model, procs, efficiencies }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Optimizer gains: measured passes vs the §5.2 estimate
// ---------------------------------------------------------------------

/// One application's measured grouping against the §5.2 estimate.
#[derive(Debug, Clone)]
pub struct OptGainRow {
    /// Application.
    pub app: AppKind,
    /// Cycles to completion of the grouped (`intra`) image at the Table 6
    /// measurement point (explicit-switch, `procs_for(..).min(4)`
    /// processors, T=2).
    pub cycles: u64,
    /// Dynamic grouping factor (reads per taken switch) observed.
    pub dyn_grouping: f64,
    /// Static mean group size reported by the grouping pass.
    pub group_mean: f64,
    /// The §5.2 one-line-cache estimate of the achievable grouping
    /// factor (Table 6's "revised" column) — an upper bound that assumes
    /// every one-line-cache hit merges its group with the previous one.
    pub estimated_factor: f64,
}

/// Measured intra-block grouping per app against the paper's §5.2
/// estimate of what inter-block grouping could reach, both at the
/// Table 6 measurement point.
pub fn opt_gains(scale: Scale) -> Vec<OptGainRow> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let procs = procs_for(kind, scale).min(4);
            let t = 2;
            let app = build_app(kind, scale, procs * t);

            let est = run_app(
                &app,
                cfg(SwitchModel::ExplicitSwitch, procs, t).with_interblock_estimate(true),
            )
            .expect("opt_gains estimate run");
            let estimated_factor = if est.switches_taken == 0 {
                est.reads_issued as f64
            } else {
                est.reads_issued as f64 / est.switches_taken as f64
            };

            let (grouped, stats) = app.grouped();
            let c = cfg(SwitchModel::ExplicitSwitch, procs, t);
            let r =
                run_program(&app, &grouped, c, &mut NoopRecorder).expect("opt_gains grouped run");
            OptGainRow {
                app: kind,
                cycles: r.cycles,
                dyn_grouping: r.dynamic_grouping_factor(),
                group_mean: stats.grouping_factor(),
                estimated_factor,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 7 (§6.1): cache hit rates and bandwidth
// ---------------------------------------------------------------------

/// One row of the §6.1 cache/bandwidth comparison.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Application.
    pub app: AppKind,
    /// Bandwidth demand without caching (explicit-switch), bits/cycle/proc.
    pub uncached_bits_per_cycle: f64,
    /// Cache hit rate under conditional-switch.
    pub hit_rate: f64,
    /// Bandwidth demand with caching, bits/cycle/proc.
    pub cached_bits_per_cycle: f64,
    /// Invalidation messages per 1000 cycles (coherency overhead).
    pub invalidations_per_kcycle: f64,
}

/// §6.1: bandwidth with and without caching, plus hit rates.
pub fn table7(scale: Scale) -> Vec<Table7Row> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let procs = procs_for(kind, scale).min(8);
            let t = 4;
            let app = build_app(kind, scale, procs * t);
            let un =
                run_app(&app, cfg(SwitchModel::ExplicitSwitch, procs, t)).expect("t7 uncached");
            let ca =
                run_app(&app, cfg(SwitchModel::ConditionalSwitch, procs, t)).expect("t7 cached");
            let cache = ca.cache.expect("cache stats");
            let inval = ca.traffic.messages_of(mtsim_mem::MsgClass::Invalidate) as f64
                / ca.cycles as f64
                * 1000.0;
            Table7Row {
                app: kind,
                uncached_bits_per_cycle: un.bits_per_cycle(),
                hit_rate: cache.hit_rate(),
                cached_bits_per_cycle: ca.bits_per_cycle(),
                invalidations_per_kcycle: inval,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §6.2 ablation: the forced-switch interval
// ---------------------------------------------------------------------

/// One point of the forced-switch ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The `max_run` setting (`None` = forced switch disabled).
    pub max_run: Option<u64>,
    /// `(cycles, forced switches, mean run-length)` — or `None` when the
    /// run livelocked: with the forced switch disabled, a thread spinning
    /// on a cached lock word never yields and starves the lock holder on
    /// its own processor. That starvation is exactly the §6.2 pathology
    /// the paper's 200-cycle flag exists to fix.
    pub outcome: Option<(u64, u64, f64)>,
}

/// §6.2: ugray under conditional-switch with different forced-switch
/// intervals (the paper's fix for lock-holders being starved by
/// cache-hit runs of thousands of cycles).
pub fn max_run_ablation(scale: Scale, settings: &[Option<u64>]) -> Vec<AblationRow> {
    let procs = procs_for(AppKind::Ugray, scale);
    let t = 4;
    let app = build_app(AppKind::Ugray, scale, procs * t);
    // Nominal run with the paper's setting: yields the watchdog budget for
    // the risky settings.
    let nominal = run_app(&app, cfg(SwitchModel::ConditionalSwitch, procs, t))
        .expect("nominal ablation run")
        .cycles;
    settings
        .iter()
        .map(|&mr| {
            let mut c = cfg(SwitchModel::ConditionalSwitch, procs, t).with_max_run(mr);
            c.max_cycles = nominal.saturating_mul(50).max(1_000_000);
            let outcome =
                run_app(&app, c).ok().map(|r| (r.cycles, r.forced_switches, r.run_lengths.mean()));
            AblationRow { max_run: mr, outcome }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_tiny_runs() {
        let rows = table1(Scale::Tiny);
        assert_eq!(rows.len(), AppKind::ALL.len());
        assert!(rows.iter().all(|r| r.serial_cycles > 0 && r.static_insts > 20));
    }

    #[test]
    fn fig2_efficiency_declines_with_processors() {
        let curves = fig2(Scale::Tiny, &[1, 4]);
        for (app, pts) in &curves {
            assert!(
                pts[0].efficiency > 0.95,
                "{app}: single-processor efficiency {}",
                pts[0].efficiency
            );
            assert!(pts[1].efficiency <= pts[0].efficiency + 0.05, "{app}");
        }
    }

    #[test]
    fn fig4_listings_differ_by_switches() {
        let (orig, grouped) = fig4();
        assert!(!orig.contains("switch"));
        assert!(grouped.contains("switch"));
    }

    #[test]
    fn penalty_is_small_and_nonnegative() {
        for (app, p) in reorganization_penalty(Scale::Tiny) {
            assert!((-0.01..0.30).contains(&p), "{app}: penalty {p}");
        }
    }

    #[test]
    fn opt_gains_tiny_shape() {
        let rows = opt_gains(Scale::Tiny);
        assert_eq!(rows.len(), AppKind::ALL.len());
        for row in &rows {
            assert!(row.estimated_factor >= 1.0, "{}: estimate below 1", row.app);
            assert!(row.cycles > 0, "{}: empty run", row.app);
            assert!(row.dyn_grouping >= 1.0, "{}: grouping below 1", row.app);
            // The estimate is an upper bound on the measured grouping.
            assert!(
                row.estimated_factor >= row.dyn_grouping - 1e-9,
                "{}: estimate {} below measured {}",
                row.app,
                row.estimated_factor,
                row.dyn_grouping
            );
        }
    }
}

// ---------------------------------------------------------------------
// Latency tolerance (the paper's title claim)
// ---------------------------------------------------------------------

/// One latency-sweep point.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Round-trip latency in cycles.
    pub latency: u64,
    /// Efficiency per model, in the order of `LATENCY_MODELS`.
    pub efficiency: Vec<f64>,
}

/// Models compared by [`latency_sweep`].
pub const LATENCY_MODELS: [SwitchModel; 3] =
    [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch, SwitchModel::ConditionalSwitch];

/// The title claim — "easily tolerate latencies of hundreds of cycles":
/// efficiency of one application as the round trip grows from 50 to 800
/// cycles at a fixed multithreading level.
///
/// Runs on the `mtsim-sweep` engine with `workers` threads (`None` =
/// machine default); the app builds once and every (model, latency)
/// point shares the cached artifact.
pub fn latency_sweep(
    kind: AppKind,
    scale: Scale,
    procs: usize,
    t: usize,
    latencies: &[u64],
    workers: Option<usize>,
) -> Vec<LatencyRow> {
    let mut jobs = vec![baseline_job(0, kind, scale)];
    for (i, &lat) in latencies.iter().enumerate() {
        for (m, &model) in LATENCY_MODELS.iter().enumerate() {
            jobs.push(JobSpec {
                model,
                procs,
                threads_per_proc: t,
                latency: lat,
                ..baseline_job(1 + i * LATENCY_MODELS.len() + m, kind, scale)
            });
        }
    }
    let out = run_job_specs(jobs, &SweepOpts { workers, progress: false, ..SweepOpts::default() });
    let baseline = stats_or_panic(&out.jobs[0], "latency baseline").cycles;
    latencies
        .iter()
        .enumerate()
        .map(|(i, &lat)| {
            let efficiency_by_model = (0..LATENCY_MODELS.len())
                .map(|m| {
                    let s = stats_or_panic(
                        &out.jobs[1 + i * LATENCY_MODELS.len() + m],
                        "latency sweep run",
                    );
                    efficiency(baseline, procs, s.cycles)
                })
                .collect();
            LatencyRow { latency: lat, efficiency: efficiency_by_model }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Network contention (PR 4, beyond the paper)
// ---------------------------------------------------------------------

/// One saturation curve: a (model, topology, combining) configuration
/// evaluated across the offered-load axis (threads per processor).
#[derive(Debug, Clone)]
pub struct NetCurve {
    /// Context-switch model.
    pub model: SwitchModel,
    /// Interconnection topology.
    pub topology: Topology,
    /// Whether the switches combine concurrent fetch-and-adds.
    pub combining: bool,
    /// One point per entry of the `ts` axis, in order.
    pub points: Vec<NetPoint>,
}

/// One offered-load point of a [`NetCurve`].
#[derive(Debug, Clone, Copy)]
pub struct NetPoint {
    /// Threads per processor (the offered-load knob).
    pub threads_per_proc: usize,
    /// Wall-clock cycles of the run.
    pub cycles: u64,
    /// Mean modeled round-trip latency over all network requests.
    pub net_mean_latency: f64,
    /// Total cycles messages spent queued on busy links.
    pub net_queue_cycles: u64,
    /// Fetch-and-adds merged in flight (0 without combining).
    pub net_fa_combined: u64,
}

/// Models compared by [`net_contention`].
pub const NET_MODELS: [SwitchModel; 2] = [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch];

/// The (topology, combining) configurations [`net_contention`] sweeps:
/// the paper's contention-free pipe as the control, then each contention
/// topology with and without combining.
pub fn net_configs() -> Vec<(Topology, bool)> {
    let mut cfgs = vec![(Topology::Constant, false)];
    for t in [Topology::Crossbar, Topology::Mesh, Topology::Butterfly] {
        cfgs.push((t, false));
        cfgs.push((t, true));
    }
    cfgs
}

/// Network saturation curves: per switch model and topology, how the mean
/// modeled round-trip latency grows with offered load (threads per
/// processor). The `constant` control must reproduce the no-network
/// numbers bit-for-bit; mesh and butterfly are expected to queue.
///
/// Runs on the `mtsim-sweep` engine with `workers` threads (`None` =
/// machine default). The result is a pure function of the grid.
pub fn net_contention(
    kind: AppKind,
    scale: Scale,
    procs: usize,
    ts: &[usize],
    workers: Option<usize>,
) -> Vec<NetCurve> {
    let configs = net_configs();
    let mut jobs = Vec::with_capacity(NET_MODELS.len() * configs.len() * ts.len());
    for &model in &NET_MODELS {
        for &(topology, combining) in &configs {
            for &t in ts {
                jobs.push(JobSpec {
                    model,
                    procs,
                    threads_per_proc: t,
                    latency: 200,
                    net: topology,
                    combining,
                    ..baseline_job(jobs.len(), kind, scale)
                });
            }
        }
    }
    let out = run_job_specs(jobs, &SweepOpts { workers, progress: false, ..SweepOpts::default() });

    let mut curves = Vec::with_capacity(NET_MODELS.len() * configs.len());
    let mut next = 0;
    for &model in &NET_MODELS {
        for &(topology, combining) in &configs {
            let points = ts
                .iter()
                .map(|&t| {
                    let s = stats_or_panic(&out.jobs[next], "net contention run");
                    next += 1;
                    NetPoint {
                        threads_per_proc: t,
                        cycles: s.cycles,
                        net_mean_latency: s.net_mean_latency(),
                        net_queue_cycles: s.net_queue_cycles,
                        net_fa_combined: s.net_fa_combined,
                    }
                })
                .collect();
            curves.push(NetCurve { model, topology, combining, points });
        }
    }
    curves
}
