//! The traced pass: one grid point at a time through the layers' public
//! functions, each call inside a span, with the simulated work counters
//! of every run summed per layer.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mtsim_apps::{build_app, AppKind, BuiltApp, Scale};
use mtsim_asm::Program;
use mtsim_core::{
    DecodedProgram, Machine, MachineConfig, MachineScratch, NoopRecorder, RunStats, Topology,
};
use mtsim_opt::group_shared_loads;
use mtsim_sweep::{JobError, JobOutcome, JobSpec};

use crate::trace::Tracer;

/// Simulated and static work summed over every run of a pass.
#[derive(Debug, Default)]
pub struct Counters {
    pub runs: u64,
    pub sim_insts: u64,
    pub idle_cycles: u64,
    pub stall_cycles: u64,
    pub switches_taken: u64,
    pub switches_skipped: u64,
    pub reads_issued: u64,
    pub grouped_loads: u64,
    pub switches_inserted: u64,
    pub program_insts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub data_messages: u64,
    pub data_bits: u64,
    pub net_requests: u64,
    pub net_latency_sum: u64,
    pub net_queue_cycles: u64,
    /// Engine milliseconds on contention-network points.
    pub engine_ms_mesh: f64,
    /// Engine milliseconds on constant-latency points whose grid has a
    /// contention-network twin.
    pub engine_ms_twin: f64,
}

/// A program ready to run: the built app, the image to execute, its
/// decode, and a machine-reuse key (0 = never reuse).
#[derive(Clone)]
pub struct Artifact {
    pub app: Arc<BuiltApp>,
    pub program: Arc<Program>,
    pub decoded: Arc<DecodedProgram>,
    pub key: u64,
}

/// Runs grid points layer by layer under a tracer.
pub struct Layers {
    pub tr: Tracer,
    pub c: Counters,
    scratch: MachineScratch,
    /// Built apps and their derived images, each made once per pass like
    /// the sweep's artifact cache does.
    memo: HashMap<(AppKind, Scale, usize, bool), Artifact>,
    built: HashMap<(AppKind, Scale, usize), Arc<BuiltApp>>,
}

impl Layers {
    pub fn new(tr: Tracer) -> Layers {
        Layers {
            tr,
            c: Counters::default(),
            scratch: MachineScratch::new(),
            memo: HashMap::new(),
            built: HashMap::new(),
        }
    }

    /// The artifact a sweep grid point runs, built on first use.
    pub fn artifact(&mut self, spec: &JobSpec) -> Artifact {
        let grouped = spec.config().model.uses_explicit_switch();
        let key = (spec.app, spec.scale, spec.nthreads(), grouped);
        if let Some(art) = self.memo.get(&key) {
            return art.clone();
        }
        let app = match self.built.get(&(spec.app, spec.scale, spec.nthreads())) {
            Some(app) => Arc::clone(app),
            None => {
                let app = Arc::new(self.build(|| build_app(spec.app, spec.scale, spec.nthreads())));
                self.built.insert((spec.app, spec.scale, spec.nthreads()), Arc::clone(&app));
                app
            }
        };
        let mut art = self.prepare(app, grouped);
        art.key = self.memo.len() as u64 + 1;
        self.memo.insert(key, art.clone());
        art
    }

    /// Builds an app inside the `apps.build` span.
    pub fn build(&mut self, f: impl FnOnce() -> BuiltApp) -> BuiltApp {
        let app = self.tr.span("apps.build", f);
        self.c.program_insts += app.program.len() as u64;
        app
    }

    /// Groups (when the model needs explicit switches) and decodes the
    /// program of `app`. The artifact never reuses a parked machine.
    pub fn prepare(&mut self, app: Arc<BuiltApp>, grouped: bool) -> Artifact {
        let program = if grouped {
            let g = self.tr.span("opt.group", || group_shared_loads(&app.program));
            self.c.grouped_loads += g.stats.grouped_loads as u64;
            self.c.switches_inserted += g.stats.switches_inserted as u64;
            Arc::new(g.program)
        } else {
            Arc::new(app.program.clone())
        };
        let decoded = Arc::new(self.tr.span("core.decode", || DecodedProgram::decode(&program)));
        Artifact { app, program, decoded, key: 0 }
    }

    /// Runs one point on the engine and verifies it on the host.
    /// `has_twin` marks a constant-latency point whose grid also runs it
    /// on a contention network.
    pub fn run(
        &mut self,
        art: &Artifact,
        cfg: MachineConfig,
        has_twin: bool,
    ) -> Result<RunStats, JobError> {
        let net = cfg.net.topology;
        let scratch = &mut self.scratch;
        let open = self.tr.begin("core.engine");
        let t = Instant::now();
        let run = Machine::try_new_predecoded(
            cfg,
            &art.program,
            &art.decoded,
            art.app.shared.clone(),
            art.key,
            scratch,
        )
        .and_then(|(m, _)| m.run_reusing(&mut NoopRecorder, art.key, scratch));
        let engine_ms = t.elapsed().as_secs_f64() * 1e3;
        self.tr.end(open);
        let lean = run.map_err(|e| JobError::from_sim(&e))?;
        self.tr
            .span("apps.verify", || art.app.verify(&lean.shared))
            .map_err(|message| JobError::Verify { message })?;

        let r = &lean.result;
        let c = &mut self.c;
        if net != Topology::Constant {
            c.engine_ms_mesh += engine_ms;
        } else if has_twin {
            c.engine_ms_twin += engine_ms;
        }
        c.runs += 1;
        c.sim_insts += r.instructions;
        c.idle_cycles += r.per_proc.iter().map(|p| p.idle).sum::<u64>();
        c.stall_cycles += r.scoreboard_stalls;
        c.switches_taken += r.switches_taken;
        c.switches_skipped += r.switches_skipped;
        c.reads_issued += r.reads_issued;
        if let Some(cache) = r.cache {
            c.cache_hits += cache.hits;
            c.cache_misses += cache.misses;
        }
        c.data_messages += r.traffic.data_messages();
        c.data_bits += r.traffic.data_bits();
        if let Some(n) = r.net {
            c.net_requests += n.requests;
            c.net_latency_sum += n.latency_sum;
            c.net_queue_cycles += n.queue_cycles;
        }
        Ok(r.stats())
    }

    /// Runs sweep grid points one by one, each inside a `bench.point`
    /// span; returns the wall ms and the outcomes.
    pub fn run_jobs(&mut self, jobs: &[JobSpec], has_twin: bool) -> (f64, Vec<JobOutcome>) {
        let t = Instant::now();
        let mut out = Vec::with_capacity(jobs.len());
        for &job in jobs {
            let open = self.tr.begin("bench.point");
            let art = self.artifact(&job);
            let result = self.run(&art, job.config(), has_twin);
            self.tr.end(open);
            out.push(JobOutcome::once(job, result));
        }
        (t.elapsed().as_secs_f64() * 1e3, out)
    }

    /// Self time of the layers a sweep calls into (build, optimizer,
    /// decode, engine, verify, checkpoint append), in ms.
    pub fn layer_self_ms(&self) -> f64 {
        let self_ms = self.tr.self_ms();
        [
            "apps.build",
            "opt.group",
            "core.decode",
            "core.engine",
            "apps.verify",
            "sweep.checkpoint_append",
        ]
        .iter()
        .filter_map(|name| self_ms.get(name))
        .sum()
    }
}

/// Runs `f` on the untraced and on the traced layers: untraced first when
/// `i` is even, traced first when it is odd, so that cache warmth and
/// host-speed drift fall on both alike. Returns (untraced, traced).
pub fn interleaved<T>(
    i: usize,
    off: &mut Layers,
    on: &mut Layers,
    mut f: impl FnMut(&mut Layers) -> T,
) -> (T, T) {
    if i.is_multiple_of(2) {
        let untraced = f(off);
        (untraced, f(on))
    } else {
        let traced = f(on);
        (f(off), traced)
    }
}
