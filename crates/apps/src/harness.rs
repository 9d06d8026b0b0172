//! Common application harness: built-app container, model-aware runner,
//! and the paper's efficiency metric.

use std::borrow::Cow;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mtsim_asm::Program;
use mtsim_core::{
    DecodedProgram, Machine, MachineConfig, MachineScratch, NoopRecorder, Recorder, RunResult,
    SimError, SwitchModel,
};
use mtsim_mem::SharedMemory;
use mtsim_opt::{group_shared_loads, GroupStats};

/// Why an application run failed: the simulator stopped with a typed
/// [`SimError`], or it finished but the final memory image disagreed with
/// the host-side reference computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The simulation itself failed (fault exhaustion, deadlock, watchdog,
    /// bad program, bad config).
    Sim {
        /// Application name.
        app: String,
        /// The underlying simulator error.
        err: SimError,
    },
    /// The run completed but produced wrong answers.
    Verify {
        /// Application name.
        app: String,
        /// First mismatch found by the verifier.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim { app, err } => write!(f, "{app}: {err}"),
            RunError::Verify { app, detail } => {
                write!(f, "{app}: verification failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim { err, .. } => Some(err),
            RunError::Verify { .. } => None,
        }
    }
}

/// Host-side verifier of a final shared-memory image.
pub type VerifyFn = Box<dyn Fn(&SharedMemory) -> Result<(), String> + Send + Sync>;

/// A fully constructed application instance: program, initialized shared
/// memory, and a host-side verifier of the final memory image.
pub struct BuiltApp {
    /// Application name.
    pub name: String,
    /// The compiler-natural (ungrouped) program.
    pub program: Program,
    /// The initialized shared-memory input image.
    pub shared: SharedMemory,
    /// Number of threads the program was built for.
    pub nthreads: usize,
    verify: VerifyFn,
}

impl std::fmt::Debug for BuiltApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltApp")
            .field("name", &self.name)
            .field("instructions", &self.program.len())
            .field("shared_words", &self.shared.len())
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

impl BuiltApp {
    /// Assembles a built app (used by the per-application constructors).
    pub fn new(
        name: impl Into<String>,
        program: Program,
        shared: SharedMemory,
        nthreads: usize,
        verify: impl Fn(&SharedMemory) -> Result<(), String> + Send + Sync + 'static,
    ) -> BuiltApp {
        BuiltApp { name: name.into(), program, shared, nthreads, verify: Box::new(verify) }
    }

    /// Checks a final shared-memory image against the host-side reference
    /// computation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn verify(&self, shared: &SharedMemory) -> Result<(), String> {
        (self.verify)(shared)
    }

    /// The grouped (explicit-switch) version of the program plus the
    /// static grouping statistics.
    pub fn grouped(&self) -> (Program, GroupStats) {
        let g = group_shared_loads(&self.program);
        (g.program, g.stats)
    }
}

/// The program image `model` runs: the §5.1 grouped image when the model
/// switches explicitly (its only context switches are the `Switch`
/// instructions grouping inserts), else `program` itself.
pub fn program_for(program: &Program, model: SwitchModel) -> Cow<'_, Program> {
    if model.uses_explicit_switch() {
        Cow::Owned(group_shared_loads(program).program)
    } else {
        Cow::Borrowed(program)
    }
}

/// Runs `program` — an image of `app`, e.g. from [`program_for`] — on
/// `app`'s input under `cfg` with `rec` attached, and verifies the
/// result. A thin wrapper over [`run_decoded`] that decodes the image
/// itself and runs without a cancel token.
///
/// # Errors
///
/// Same contract as [`run_decoded`].
pub fn run_program<R: Recorder>(
    app: &BuiltApp,
    program: &Program,
    cfg: MachineConfig,
    rec: &mut R,
) -> Result<RunResult, RunError> {
    run_decoded(app, program, &DecodedProgram::decode(program), cfg, rec, None)
}

/// The single-point run body every caller shares: checks the thread
/// count, builds a machine for `program` from its pre-computed `decoded`
/// form on `app`'s input, runs it under `cfg` with `rec` attached, and
/// verifies the final memory image. The sweep passes its cached decode
/// and its watchdog or sweep-level `cancel` token (DESIGN.md §18);
/// everyone else goes through [`run_program`].
///
/// # Errors
///
/// Returns [`RunError::Sim`] for any typed simulator error (fault
/// exhaustion, deadlock, watchdog, cancellation, bad program, bad config
/// — including a thread-count mismatch between the app image and `cfg`)
/// and [`RunError::Verify`] when the final memory image fails the host
/// check.
pub fn run_decoded<R: Recorder>(
    app: &BuiltApp,
    program: &Program,
    decoded: &DecodedProgram,
    cfg: MachineConfig,
    rec: &mut R,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<RunResult, RunError> {
    let sim_err = |err| RunError::Sim { app: app.name.clone(), err };
    if cfg.total_threads() != app.nthreads {
        return Err(sim_err(SimError::Config {
            detail: format!(
                "app was built for {} threads, config asks for {}",
                app.nthreads,
                cfg.total_threads()
            ),
        }));
    }
    let (machine, _) = Machine::try_new_predecoded(
        cfg,
        program,
        decoded,
        app.shared.clone(),
        0,
        &mut MachineScratch::new(),
    )
    .map_err(sim_err)?;
    let machine = match cancel {
        Some(token) => machine.with_cancel_token(token),
        None => machine,
    };
    let fin = machine.run_with(rec).map_err(sim_err)?;
    app.verify(&fin.shared).map_err(|detail| RunError::Verify { app: app.name.clone(), detail })?;
    Ok(fin.result)
}

/// Runs `app` under `cfg` on the image [`program_for`] picks for the
/// model, and verifies the result.
///
/// # Errors
///
/// Same contract as [`run_program`].
pub fn run_app(app: &BuiltApp, cfg: MachineConfig) -> Result<RunResult, RunError> {
    run_program(app, &program_for(&app.program, cfg.model), cfg, &mut NoopRecorder)
}

/// The paper's efficiency metric: `T_serial_ideal / (P × T_parallel)`,
/// i.e. speedup over the 1-processor ideal machine divided by processors.
pub fn efficiency(baseline_cycles: u64, processors: usize, cycles: u64) -> f64 {
    if cycles == 0 || processors == 0 {
        return 0.0;
    }
    baseline_cycles as f64 / (processors as f64 * cycles as f64)
}

/// Runs the app single-threaded on the ideal machine: the baseline for
/// every efficiency figure (the paper's "single (0 latency) processor"
/// cycle counts of Table 1).
pub fn baseline_cycles(build: &dyn Fn(usize) -> BuiltApp) -> u64 {
    let app = build(1);
    let cfg = MachineConfig::ideal(1);
    run_app(&app, cfg).expect("baseline run").cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_app_is_send_and_sync() {
        // The sweep artifact cache hands `Arc<BuiltApp>` to worker threads;
        // the verify closure is explicitly `Send + Sync` and every other
        // field is plain data. Keep it that way.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuiltApp>();
    }

    #[test]
    fn a_pinned_program_is_checked_against_the_thread_count() {
        // Built for 4 threads, run on 2: without the check the engine
        // would simulate until the barrier deadlocks.
        let app = crate::build_app(crate::AppKind::Sieve, crate::Scale::Tiny, 4);
        let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 1);
        for program in [app.program.clone(), app.grouped().0] {
            let err = run_program(&app, &program, cfg.clone(), &mut NoopRecorder).unwrap_err();
            assert!(
                matches!(&err, RunError::Sim { err: SimError::Config { detail }, .. }
                    if detail == "app was built for 4 threads, config asks for 2"),
                "{err}"
            );
        }
    }
}
