//! # mtsim-core
//!
//! The multithreaded-multiprocessor simulation engine — the primary
//! contribution of Boothe & Ranade (ISCA 1992), reimplemented from scratch.
//!
//! A [`Machine`] runs one program image on `P × T` threads (`T` is the
//! paper's *multithreading level*) over a shared memory with a constant
//! round-trip latency (200 cycles by default). Context switching between
//! the threads of a processor follows one of the paper's eight
//! [`SwitchModel`]s, from the unbuildable `Ideal` baseline through the
//! `SwitchOnLoad` baseline to the paper's `ExplicitSwitch` and
//! `ConditionalSwitch` contributions.
//!
//! The engine reports everything the paper measures: wall-clock cycles,
//! per-processor busy/idle/overhead accounting, run-length distributions
//! (Tables 2 and 4), context switches taken/skipped, dynamic grouping
//! factors, message/bandwidth tallies (§6.1), and cache statistics.
//!
//! Beyond the paper, the engine is hardened for hostile conditions: a
//! seeded fault-injection layer (unreliable replies with a retry/NACK
//! protocol — see `mtsim_mem::FaultConfig`), a deadlock detector that
//! proves spin-loop cycles and reports the waiting threads as
//! [`SimError::Deadlock`], and typed [`SimError`]s instead of panics for
//! every reachable failure of a simulated program.
//!
//! ## Quick example
//!
//! ```
//! use mtsim_asm::ProgramBuilder;
//! use mtsim_core::{Machine, MachineConfig, SwitchModel};
//! use mtsim_mem::SharedMemory;
//!
//! // Every thread atomically bumps a shared counter.
//! let mut b = ProgramBuilder::new("hello");
//! b.fetch_add_discard(b.const_i(0), b.const_i(1), mtsim_isa::AccessHint::Data);
//! let prog = b.finish();
//!
//! let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 2);
//! let run = Machine::new(cfg, &prog, SharedMemory::new(4)).run()?;
//! assert_eq!(run.shared.read_i64(0), 8);
//! # Ok::<(), mtsim_core::SimError>(())
//! ```

mod decode;
mod engine;
mod events;
mod model;
mod stats;
mod thread;

pub use decode::{DInst, DecodedProgram, F_RESETS_SPIN, F_SHARED_ACCESS};
pub use engine::{FinishedRun, LeanRun, Machine, MachineScratch, ThreadImage};
pub use events::EventQueue;
pub use model::{MachineConfig, SwitchModel, DEFAULT_SMT_WIDTH, MAX_TOTAL_THREADS};
pub use stats::{DeadlockWaiter, ProcStats, RunLengthHist, RunResult, RunStats, SimError};

pub use mtsim_mem::{NetStats, Network, NetworkConfig, Topology};

// Observability surface (DESIGN.md §17). Re-exported so engine users can
// attach a recorder without depending on `mtsim-obs` directly.
pub use mtsim_obs::{
    AttrSummary, AttrTable, Cat, Event, EventKind, EventRing, Metric, NoopRecorder, ObsRecorder,
    Recorder, StreamHist, SwitchCause, DEFAULT_RING_CAPACITY,
};

#[cfg(test)]
mod send_audit {
    //! Compile-time `Send`/`Sync` audit for the sweep pool contract
    //! (DESIGN.md §14): a worker thread must be able to own a `Machine`
    //! and ship its results back. If a future change threads an `Rc` or
    //! raw pointer through the engine, these tests stop compiling instead
    //! of letting the parallel sweep engine regress silently.
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn engine_types_are_send() {
        assert_send::<Machine>();
        assert_send::<MachineConfig>();
        assert_send::<FinishedRun>();
        assert_send::<LeanRun>();
        assert_send::<MachineScratch>();
        assert_send::<RunResult>();
        assert_send::<RunStats>();
        assert_send::<SimError>();
    }

    #[test]
    fn shareable_types_are_sync() {
        assert_sync::<MachineConfig>();
        assert_sync::<RunResult>();
        assert_sync::<RunStats>();
        assert_sync::<SimError>();
    }
}
