//! `replay` — the trace-driven ninth workload: a seeded synthetic
//! shared-access trace compiled back into a runnable program by
//! `mtsim-replay`.
//!
//! Unlike the seven hand-written applications, this workload's memory
//! behavior is *specified* (by the trace) rather than emergent, which
//! makes it the natural probe for the model frontier: the mix of reads,
//! pair loads, and commutative fetch-and-add updates exercises split-phase
//! issue under every switch model, and the final image is predicted
//! host-side (per-address addend sums), so verification is exact.

use crate::harness::BuiltApp;
use mtsim_replay::{compile, synthesize, SynthConfig, TraceProgram};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplayParams {
    /// Trace seed (the workload is fully determined by seed + sizes).
    pub seed: u64,
    /// Events per thread in the synthetic trace.
    pub events_per_thread: usize,
    /// Address space of the trace, in words.
    pub addr_words: u64,
}

impl Default for ReplayParams {
    fn default() -> ReplayParams {
        ReplayParams { seed: 0xEE, events_per_thread: 400, addr_words: 2048 }
    }
}

/// Builds the replay workload for `nthreads` threads: synthesizes the
/// trace with one stream per thread and compiles it.
pub fn build_replay(params: ReplayParams, nthreads: usize) -> BuiltApp {
    let cfg = SynthConfig {
        seed: params.seed,
        threads: nthreads,
        events_per_thread: params.events_per_thread,
        addr_words: params.addr_words,
        ..SynthConfig::default()
    };
    let tp = compile(&synthesize(&cfg)).expect("synthetic traces stay within the replay caps");
    replay_app(tp, nthreads)
}

/// Wraps a compiled trace as an app for a machine with `nthreads`
/// contexts (at least `tp.nthreads`; contexts beyond the trace's threads
/// halt on their first instruction), verified against the trace's
/// predicted final image.
pub fn replay_app(tp: TraceProgram, nthreads: usize) -> BuiltApp {
    let program = tp.program.clone();
    let shared = tp.shared();
    BuiltApp::new("replay", program, shared, nthreads, move |mem| tp.verify(mem))
}
