//! # mtsim-replay
//!
//! Trace-driven execution: turns a shared-access trace (recorded by the
//! engine's `MachineConfig::collect_trace`, or synthesized) back into a
//! runnable `mtsim` program — the paper's methodology closed into a loop.
//! Boothe & Ranade derive their workload characterization from traces
//! (§3); this crate makes a trace itself a workload, so the full model
//! grid (including the post-1992 SMT frontier) can be driven by *recorded
//! memory behavior* rather than only by the seven hand-written
//! applications.
//!
//! ## Compilation scheme
//!
//! [`compile`] groups the trace per thread (sorted by event time) and
//! emits one straight-line block per thread, selected by `tid`. The
//! encoding is **race-free by construction**, so the final shared-memory
//! image is schedule-independent and can be predicted host-side:
//!
//! * reads (`r`/`rp`) load into scratch registers that are never stored —
//!   their values cannot flow into memory, so concurrent updates to the
//!   same words are harmless;
//! * writes (`w`/`wp`) and fetch-and-adds (`fa`) all become
//!   **fetch-and-add** messages with a small deterministic addend
//!   (`1 + n mod 7` for the `n`-th update in the trace). Addition
//!   commutes, so any interleaving of any engine schedule produces the
//!   same sums — the [`TraceProgram::expected`] image.
//!
//! Spin-tagged events are compiled as plain data accesses: a replayed
//! spin is a one-shot access, not a poll loop, and a `Spin` hint on code
//! that never re-polls would feed the engine's spin-confirmation
//! heuristics with lies.
//!
//! [`SynthConfig`]/[`synthesize`] generate seeded synthetic traces with
//! locality/sharing knobs matching the characterization in
//! `mtsim-trace` (`stride_histogram`, `reuse_profile`).

mod compile;
mod synth;

pub use compile::{
    compile, ReplayError, TraceProgram, MAX_ADDR_WORDS, MAX_SYNTH_EVENTS, MAX_THREADS,
};
pub use synth::{synthesize, SynthConfig};
