//! # mtsim-mem
//!
//! Shared-memory, network-traffic, and cache substrate for the `mtsim`
//! simulator.
//!
//! The paper deliberately does **not** simulate a concrete interconnection
//! network: it assumes a constant 200-cycle round-trip latency and measures
//! the bandwidth an application *would demand* of a network, in bits per
//! cycle (§6.1). This crate implements exactly that abstraction:
//!
//! * [`SharedMemory`] — the global word array, with atomic fetch-and-add
//!   applied in global issue order (constant latency makes issue order and
//!   memory-arrival order identical);
//! * [`Traffic`] — message accounting with the documented message format
//!   (32-bit header, 32-bit address, 64-bit data words), split into data
//!   and spin traffic because the paper's footnote 2 excludes spin messages;
//! * [`CoherentCaches`] — per-processor shared-data caches used by the
//!   `switch-on-miss`, `switch-on-use-miss`, and `conditional-switch`
//!   models: direct-mapped, write-through, no-write-allocate, kept coherent
//!   by a full-map directory that invalidates remote copies on stores;
//! * [`OneLineCache`] — the paper's §5.2 experiment: a single 32-word line
//!   per *thread* used to estimate inter-block grouping potential;
//! * [`FaultPlan`] — deterministic, seeded fault injection: per-request
//!   latency distributions, dropped/NACKed replies, duplicates, and the
//!   retry protocol's parameters (see the [`fault`](self::fault) module
//!   docs). The paper's reliable constant-latency network is the inactive
//!   default.
//!
//! Caches here are *timing and traffic* models: data values always come
//! from [`SharedMemory`], which is kept coherent by construction because
//! the engine applies every shared operation in global time order.
//!
//! Since PR 4 the constant-latency pipe is only the default *transport*:
//! [`Network`] (re-exported from `mtsim-net`) models crossbar, 2D-mesh,
//! and butterfly interconnects with finite link bandwidth, per-hop
//! queueing, and optional in-switch fetch-and-add combining. The fault
//! layer composes on top — network timing supplies the base latency that
//! [`FaultPlan`] perturbs.

mod cache;
mod fault;
mod shared;
mod trace;
mod traffic;

pub use cache::{CacheParams, CacheStats, CoherentCaches, OneLineCache};
pub use fault::{FaultConfig, FaultPlan, LatencyDist, ReplyOutcome, RetryExhausted, MAX_LATENCY};
pub use shared::SharedMemory;
pub use trace::{TraceEvent, TraceKind};
pub use traffic::{message_bits, MsgClass, Traffic, ADDR_BITS, HDR_BITS, WORD_BITS};

pub use mtsim_net::{NetStats, Network, NetworkConfig, Topology};
