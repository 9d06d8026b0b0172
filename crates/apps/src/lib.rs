//! # mtsim-apps
//!
//! The paper's seven parallel applications (Table 1), rewritten for the
//! `mtsim` machine against the `mtsim-rt` runtime:
//!
//! | app | paper workload | behavioral signature |
//! |---|---|---|
//! | [`sieve`] | primes < 4,000,000 | constant-rate marking, steady run-lengths |
//! | [`blkmat`] | 200×200 blocked matmul | private copies ⇒ very long run-lengths |
//! | [`sor`] | 192×192 Laplace SOR | the Figure 4 five-load group |
//! | [`ugray`] | ray tracer, 7169 faces | pointer chasing, condition-split field loads, a lock |
//! | [`water`] | 343 molecules | O(n²) forces, 3-coordinate groups, static balance |
//! | [`locus`] | Primary2 wire routing | branchy neighbor loads, mean run-length ≈ 8 |
//! | [`mp3d`] | 100,000 particles | 6-field records but cache-hostile cell access |
//!
//! Every application verifies its final shared-memory image against a
//! host-side (pure Rust) reference; `sor`, `water`, `ugray`, `blkmat` and
//! `mp3d` reproduce the device floating-point computation bit-for-bit.
//!
//! The [`harness`] module provides the one single-point run path —
//! [`run_decoded`] runs a chosen, pre-decoded image of an app with any
//! recorder and an optional cancel token attached and verifies it (the
//! sweep's path), [`run_program`] does the same from the bare image,
//! [`program_for`] picks the image a switch model runs, and [`run_app`]
//! composes the last two — plus the paper's efficiency metric. [`AppKind`] + [`build_app`] give the benches a
//! uniform registry.
//!
//! A build has two halves. [`reference`] computes an app's host reference
//! (the `host_*` functions), which depends only on `(kind, scale)`.
//! [`build_app_with`] builds the program and input image for one thread
//! count against that reference, and its verifier holds the reference's
//! `Arc`. So the sweep's artifact cache computes each reference once and
//! shares it across a thread-count axis; [`build_app`] does both halves.

pub mod blkmat;
pub mod harness;
pub mod locus;
pub mod mp3d;
pub mod replay;
pub mod sieve;
pub mod sor;
pub mod ugray;
pub mod water;

use std::sync::Arc;

pub use harness::{
    baseline_cycles, efficiency, program_for, run_app, run_decoded, run_program, BuiltApp, RunError,
};

/// The seven applications of the paper's Table 1, plus the trace-driven
/// `replay` workload (DESIGN.md §22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Prime counting.
    Sieve,
    /// Blocked matrix multiply.
    Blkmat,
    /// Red-black SOR for Laplace's equation.
    Sor,
    /// Ray-tracing renderer.
    Ugray,
    /// Water-molecule dynamics.
    Water,
    /// Standard-cell wire routing.
    Locus,
    /// Rarefied hypersonic flow particle simulation.
    Mp3d,
    /// Trace-driven workload: a seeded synthetic shared-access trace
    /// compiled back into a program (`mtsim-replay`).
    Replay,
}

impl AppKind {
    /// All applications: the paper's Table 1 order, then `replay`.
    pub const ALL: [AppKind; 8] = [
        AppKind::Sieve,
        AppKind::Blkmat,
        AppKind::Sor,
        AppKind::Ugray,
        AppKind::Water,
        AppKind::Locus,
        AppKind::Mp3d,
        AppKind::Replay,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Sieve => "sieve",
            AppKind::Blkmat => "blkmat",
            AppKind::Sor => "sor",
            AppKind::Ugray => "ugray",
            AppKind::Water => "water",
            AppKind::Locus => "locus",
            AppKind::Mp3d => "mp3d",
            AppKind::Replay => "replay",
        }
    }

    /// The paper's one-line description (Table 1).
    pub fn description(self) -> &'static str {
        match self {
            AppKind::Sieve => "counts primes below a limit",
            AppKind::Blkmat => "blocked matrix multiply",
            AppKind::Sor => "S.O.R. solver for Laplace's equation",
            AppKind::Ugray => "ray tracing graphics renderer",
            AppKind::Water => "simulates a system of water molecules",
            AppKind::Locus => "routes wires in a standard cell circuit",
            AppKind::Mp3d => "simulates rarefied hypersonic flow",
            AppKind::Replay => "replays a recorded shared-access trace",
        }
    }

    /// Parses a display name back to the kind (`"sieve"`, `"mp3d"`, …).
    pub fn from_name(name: &str) -> Option<AppKind> {
        AppKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Experiment scale presets: `Tiny` for unit tests, `Small` for the bench
/// harness (seconds per run), `Full` for the default workloads of
/// DESIGN.md §6 (minutes per table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Unit-test sizes (sub-second under the debug profile).
    Tiny,
    /// Bench-harness sizes.
    Small,
    /// The scaled-paper workloads of DESIGN.md.
    Full,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Full];

    /// Display name, usable as a CLI/spec-file value.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Parses a display name back to the scale.
    pub fn from_name(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A paper app's host reference at one scale: what its verifier compares
/// a final shared-memory image against. It depends only on the scale's
/// parameters, never on the thread count, so one reference serves every
/// build of `(kind, scale)` (see [`build_app_with`]).
#[derive(Debug)]
pub enum AppReference {
    /// The prime count.
    Sieve(u64),
    /// The product matrix, row-major.
    Blkmat(Vec<f64>),
    /// The relaxed grid, row-major.
    Sor(Vec<f64>),
    /// The rendered image and the global nearest hit.
    Ugray(Vec<f64>, f64),
    /// Final positions and velocities.
    Water(Vec<f64>, Vec<f64>),
    /// Locus checks schedule-independent invariants of its own input, so
    /// it has no reference to share.
    Locus,
    /// Final particle records and cell counts.
    Mp3d(Vec<f64>, Vec<i64>),
    /// Replay's expected image comes from a trace synthesized for the
    /// build's thread count, so it stays inside the build.
    Replay,
}

impl AppReference {
    /// The application this reference verifies.
    pub fn kind(&self) -> AppKind {
        match self {
            AppReference::Sieve(_) => AppKind::Sieve,
            AppReference::Blkmat(_) => AppKind::Blkmat,
            AppReference::Sor(_) => AppKind::Sor,
            AppReference::Ugray(..) => AppKind::Ugray,
            AppReference::Water(..) => AppKind::Water,
            AppReference::Locus => AppKind::Locus,
            AppReference::Mp3d(..) => AppKind::Mp3d,
            AppReference::Replay => AppKind::Replay,
        }
    }
}

/// An app's parameters at a preset scale: the one table both
/// [`reference`] and [`build_app_with`] read.
enum Preset {
    Sieve(sieve::SieveParams),
    Blkmat(blkmat::BlkmatParams),
    Sor(sor::SorParams),
    Ugray(ugray::UgrayParams),
    Water(water::WaterParams),
    Locus(locus::LocusParams),
    Mp3d(mp3d::Mp3dParams),
    Replay(replay::ReplayParams),
}

impl Preset {
    fn new(kind: AppKind, scale: Scale) -> Preset {
        match kind {
            AppKind::Sieve => {
                let limit = match scale {
                    Scale::Tiny => 2_000,
                    Scale::Small => 40_000,
                    Scale::Full => 200_000,
                };
                Preset::Sieve(sieve::SieveParams { limit })
            }
            AppKind::Blkmat => {
                let (n, bs) = match scale {
                    Scale::Tiny => (16, 4),
                    Scale::Small => (32, 8),
                    Scale::Full => (64, 8),
                };
                Preset::Blkmat(blkmat::BlkmatParams { n, bs })
            }
            AppKind::Sor => {
                let (n, iters) = match scale {
                    Scale::Tiny => (12, 2),
                    Scale::Small => (32, 3),
                    Scale::Full => (64, 4),
                };
                Preset::Sor(sor::SorParams { n, iters, omega: 1.5 })
            }
            AppKind::Ugray => {
                let (side, spheres) = match scale {
                    Scale::Tiny => (8, 12),
                    Scale::Small => (16, 48),
                    Scale::Full => (32, 200),
                };
                Preset::Ugray(ugray::UgrayParams {
                    width: side,
                    height: side,
                    n_spheres: spheres,
                    seed: 42,
                })
            }
            AppKind::Water => {
                let (n_mol, iters) = match scale {
                    Scale::Tiny => (12, 1),
                    Scale::Small => (32, 2),
                    Scale::Full => (64, 2),
                };
                Preset::Water(water::WaterParams { n_mol, iters, seed: 7 })
            }
            AppKind::Locus => {
                let (w, h, wires) = match scale {
                    Scale::Tiny => (12, 8, 8),
                    Scale::Small => (24, 16, 24),
                    Scale::Full => (64, 24, 80),
                };
                Preset::Locus(locus::LocusParams { width: w, height: h, n_wires: wires, seed: 3 })
            }
            AppKind::Mp3d => {
                let (parts, iters) = match scale {
                    Scale::Tiny => (64, 2),
                    Scale::Small => (400, 3),
                    Scale::Full => (4_000, 5),
                };
                Preset::Mp3d(mp3d::Mp3dParams { n_particles: parts, iters, grid: 8, seed: 11 })
            }
            AppKind::Replay => {
                let (events, words) = match scale {
                    Scale::Tiny => (40, 256),
                    Scale::Small => (400, 2_048),
                    Scale::Full => (REPLAY_FULL_EVENTS, 8_192),
                };
                Preset::Replay(replay::ReplayParams {
                    seed: 0xEE,
                    events_per_thread: events,
                    addr_words: words,
                })
            }
        }
    }
}

/// The host reference of `kind` at `scale`: the expensive half of a
/// build, and the half that does not depend on the thread count.
pub fn reference(kind: AppKind, scale: Scale) -> Arc<AppReference> {
    Arc::new(match Preset::new(kind, scale) {
        Preset::Sieve(p) => sieve::reference(&p),
        Preset::Blkmat(p) => blkmat::reference(&p),
        Preset::Sor(p) => sor::reference(&p),
        Preset::Ugray(p) => ugray::reference(&p),
        Preset::Water(p) => water::reference(&p),
        Preset::Locus(_) => AppReference::Locus,
        Preset::Mp3d(p) => mp3d::reference(&p),
        Preset::Replay(_) => AppReference::Replay,
    })
}

/// Builds an application at a preset scale for `nthreads` threads.
pub fn build_app(kind: AppKind, scale: Scale, nthreads: usize) -> BuiltApp {
    build_app_with(kind, scale, nthreads, &reference(kind, scale))
}

/// [`build_app`] against a host reference computed once: `reference`
/// must be [`reference`]`(kind, scale)`. The app's verifier holds the
/// `Arc`, so builds for many thread counts share one reference.
///
/// # Panics
///
/// When `reference` belongs to another application.
pub fn build_app_with(
    kind: AppKind,
    scale: Scale,
    nthreads: usize,
    reference: &Arc<AppReference>,
) -> BuiltApp {
    assert_eq!(reference.kind(), kind, "a {} reference cannot verify {kind}", reference.kind());
    let want = Arc::clone(reference);
    match Preset::new(kind, scale) {
        Preset::Sieve(p) => sieve::build_sieve_with(p, nthreads, want),
        Preset::Blkmat(p) => blkmat::build_blkmat_with(p, nthreads, want),
        Preset::Sor(p) => sor::build_sor_with(p, nthreads, want),
        Preset::Ugray(p) => ugray::build_ugray_with(p, nthreads, want),
        Preset::Water(p) => water::build_water_with(p, nthreads, want),
        Preset::Locus(p) => locus::build_locus(p, nthreads),
        Preset::Mp3d(p) => mp3d::build_mp3d_with(p, nthreads, want),
        Preset::Replay(p) => replay::build_replay(p, nthreads),
    }
}

/// Events per thread of the full-scale replay workload. Even at replay's
/// thread cap its trace stays within the synthetic-trace cap, so the
/// replay CLI accepts the same size.
const REPLAY_FULL_EVENTS: usize = 4_000;
const _: () =
    assert!(REPLAY_FULL_EVENTS * mtsim_replay::MAX_THREADS <= mtsim_replay::MAX_SYNTH_EVENTS);

/// A closure that rebuilds `kind` at `scale` for any thread count —
/// the shape the sweep helpers expect.
pub fn app_builder(kind: AppKind, scale: Scale) -> impl Fn(usize) -> BuiltApp {
    move |nthreads| build_app(kind, scale, nthreads)
}
