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

pub mod blkmat;
pub mod harness;
pub mod locus;
pub mod mp3d;
pub mod replay;
pub mod sieve;
pub mod sor;
pub mod ugray;
pub mod water;

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

/// Builds an application at a preset scale for `nthreads` threads.
pub fn build_app(kind: AppKind, scale: Scale, nthreads: usize) -> BuiltApp {
    match kind {
        AppKind::Sieve => {
            let limit = match scale {
                Scale::Tiny => 2_000,
                Scale::Small => 40_000,
                Scale::Full => 200_000,
            };
            sieve::build_sieve(sieve::SieveParams { limit }, nthreads)
        }
        AppKind::Blkmat => {
            let (n, bs) = match scale {
                Scale::Tiny => (16, 4),
                Scale::Small => (32, 8),
                Scale::Full => (64, 8),
            };
            blkmat::build_blkmat(blkmat::BlkmatParams { n, bs }, nthreads)
        }
        AppKind::Sor => {
            let (n, iters) = match scale {
                Scale::Tiny => (12, 2),
                Scale::Small => (32, 3),
                Scale::Full => (64, 4),
            };
            sor::build_sor(sor::SorParams { n, iters, omega: 1.5 }, nthreads)
        }
        AppKind::Ugray => {
            let (side, spheres) = match scale {
                Scale::Tiny => (8, 12),
                Scale::Small => (16, 48),
                Scale::Full => (32, 200),
            };
            ugray::build_ugray(
                ugray::UgrayParams { width: side, height: side, n_spheres: spheres, seed: 42 },
                nthreads,
            )
        }
        AppKind::Water => {
            let (n_mol, iters) = match scale {
                Scale::Tiny => (12, 1),
                Scale::Small => (32, 2),
                Scale::Full => (64, 2),
            };
            water::build_water(water::WaterParams { n_mol, iters, seed: 7 }, nthreads)
        }
        AppKind::Locus => {
            let (w, h, wires) = match scale {
                Scale::Tiny => (12, 8, 8),
                Scale::Small => (24, 16, 24),
                Scale::Full => (64, 24, 80),
            };
            locus::build_locus(
                locus::LocusParams { width: w, height: h, n_wires: wires, seed: 3 },
                nthreads,
            )
        }
        AppKind::Mp3d => {
            let (parts, iters) = match scale {
                Scale::Tiny => (64, 2),
                Scale::Small => (400, 3),
                Scale::Full => (4_000, 5),
            };
            mp3d::build_mp3d(
                mp3d::Mp3dParams { n_particles: parts, iters, grid: 8, seed: 11 },
                nthreads,
            )
        }
        AppKind::Replay => {
            let (events, words) = match scale {
                Scale::Tiny => (40, 256),
                Scale::Small => (400, 2_048),
                Scale::Full => (REPLAY_FULL_EVENTS, 8_192),
            };
            replay::build_replay(
                replay::ReplayParams { seed: 0xEE, events_per_thread: events, addr_words: words },
                nthreads,
            )
        }
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
