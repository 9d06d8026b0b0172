//! `mp3d` — rarefied hypersonic flow particle simulation (paper Table 1:
//! "simulate rarefied hypersonic flow — 100,000 particles, 10 iterations",
//! from the SPLASH suite).
//!
//! Each particle is a 6-word record (position + velocity) whose loads
//! group nicely, but the per-step space-cell update lands on an
//! effectively random cell — the "very poor reference locality" that
//! makes mp3d the one application caching cannot rescue (§6.1) and the
//! highest-bandwidth code in the study.

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_isa::AccessHint;
use mtsim_mem::SharedMemory;
use mtsim_rng::Rng;
use mtsim_rt::Barrier;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Mp3dParams {
    /// Number of particles.
    pub n_particles: usize,
    /// Timesteps.
    pub iters: usize,
    /// Space-cell grid side (cells = grid³).
    pub grid: usize,
    /// Seed for the initial particle state.
    pub seed: u64,
}

impl Default for Mp3dParams {
    fn default() -> Mp3dParams {
        Mp3dParams { n_particles: 4_000, iters: 5, grid: 8, seed: 11 }
    }
}

const DT: f64 = 0.05;

/// Box side: the grid has unit cells.
fn box_side(grid: usize) -> f64 {
    grid as f64
}

/// Initial interleaved `[x,y,z,vx,vy,vz]` records.
fn initial_state(p: &Mp3dParams) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(p.seed);
    let l = box_side(p.grid);
    let mut state = Vec::with_capacity(6 * p.n_particles);
    for _ in 0..p.n_particles {
        for _ in 0..3 {
            state.push(rng.range_f64(0.0, l));
        }
        for _ in 0..3 {
            state.push(rng.range_f64(-1.0, 1.0));
        }
    }
    state
}

/// Host-side reference: returns (final state, per-cell visit counters).
pub fn host_mp3d(p: &Mp3dParams) -> (Vec<f64>, Vec<i64>) {
    let mut st = initial_state(p);
    let g = p.grid as i64;
    let l = box_side(p.grid);
    let mut cells = vec![0i64; p.grid * p.grid * p.grid];
    for _ in 0..p.iters {
        for i in 0..p.n_particles {
            let b = 6 * i;
            for a in 0..3 {
                let mut x = st[b + a] + st[b + 3 + a] * DT;
                let mut v = st[b + 3 + a];
                if x < 0.0 {
                    x = 0.0 - x;
                    v = 0.0 - v;
                }
                if x > l {
                    x = (l + l) - x;
                    v = 0.0 - v;
                }
                st[b + a] = x;
                st[b + 3 + a] = v;
            }
            let mut ci = [0i64; 3];
            for a in 0..3 {
                let mut c = st[b + a] as i64;
                if c >= g {
                    c = g - 1;
                }
                ci[a] = c;
            }
            let cell = (ci[0] * g + ci[1]) * g + ci[2];
            cells[cell as usize] += 1;
        }
    }
    (st, cells)
}

/// The host reference [`build_mp3d`] verifies against.
pub(crate) fn reference(params: &Mp3dParams) -> AppReference {
    let (state, cells) = host_mp3d(params);
    AppReference::Mp3d(state, cells)
}

/// Builds the mp3d program for `nthreads` threads.
pub fn build_mp3d(params: Mp3dParams, nthreads: usize) -> BuiltApp {
    build_mp3d_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_mp3d`] against `want`, which is `reference(&params)`.
pub(crate) fn build_mp3d_with(
    params: Mp3dParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    let n = params.n_particles as i64;
    let g = params.grid as i64;
    let l = box_side(params.grid);

    let mut layout = SharedLayout::new();
    let parts = layout.alloc("particles", 6 * params.n_particles as u64) as i64;
    let cells = layout.alloc("cells", (params.grid * params.grid * params.grid) as u64) as i64;
    let bar = Barrier::alloc(&mut layout, "step", nthreads as i64);

    let mut b = ProgramBuilder::new("mp3d");
    let lo = b.def_i("lo", b.tid() * n / b.nthreads());
    let hi = b.def_i("hi", (b.tid() + 1) * n / b.nthreads());

    b.for_range("iter", 0, params.iters as i64, |b, _| {
        b.for_range("i", lo.get(), hi.get(), |b, i| {
            let base = b.def_i("base", i.get() * 6 + parts);
            // The record's six fields: three Load-Double pairs (groupable).
            let (x, y) = b.load_pair_shared_f("p.xy", base.get());
            let (z, vx) = b.load_pair_shared_f("p.zvx", base.get() + 2);
            let (vy, vz) = b.load_pair_shared_f("p.vyz", base.get() + 4);

            // Move + reflect each axis, mirroring host_mp3d exactly.
            for (px, pv) in [(x, vx), (y, vy), (z, vz)] {
                b.assign_f(px, px.get() + pv.get() * DT);
                b.if_(px.get().flt(0.0), |b| {
                    b.assign_f(px, b.const_f(0.0) - px.get());
                    b.assign_f(pv, b.const_f(0.0) - pv.get());
                });
                b.if_(b.const_f(l).flt(px.get()), |b| {
                    b.assign_f(px, b.const_f(l + l) - px.get());
                    b.assign_f(pv, b.const_f(0.0) - pv.get());
                });
            }

            // Cell index (clamped) — an essentially random cell: the
            // locality-hostile access.
            let cxi = b.def_i("cx", x.get().to_i());
            b.if_(cxi.get().ge(g), |b| b.assign(cxi, g - 1));
            let cyi = b.def_i("cy", y.get().to_i());
            b.if_(cyi.get().ge(g), |b| b.assign(cyi, g - 1));
            let czi = b.def_i("cz", z.get().to_i());
            b.if_(czi.get().ge(g), |b| b.assign(czi, g - 1));
            let cell = b.def_i("cell", (cxi.get() * g + cyi.get()) * g + czi.get());
            b.fetch_add_discard(cell.get() + cells, b.const_i(1), AccessHint::Data);

            // Write the record back: three Store-Double pairs.
            b.store_pair_shared_f(base.get(), x.get(), y.get());
            b.store_pair_shared_f(base.get() + 2, z.get(), vx.get());
            b.store_pair_shared_f(base.get() + 4, vy.get(), vz.get());
        });
        bar.emit_wait(b);
    });

    let program = b.finish();
    let mut shared = SharedMemory::new(layout.size());
    for (k, &v) in initial_state(&params).iter().enumerate() {
        shared.write_f64((parts as usize + k) as u64, v);
    }

    BuiltApp::new("mp3d", program, shared, nthreads, move |mem| {
        let AppReference::Mp3d(want_state, want_cells) = &*want else {
            unreachable!("a mp3d reference")
        };
        for (k, &w) in want_state.iter().enumerate() {
            let got = mem.read_f64((parts as usize + k) as u64);
            if got != w {
                return Err(format!("particle word {k}: got {got}, want {w}"));
            }
        }
        for (k, &w) in want_cells.iter().enumerate() {
            let got = mem.read_i64((cells as usize + k) as u64);
            if got != w {
                return Err(format!("cell {k}: got {got}, want {w}"));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_app;
    use mtsim_core::{MachineConfig, SwitchModel};

    #[test]
    fn host_conserves_particles() {
        let p = Mp3dParams { n_particles: 50, iters: 3, grid: 4, seed: 1 };
        let (st, cells) = host_mp3d(&p);
        assert_eq!(cells.iter().sum::<i64>(), 50 * 3);
        let l = box_side(p.grid);
        assert!(st.chunks(6).all(|c| (0.0..=l).contains(&c[0])
            && (0.0..=l).contains(&c[1])
            && (0.0..=l).contains(&c[2])));
    }

    #[test]
    fn mp3d_single_thread_bitexact() {
        let app = build_mp3d(Mp3dParams { n_particles: 20, iters: 2, grid: 4, seed: 2 }, 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn mp3d_parallel_models() {
        for (model, p, t) in [
            (SwitchModel::SwitchOnLoad, 4, 2),
            (SwitchModel::ExplicitSwitch, 2, 2),
            (SwitchModel::ConditionalSwitch, 2, 2),
        ] {
            let app = build_mp3d(Mp3dParams { n_particles: 30, iters: 2, grid: 4, seed: 4 }, p * t);
            run_app(&app, MachineConfig::new(model, p, t)).unwrap();
        }
    }

    #[test]
    fn mp3d_record_loads_group_well() {
        let app = build_mp3d(Mp3dParams::default(), 4);
        let (_, stats) = app.grouped();
        // Three pair-loads of one record belong to a single group.
        assert!(stats.max_group() >= 3, "{stats:?}");
    }
}
