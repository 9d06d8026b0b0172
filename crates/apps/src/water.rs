//! `water` — molecular-dynamics simulation (paper Table 1: "simulate a
//! system of water molecules — 345 molecules, 2 iterations", from the
//! SPLASH suite).
//!
//! O(n²) pairwise short-range forces with a cutoff, statically partitioned
//! over threads — which is why the paper's Figure 2 shows water's
//! efficiency jumping around with the processor count: the static balance
//! is perfect only when the thread count divides the molecule count.
//! Coordinate loads use Load-Double pairs, giving the grouping pass its
//! 3-loads-per-neighbor groups.

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_mem::SharedMemory;
use mtsim_rng::Rng;
use mtsim_rt::Barrier;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct WaterParams {
    /// Number of molecules (the paper uses 343 = 7³).
    pub n_mol: usize,
    /// Timesteps (the paper uses 2).
    pub iters: usize,
    /// Seed for the deterministic initial configuration.
    pub seed: u64,
}

impl Default for WaterParams {
    fn default() -> WaterParams {
        WaterParams { n_mol: 64, iters: 2, seed: 7 }
    }
}

const BOX: f64 = 4.0;
const CUTOFF2: f64 = 2.0;
const SOFTEN: f64 = 0.01;
const DT: f64 = 0.01;

/// Generates the initial positions/velocities (shared by device image and
/// host reference).
fn initial_state(p: &WaterParams) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(p.seed);
    let pos: Vec<f64> = (0..3 * p.n_mol).map(|_| rng.range_f64(0.0, BOX)).collect();
    let vel: Vec<f64> = (0..3 * p.n_mol).map(|_| rng.range_f64(-0.5, 0.5)).collect();
    (pos, vel)
}

/// Host-side reference: identical arithmetic, identical order.
pub fn host_water(p: &WaterParams) -> (Vec<f64>, Vec<f64>) {
    let (mut pos, mut vel) = initial_state(p);
    let n = p.n_mol;
    let mut force = vec![0.0f64; 3 * n];
    for _ in 0..p.iters {
        for i in 0..n {
            let (xi, yi, zi) = (pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]);
            let (mut fx, mut fy, mut fz) = (0.0f64, 0.0f64, 0.0f64);
            for j in 0..n {
                if j != i {
                    let dx = xi - pos[3 * j];
                    let dy = yi - pos[3 * j + 1];
                    let dz = zi - pos[3 * j + 2];
                    let r2 = (dx * dx + dy * dy) + dz * dz;
                    if r2 < CUTOFF2 {
                        let inv = 1.0 / (r2 + SOFTEN);
                        let s = inv * inv - inv * 0.5;
                        fx += s * dx;
                        fy += s * dy;
                        fz += s * dz;
                    }
                }
            }
            force[3 * i] = fx;
            force[3 * i + 1] = fy;
            force[3 * i + 2] = fz;
        }
        for i in 0..n {
            for a in 0..3 {
                vel[3 * i + a] += force[3 * i + a] * DT;
                pos[3 * i + a] += vel[3 * i + a] * DT;
            }
        }
    }
    (pos, vel)
}

/// The host reference [`build_water`] verifies against.
pub(crate) fn reference(params: &WaterParams) -> AppReference {
    let (pos, vel) = host_water(params);
    AppReference::Water(pos, vel)
}

/// Builds the water program for `nthreads` threads.
pub fn build_water(params: WaterParams, nthreads: usize) -> BuiltApp {
    build_water_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_water`] against `want`, which is `reference(&params)`.
pub(crate) fn build_water_with(
    params: WaterParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    let n = params.n_mol as i64;
    assert!(params.n_mol >= 2, "need at least two molecules");

    let mut layout = SharedLayout::new();
    let pos = layout.alloc("pos", 3 * params.n_mol as u64) as i64;
    let vel = layout.alloc("vel", 3 * params.n_mol as u64) as i64;
    let force = layout.alloc("force", 3 * params.n_mol as u64) as i64;
    let bar = Barrier::alloc(&mut layout, "step", nthreads as i64);

    let mut b = ProgramBuilder::new("water");
    let lo = b.def_i("lo", b.tid() * n / b.nthreads());
    let hi = b.def_i("hi", (b.tid() + 1) * n / b.nthreads());

    b.for_range("iter", 0, params.iters as i64, |b, _| {
        // Phase 1: forces on own molecules.
        b.for_range("i", lo.get(), hi.get(), |b, i| {
            let ibase = b.def_i("ibase", i.get() * 3 + pos);
            let (xi, yi) = b.load_pair_shared_f("pi", ibase.get());
            let zi = b.def_f("zi", b.load_shared_f(ibase.get() + 2));
            let fx = b.def_f("fx", 0.0);
            let fy = b.def_f("fy", 0.0);
            let fz = b.def_f("fz", 0.0);
            b.for_range("j", 0, n, |b, j| {
                b.if_(j.get().ne(i.get()), |b| {
                    let jbase = b.def_i("jbase", j.get() * 3 + pos);
                    let (xj, yj) = b.load_pair_shared_f("pj", jbase.get());
                    let zj = b.load_shared_f(jbase.get() + 2);
                    let dx = b.def_f("dx", xi.get() - xj.get());
                    let dy = b.def_f("dy", yi.get() - yj.get());
                    let dz = b.def_f("dz", zi.get() - zj);
                    let r2 = b.def_f(
                        "r2",
                        (dx.get() * dx.get() + dy.get() * dy.get()) + dz.get() * dz.get(),
                    );
                    b.if_(r2.get().flt(CUTOFF2), |b| {
                        let inv = b.def_f("inv", b.const_f(1.0) / (r2.get() + SOFTEN));
                        let s = b.def_f("s", inv.get() * inv.get() - inv.get() * 0.5);
                        b.assign_f(fx, fx.get() + s.get() * dx.get());
                        b.assign_f(fy, fy.get() + s.get() * dy.get());
                        b.assign_f(fz, fz.get() + s.get() * dz.get());
                    });
                });
            });
            let fbase = b.def_i("fbase", i.get() * 3 + force);
            b.store_pair_shared_f(fbase.get(), fx.get(), fy.get());
            b.store_shared_f(fbase.get() + 2, fz.get());
        });
        bar.emit_wait(b);

        // Phase 2: integrate own molecules.
        b.for_range("i", lo.get(), hi.get(), |b, i| {
            let base3 = b.def_i("base3", i.get() * 3);
            b.for_range("a", 0, 3, |b, a| {
                let f = b.load_shared_f(base3.get() + a.get() + force);
                let v = b.def_f("v", b.load_shared_f(base3.get() + a.get() + vel));
                b.assign_f(v, v.get() + f * DT);
                b.store_shared_f(base3.get() + a.get() + vel, v.get());
                let x = b.load_shared_f(base3.get() + a.get() + pos);
                b.store_shared_f(base3.get() + a.get() + pos, x + v.get() * DT);
            });
        });
        bar.emit_wait(b);
    });

    let program = b.finish();
    let mut shared = SharedMemory::new(layout.size());
    let (pos0, vel0) = initial_state(&params);
    for (k, &v) in pos0.iter().enumerate() {
        shared.write_f64((pos as usize + k) as u64, v);
    }
    for (k, &v) in vel0.iter().enumerate() {
        shared.write_f64((vel as usize + k) as u64, v);
    }

    BuiltApp::new("water", program, shared, nthreads, move |mem| {
        let AppReference::Water(want_pos, want_vel) = &*want else {
            unreachable!("a water reference")
        };
        for (k, &w) in want_pos.iter().enumerate() {
            let got = mem.read_f64((pos as usize + k) as u64);
            if got != w {
                return Err(format!("pos[{k}]: got {got}, want {w}"));
            }
        }
        for (k, &w) in want_vel.iter().enumerate() {
            let got = mem.read_f64((vel as usize + k) as u64);
            if got != w {
                return Err(format!("vel[{k}]: got {got}, want {w}"));
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
    fn host_water_moves_molecules() {
        let p = WaterParams { n_mol: 8, iters: 2, seed: 1 };
        let (pos, _) = host_water(&p);
        let (pos0, _) = initial_state(&p);
        assert!(pos.iter().zip(&pos0).any(|(a, b)| a != b), "positions must change");
    }

    #[test]
    fn water_single_thread_bitexact() {
        let app = build_water(WaterParams { n_mol: 6, iters: 1, seed: 3 }, 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn water_parallel_models_bitexact() {
        for (model, p, t) in [
            (SwitchModel::SwitchOnLoad, 3, 2),
            (SwitchModel::ExplicitSwitch, 2, 3),
            (SwitchModel::ConditionalSwitch, 2, 2),
        ] {
            let app = build_water(WaterParams { n_mol: 9, iters: 2, seed: 5 }, p * t);
            run_app(&app, MachineConfig::new(model, p, t)).unwrap();
        }
    }

    #[test]
    fn water_grouping_captures_coordinate_loads() {
        let app = build_water(WaterParams::default(), 4);
        let (_, stats) = app.grouped();
        // The neighbor-coordinate LoadPair + z-load group.
        assert!(stats.max_group() >= 2, "{stats:?}");
    }
}
