//! `ugray` — ray-tracing renderer (paper Table 1: "ray tracing graphics
//! renderer — gears (7169 faces)", 10,784 lines, the study's biggest code).
//!
//! A sphere-scene Whitted-style tracer that preserves ugray's memory
//! signature: the scene is a **linked list** of 8-word sphere records laid
//! out in shuffled order (pointer chasing defeats intra-block grouping);
//! the record fields are loaded across condition-split basic blocks (the
//! §5.2 inter-block opportunity — the paper measured a 42 % one-line-cache
//! hit rate); pixels are claimed dynamically; and a global nearest-hit
//! statistic is maintained under a ticket lock — the critical section
//! whose interaction with long cache-hit runs motivated the paper's
//! forced-switch mechanism (§6.2).

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_mem::SharedMemory;
use mtsim_rng::Rng;
use mtsim_rt::{TicketLock, WorkQueue};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct UgrayParams {
    /// Image width (a power of two).
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Number of spheres in the scene.
    pub n_spheres: usize,
    /// Seed for scene generation and record shuffling.
    pub seed: u64,
}

impl Default for UgrayParams {
    fn default() -> UgrayParams {
        UgrayParams { width: 32, height: 32, n_spheres: 200, seed: 42 }
    }
}

const BIG: f64 = 1.0e30;
/// Words per sphere record (8 so the index shift is a 1-cycle `sll`).
const REC: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Sphere {
    cx: f64,
    cy: f64,
    cz: f64,
    r2: f64,
    albedo: f64,
}

/// Scene generation plus the shuffled record placement: returns the sphere
/// list in traversal order and the storage slot of each.
fn scene(p: &UgrayParams) -> (Vec<Sphere>, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(p.seed);
    let spheres: Vec<Sphere> = (0..p.n_spheres)
        .map(|_| {
            let r = rng.range_f64(0.05, 0.35);
            Sphere {
                cx: rng.range_f64(-1.5, 1.5),
                cy: rng.range_f64(-1.5, 1.5),
                cz: rng.range_f64(2.0, 6.0),
                r2: r * r,
                albedo: rng.range_f64(0.2, 1.0),
            }
        })
        .collect();
    let mut slots: Vec<usize> = (0..p.n_spheres).collect();
    rng.shuffle(&mut slots);
    (spheres, slots)
}

/// Host-side reference renderer: identical traversal order and arithmetic.
/// Returns (image, global nearest hit).
pub fn host_ugray(p: &UgrayParams) -> (Vec<f64>, f64) {
    let (spheres, _) = scene(p);
    let (w, h) = (p.width as f64, p.height as f64);
    let mut img = vec![0.0f64; p.width * p.height];
    let mut gmin = BIG;
    for py in 0..p.height {
        for px in 0..p.width {
            let ud = px as f64 / w - 0.5;
            let vd = py as f64 / h - 0.5;
            let dd = ud * ud + vd * vd + 1.0;
            let mut t_best = BIG;
            let mut alb_best = 0.0;
            for s in &spheres {
                let doc = ud * s.cx + vd * s.cy + s.cz;
                let cc = s.cx * s.cx + s.cy * s.cy + s.cz * s.cz;
                let disc = doc * doc - dd * (cc - s.r2);
                if disc > 0.0 {
                    let t = (doc - disc.sqrt()) / dd;
                    if t > 0.0 && t < t_best {
                        t_best = t;
                        alb_best = s.albedo;
                    }
                }
            }
            if t_best < BIG {
                img[py * p.width + px] = alb_best / (1.0 + t_best * t_best);
                if t_best < gmin {
                    gmin = t_best;
                }
            }
        }
    }
    (img, gmin)
}

/// The host reference [`build_ugray`] verifies against.
pub(crate) fn reference(params: &UgrayParams) -> AppReference {
    let (image, gmin) = host_ugray(params);
    AppReference::Ugray(image, gmin)
}

/// Builds the ugray program for `nthreads` threads.
pub fn build_ugray(params: UgrayParams, nthreads: usize) -> BuiltApp {
    build_ugray_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_ugray`] against `want`, which is `reference(&params)`.
pub(crate) fn build_ugray_with(
    params: UgrayParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    assert!(params.width.is_power_of_two(), "width must be a power of two");
    assert!(params.n_spheres >= 1);
    let wi = params.width as i64;
    let log_w = wi.trailing_zeros() as i64;
    let n_pixels = (params.width * params.height) as i64;

    let (spheres, slots) = scene(&params);

    let mut layout = SharedLayout::new();
    let recs = layout.alloc("spheres", (REC * params.n_spheres) as u64) as i64;
    let image = layout.alloc("image", n_pixels as u64) as i64;
    let gmin_addr = layout.alloc("gmin", 1) as i64;
    let lock = TicketLock::alloc(&mut layout, "gmin-lock");
    let wq = WorkQueue::alloc(&mut layout, "pixels");

    let head = slots[0] as i64;
    let inv_w = 1.0 / params.width as f64;
    let inv_h = 1.0 / params.height as f64;

    let mut b = ProgramBuilder::new("ugray");
    wq.emit_for_each(&mut b, n_pixels, 2, |b, pix| {
        let px = b.def_i("px", pix.get() & (wi - 1));
        let py = b.def_i("py", pix.get() >> log_w);
        let ud = b.def_f("ud", px.get().to_f() * inv_w - 0.5);
        let vd = b.def_f("vd", py.get().to_f() * inv_h - 0.5);
        let dd = b.def_f("dd", ud.get() * ud.get() + vd.get() * vd.get() + 1.0);
        let t_best = b.def_f("t_best", BIG);
        let alb_best = b.def_f("alb_best", 0.0);

        // Pointer-chase down the shuffled record list.
        let idx = b.def_i("idx", head);
        b.while_(idx.get().ge(0), |b| {
            let base = b.def_i("base", (idx.get() << 3) + recs);
            let next = b.def_i("next", b.load_shared(base.get()));
            let (cx, cy) = b.load_pair_shared_f("c", base.get() + 1);
            let cz = b.def_f("cz", b.load_shared_f(base.get() + 3));
            let r2 = b.def_f("r2", b.load_shared_f(base.get() + 4));
            let doc = b.def_f("doc", ud.get() * cx.get() + vd.get() * cy.get() + cz.get());
            let cc = b.def_f("cc", cx.get() * cx.get() + cy.get() * cy.get() + cz.get() * cz.get());
            let disc = b.def_f("disc", doc.get() * doc.get() - dd.get() * (cc.get() - r2.get()));
            b.if_(b.const_f(0.0).flt(disc.get()), |b| {
                let t = b.def_f("t", (doc.get() - disc.get().sqrt()) / dd.get());
                b.if_(b.const_f(0.0).flt(t.get()), |b| {
                    b.if_(t.get().flt(t_best.get()), |b| {
                        // The albedo load lives in its own basic block —
                        // the condition-split field access of §5.2.
                        let alb = b.load_shared_f(base.get() + 5);
                        b.assign_f(alb_best, alb);
                        b.assign_f(t_best, t.get());
                    });
                });
            });
            b.assign(idx, next.get());
        });

        b.if_(t_best.get().flt(BIG), |b| {
            let shade = b.def_f("shade", alb_best.get() / (t_best.get() * t_best.get() + 1.0));
            b.store_shared_f(py.get() * wi + px.get() + image, shade.get());
            // Double-checked global nearest-hit update under the lock.
            let cur = b.def_f("cur", b.load_shared_f(b.const_i(gmin_addr)));
            b.if_(t_best.get().flt(cur.get()), |b| {
                lock.emit_critical(b, |b| {
                    let cur2 = b.def_f("cur2", b.load_shared_f(b.const_i(gmin_addr)));
                    b.if_(t_best.get().flt(cur2.get()), |b| {
                        b.store_shared_f(b.const_i(gmin_addr), t_best.get());
                    });
                });
            });
        });
    });

    let program = b.finish();
    let mut shared = SharedMemory::new(layout.size());
    for (k, s) in spheres.iter().enumerate() {
        let slot = slots[k];
        let base = recs as usize + REC * slot;
        let next: i64 = if k + 1 < slots.len() { slots[k + 1] as i64 } else { -1 };
        shared.write_i64(base as u64, next);
        shared.write_f64(base as u64 + 1, s.cx);
        shared.write_f64(base as u64 + 2, s.cy);
        shared.write_f64(base as u64 + 3, s.cz);
        shared.write_f64(base as u64 + 4, s.r2);
        shared.write_f64(base as u64 + 5, s.albedo);
    }
    shared.write_f64(gmin_addr as u64, BIG);

    let width = params.width;
    BuiltApp::new("ugray", program, shared, nthreads, move |mem| {
        let AppReference::Ugray(want_img, want_gmin) = &*want else {
            unreachable!("a ugray reference")
        };
        for (k, &w) in want_img.iter().enumerate() {
            let got = mem.read_f64((image as usize + k) as u64);
            if got != w {
                return Err(format!("pixel ({},{}): got {got}, want {w}", k % width, k / width));
            }
        }
        let got_gmin = mem.read_f64(gmin_addr as u64);
        if got_gmin != *want_gmin {
            return Err(format!("gmin: got {got_gmin}, want {want_gmin}"));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_app;
    use mtsim_core::{MachineConfig, SwitchModel};

    fn tiny() -> UgrayParams {
        UgrayParams { width: 8, height: 8, n_spheres: 10, seed: 9 }
    }

    #[test]
    fn host_renders_some_hits() {
        let (img, gmin) = host_ugray(&tiny());
        assert!(img.iter().any(|&v| v > 0.0), "scene must be visible");
        assert!(gmin < BIG);
    }

    #[test]
    fn ugray_single_thread_bitexact() {
        let app = build_ugray(tiny(), 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn ugray_parallel_models() {
        for (model, p, t) in [
            (SwitchModel::SwitchOnLoad, 4, 2),
            (SwitchModel::ExplicitSwitch, 2, 3),
            (SwitchModel::ConditionalSwitch, 2, 2),
        ] {
            let app = build_ugray(tiny(), p * t);
            run_app(&app, MachineConfig::new(model, p, t)).unwrap();
        }
    }

    #[test]
    fn ugray_oneline_cache_sees_field_locality() {
        // The record fields are adjacent, so the §5.2 estimator should see
        // a substantial hit rate (the paper reports 42 %).
        let app = build_ugray(tiny(), 2);
        let r = run_app(&app, MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 2)).unwrap();
        let rate = r.one_line_hit_rate();
        assert!((0.2..0.95).contains(&rate), "one-line hit rate {rate} outside plausible band");
    }
}
