//! `blkmat` — blocked matrix multiply (paper Table 1: "blocked matrix
//! multiply — 200 x 200 matrices", 409 lines, 87 Mcycles).
//!
//! Each output block is claimed dynamically; its input blocks are copied
//! into **private local memory** and multiplied there — the paper singles
//! blkmat out for its "exceptionally high mean run-length" precisely
//! because of this private-copy strategy: long stretches of purely local
//! multiply-accumulate separate the bursts of shared loads.

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_mem::SharedMemory;
use mtsim_rt::WorkQueue;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct BlkmatParams {
    /// Matrix side length.
    pub n: usize,
    /// Block side length (must divide `n`).
    pub bs: usize,
}

impl Default for BlkmatParams {
    fn default() -> BlkmatParams {
        BlkmatParams { n: 64, bs: 8 }
    }
}

/// Deterministic input entries shared by device initialization and host
/// reference.
fn a_entry(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 13) as f64 * 0.5 - 3.0
}

fn b_entry(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 29) % 11) as f64 * 0.25 - 1.25
}

/// Host reference multiply with the device's exact accumulation order
/// (k-blocks ascending, k within block ascending).
pub fn host_blkmat(n: usize, bs: usize) -> Vec<f64> {
    let nb = n / bs;
    let mut c = vec![0.0f64; n * n];
    for bi in 0..nb {
        for bj in 0..nb {
            for kb in 0..nb {
                for r in 0..bs {
                    for col in 0..bs {
                        let mut acc = c[(bi * bs + r) * n + bj * bs + col];
                        for k in 0..bs {
                            acc += a_entry(bi * bs + r, kb * bs + k)
                                * b_entry(kb * bs + k, bj * bs + col);
                        }
                        c[(bi * bs + r) * n + bj * bs + col] = acc;
                    }
                }
            }
        }
    }
    c
}

/// The host reference [`build_blkmat`] verifies against.
pub(crate) fn reference(params: &BlkmatParams) -> AppReference {
    AppReference::Blkmat(host_blkmat(params.n, params.bs))
}

/// Builds the blkmat program for `nthreads` threads.
pub fn build_blkmat(params: BlkmatParams, nthreads: usize) -> BuiltApp {
    build_blkmat_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_blkmat`] against `want`, which is `reference(&params)`.
pub(crate) fn build_blkmat_with(
    params: BlkmatParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    let n = params.n;
    let bs = params.bs;
    assert!(bs >= 2 && n.is_multiple_of(bs), "block size must divide matrix size");
    let (ni, bsi) = (n as i64, bs as i64);
    let nb = ni / bsi;

    let mut layout = SharedLayout::new();
    let a_base = layout.alloc("A", (n * n) as u64) as i64;
    let b_base = layout.alloc("B", (n * n) as u64) as i64;
    let c_base = layout.alloc("C", (n * n) as u64) as i64;
    let wq = WorkQueue::alloc(&mut layout, "blocks");

    let mut b = ProgramBuilder::new("blkmat");
    let la = b.local_alloc((bs * bs) as u64);
    let lb = b.local_alloc((bs * bs) as u64);
    let lc = b.local_alloc((bs * bs) as u64);

    wq.emit_for_each(&mut b, nb * nb, 1, |b, blk| {
        let bi = b.def_i("bi", blk.get() / nb);
        let bj = b.def_i("bj", blk.get() % nb);
        // Zero the private accumulator block.
        b.for_range("z", 0, bsi * bsi, |b, z| {
            b.store_local_f(z.get() + lc, 0.0);
        });
        b.for_range("kb", 0, nb, |b, kb| {
            // Copy A(bi, kb) and B(kb, bj) into private memory: a burst of
            // shared loads feeding local stores.
            b.for_range("r", 0, bsi, |b, r| {
                let arow =
                    b.def_i("arow", (bi.get() * bsi + r.get()) * ni + kb.get() * bsi + a_base);
                let brow =
                    b.def_i("brow", (kb.get() * bsi + r.get()) * ni + bj.get() * bsi + b_base);
                let lrow = b.def_i("lrow", r.get() * bsi);
                b.for_range("cc", 0, bsi, |b, cc| {
                    let av = b.load_shared_f(arow.get() + cc.get());
                    b.store_local_f(lrow.get() + cc.get() + la, av);
                    let bv = b.load_shared_f(brow.get() + cc.get());
                    b.store_local_f(lrow.get() + cc.get() + lb, bv);
                });
            });
            // Multiply-accumulate entirely in local memory: the long runs.
            b.for_range("r", 0, bsi, |b, r| {
                b.for_range("col", 0, bsi, |b, col| {
                    let acc = b.def_f("acc", b.load_local_f(r.get() * bsi + col.get() + lc));
                    b.for_range("k", 0, bsi, |b, k| {
                        let av = b.load_local_f(r.get() * bsi + k.get() + la);
                        let bv = b.load_local_f(k.get() * bsi + col.get() + lb);
                        b.assign_f(acc, acc.get() + av * bv);
                    });
                    b.store_local_f(r.get() * bsi + col.get() + lc, acc.get());
                });
            });
        });
        // Write the finished block to shared C.
        b.for_range("r", 0, bsi, |b, r| {
            let crow = b.def_i("crow", (bi.get() * bsi + r.get()) * ni + bj.get() * bsi + c_base);
            b.for_range("cc", 0, bsi, |b, cc| {
                let v = b.load_local_f(r.get() * bsi + cc.get() + lc);
                b.store_shared_f(crow.get() + cc.get(), v);
            });
        });
    });

    let program = b.finish();
    let mut shared = SharedMemory::new(layout.size());
    for i in 0..n {
        for j in 0..n {
            shared.write_f64((a_base as usize + i * n + j) as u64, a_entry(i, j));
            shared.write_f64((b_base as usize + i * n + j) as u64, b_entry(i, j));
        }
    }

    BuiltApp::new("blkmat", program, shared, nthreads, move |mem| {
        let AppReference::Blkmat(want) = &*want else { unreachable!("a blkmat reference") };
        for (k, &w) in want.iter().enumerate() {
            let got = mem.read_f64((c_base as usize + k) as u64);
            if (got - w).abs() > 1e-9 {
                return Err(format!("C[{},{}]: got {got}, want {w}", k / n, k % n));
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
    fn host_blkmat_matches_naive() {
        let n = 8;
        let blocked = host_blkmat(n, 4);
        for i in 0..n {
            for j in 0..n {
                let naive: f64 = (0..n).map(|k| a_entry(i, k) * b_entry(k, j)).sum();
                assert!(
                    (blocked[i * n + j] - naive).abs() < 1e-9,
                    "({i},{j}): {} vs {naive}",
                    blocked[i * n + j]
                );
            }
        }
    }

    #[test]
    fn blkmat_single_thread() {
        let app = build_blkmat(BlkmatParams { n: 8, bs: 4 }, 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn blkmat_parallel_models() {
        for (model, p, t) in
            [(SwitchModel::SwitchOnLoad, 4, 2), (SwitchModel::ExplicitSwitch, 2, 2)]
        {
            let app = build_blkmat(BlkmatParams { n: 16, bs: 4 }, p * t);
            run_app(&app, MachineConfig::new(model, p, t)).unwrap();
        }
    }

    #[test]
    fn blkmat_has_long_mean_run_length() {
        // The private-copy strategy should push the mean run-length far
        // above sor-like codes.
        let app = build_blkmat(BlkmatParams { n: 16, bs: 8 }, 2);
        let r = run_app(&app, MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 2)).unwrap();
        assert!(r.run_lengths.mean() > 15.0, "mean run-length {}", r.run_lengths.mean());
    }
}
