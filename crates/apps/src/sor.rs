//! `sor` — red-black successive over-relaxation for Laplace's equation
//! (paper Table 1: "S.O.R. solver for Laplace's equation — 192 x 192
//! grid", 332 lines, 258 Mcycles).
//!
//! This is the paper's flagship grouping example: the inner-loop update of
//! Figure 4 loads **five** shared values (the four neighbors and the
//! center) whose back-to-back loads give sor its terrible
//! switch-on-load run-length distribution (39 % one-cycle runs), and which
//! the grouping pass collapses into a single five-load group.
//!
//! The red-black ordering (update all `(i+j)` even cells, barrier, then
//! all odd cells, barrier) makes the parallel computation bit-for-bit
//! deterministic, so verification against the host reference is exact.

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_mem::SharedMemory;
use mtsim_rt::Barrier;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SorParams {
    /// Grid side length (the grid is `n × n`).
    pub n: usize,
    /// Red-black iterations (each updates both colors).
    pub iters: usize,
    /// Over-relaxation factor.
    pub omega: f64,
}

impl Default for SorParams {
    fn default() -> SorParams {
        SorParams { n: 64, iters: 4, omega: 1.5 }
    }
}

/// The deterministic boundary/initial condition shared by device and host.
fn initial(n: usize, i: usize, j: usize) -> f64 {
    if i == 0 {
        1.0 + j as f64 / n as f64
    } else if i == n - 1 || j == 0 || j == n - 1 {
        0.25
    } else {
        0.0
    }
}

/// One red-black update, expressed identically on host and device:
/// `new = c + omega * (((n + s) + (e + w)) * 0.25 - c)`.
fn host_update(c: f64, up: f64, down: f64, left: f64, right: f64, omega: f64) -> f64 {
    c + omega * (((up + down) + (left + right)) * 0.25 - c)
}

/// Host-side reference solver.
pub fn host_sor(n: usize, iters: usize, omega: f64) -> Vec<f64> {
    let mut a: Vec<f64> = (0..n * n).map(|k| initial(n, k / n, k % n)).collect();
    for _ in 0..iters {
        for color in 0..2usize {
            for i in 1..n - 1 {
                // First interior j with (i + j) % 2 == color.
                let mut j = if (i + 1) % 2 == color { 1 } else { 2 };
                while j < n - 1 {
                    let idx = i * n + j;
                    a[idx] =
                        host_update(a[idx], a[idx - n], a[idx + n], a[idx - 1], a[idx + 1], omega);
                    j += 2;
                }
            }
        }
    }
    a
}

/// The host reference [`build_sor`] verifies against.
pub(crate) fn reference(params: &SorParams) -> AppReference {
    AppReference::Sor(host_sor(params.n, params.iters, params.omega))
}

/// Builds the sor program for `nthreads` threads.
pub fn build_sor(params: SorParams, nthreads: usize) -> BuiltApp {
    build_sor_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_sor`] against `want`, which is `reference(&params)`.
pub(crate) fn build_sor_with(
    params: SorParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    let n = params.n;
    assert!(n >= 4, "grid too small");
    let ni = n as i64;

    let mut layout = SharedLayout::new();
    let grid = layout.alloc("grid", (n * n) as u64) as i64;
    let bar = Barrier::alloc(&mut layout, "color", nthreads as i64);

    let mut b = ProgramBuilder::new("sor");

    // Static row partition of interior rows 1..n-1.
    let rows = ni - 2;
    let lo = b.def_i("lo", b.tid() * rows / b.nthreads() + 1);
    let hi = b.def_i("hi", (b.tid() + 1) * rows / b.nthreads() + 1);
    let omega = params.omega;

    b.for_range("iter", 0, params.iters as i64, |b, _| {
        for color in 0..2i64 {
            b.for_range("i", lo.get(), hi.get(), |b, i| {
                // First interior j with (i + j) % 2 == color.
                let j0 = b.def_i("j0", (i.get() + 1 + color) & 1);
                b.assign(j0, j0.get() + 1);
                let row = b.def_i("row", i.get() * ni + grid);
                b.for_range_step("j", j0.get(), ni - 1, 2, |b, j| {
                    let idx = b.def_i("idx", row.get() + j.get());
                    // The Figure 4 five-load update.
                    let up = b.load_shared_f(idx.get() - ni);
                    let down = b.load_shared_f(idx.get() + ni);
                    let left = b.load_shared_f(idx.get() - 1);
                    let right = b.load_shared_f(idx.get() + 1);
                    let c = b.def_f("c", b.load_shared_f(idx.get()));
                    let avg = b.def_f("avg", ((up + down) + (left + right)) * 0.25);
                    let newv = b.def_f("new", c.get() + (avg.get() - c.get()) * omega);
                    b.store_shared_f(idx.get(), newv.get());
                });
            });
            bar.emit_wait(b);
        }
    });

    let program = b.finish();
    let mut shared = SharedMemory::new(layout.size());
    for i in 0..n {
        for j in 0..n {
            shared.write_f64((grid as usize + i * n + j) as u64, initial(n, i, j));
        }
    }

    BuiltApp::new("sor", program, shared, nthreads, move |mem| {
        let AppReference::Sor(want) = &*want else { unreachable!("a sor reference") };
        for (k, &w) in want.iter().enumerate() {
            let got = mem.read_f64((grid as usize + k) as u64);
            if got != w {
                return Err(format!("grid[{},{}]: got {got}, want {w}", k / n, k % n));
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
    fn host_sor_converges_toward_boundary() {
        // After many iterations interior values move off zero.
        let a = host_sor(8, 50, 1.5);
        assert!(a[3 * 8 + 3].abs() > 1e-3);
    }

    #[test]
    fn device_update_matches_host_update_shape() {
        // The builder's expression tree is ((up+down)+(left+right))*0.25
        // and c + (avg - c)*omega — mirror of host_update with the omega
        // multiplication order swapped; verify algebraic identity on
        // representative values.
        let (c, u, d, l, r, om) = (0.3, 1.1, -0.2, 0.77, 0.01, 1.5);
        let avg = ((u + d) + (l + r)) * 0.25;
        assert_eq!(host_update(c, u, d, l, r, om), c + om * (avg - c));
        // NOTE: device computes c + (avg - c) * omega. For exactness we
        // need host to use the same order; host_update uses
        // omega * (avg - c) which multiplies the same operands — IEEE
        // multiplication is commutative, so the results are identical.
    }

    #[test]
    fn sor_single_thread_matches_host_exactly() {
        let app = build_sor(SorParams { n: 10, iters: 3, omega: 1.5 }, 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn sor_parallel_is_deterministic_and_correct() {
        for (model, p, t) in [
            (SwitchModel::SwitchOnLoad, 4, 2),
            (SwitchModel::ExplicitSwitch, 2, 4),
            (SwitchModel::ConditionalSwitch, 2, 2),
        ] {
            let app = build_sor(SorParams { n: 12, iters: 2, omega: 1.5 }, p * t);
            run_app(&app, MachineConfig::new(model, p, t)).unwrap();
        }
    }

    #[test]
    fn sor_grouping_forms_five_load_groups() {
        let app = build_sor(SorParams::default(), 4);
        let (_, stats) = app.grouped();
        assert!(stats.max_group() >= 5, "expected the Figure 4 group: {stats:?}");
    }

    #[test]
    fn sor_threads_exceeding_rows() {
        let app = build_sor(SorParams { n: 6, iters: 1, omega: 1.5 }, 10);
        run_app(&app, MachineConfig::new(SwitchModel::SwitchOnLoad, 5, 2)).unwrap();
    }
}
