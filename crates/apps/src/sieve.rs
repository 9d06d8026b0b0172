//! `sieve` — counts primes below a limit (paper Table 1: "counts primes
//! < 4,000,000", 242 lines, 106 Mcycles).
//!
//! Structure mirrors the paper's description: a marking phase that "runs
//! through a large array marking numbers as non-prime at a constant rate"
//! (shared stores, which never context-switch), and a counting phase whose
//! regular shared loads give sieve its nearly constant run-length
//! distribution. Prime candidates are handed out dynamically with
//! fetch-and-add; the phases are separated by a barrier.

use std::sync::Arc;

use crate::harness::BuiltApp;
use crate::AppReference;
use mtsim_asm::{ProgramBuilder, SharedLayout};
use mtsim_isa::AccessHint;
use mtsim_mem::SharedMemory;
use mtsim_rt::{Barrier, WorkQueue};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SieveParams {
    /// Count primes strictly below this limit.
    pub limit: u64,
}

impl Default for SieveParams {
    fn default() -> SieveParams {
        SieveParams { limit: 200_000 }
    }
}

/// Host-side prime count (the verification reference).
pub fn host_prime_count(limit: u64) -> u64 {
    if limit <= 2 {
        return 0;
    }
    let n = limit as usize;
    let mut composite = vec![false; n];
    let mut count: u64 = 1; // the prime 2
    let mut c = 3usize;
    while c * c < n {
        if !composite[c] {
            let mut m = c * c;
            while m < n {
                composite[m] = true;
                m += 2 * c;
            }
        }
        c += 2;
    }
    let mut i = 3usize;
    while i < n {
        if !composite[i] {
            count += 1;
        }
        i += 2;
    }
    count
}

/// The host reference [`build_sieve`] verifies against.
pub(crate) fn reference(params: &SieveParams) -> AppReference {
    AppReference::Sieve(host_prime_count(params.limit))
}

/// Builds the sieve program for `nthreads` threads.
pub fn build_sieve(params: SieveParams, nthreads: usize) -> BuiltApp {
    build_sieve_with(params, nthreads, Arc::new(reference(&params)))
}

/// [`build_sieve`] against `want`, which is `reference(&params)`.
pub(crate) fn build_sieve_with(
    params: SieveParams,
    nthreads: usize,
    want: Arc<AppReference>,
) -> BuiltApp {
    let limit = params.limit as i64;
    assert!(limit >= 8, "sieve limit too small");

    let mut layout = SharedLayout::new();
    let flags = layout.alloc("flags", params.limit) as i64;
    let result = layout.alloc("result", 1) as i64;
    let wq = WorkQueue::alloc(&mut layout, "candidates");
    let bar = Barrier::alloc(&mut layout, "phase", nthreads as i64);

    // Odd candidates c = 3 + 2k with c*c < limit.
    let mut k_max = 0i64;
    while (3 + 2 * k_max) * (3 + 2 * k_max) < limit {
        k_max += 1;
    }

    let mut b = ProgramBuilder::new("sieve");

    // Phase A: dynamically grab candidates and mark their odd multiples.
    // (Marking multiples of composite candidates is redundant but
    // harmless, and keeps the phase race-free.)
    wq.emit_for_each(&mut b, k_max, 1, |b, k| {
        let c = b.def_i("c", k.get() * 2 + 3);
        let m = b.def_i("m", c.get() * c.get());
        b.while_(m.get().lt(limit), |b| {
            b.store_shared(m.get() + flags, 1);
            b.assign(m, m.get() + c.get() * 2);
        });
    });
    bar.emit_wait(&mut b);

    // Phase B: count unmarked odd numbers, striding by thread count —
    // a shared load at a constant rate.
    let count = b.def_i("count", 0);
    let i = b.def_i("i", b.tid() * 2 + 3);
    let stride = b.def_i("stride", b.nthreads() * 2);
    b.while_(i.get().lt(limit), |b| {
        let v = b.def_i("v", b.load_shared(i.get() + flags));
        b.if_(v.get().eq(0), |b| {
            b.assign(count, count.get() + 1);
        });
        b.assign(i, i.get() + stride.get());
    });
    // Thread 0 also counts the prime 2.
    b.if_(b.tid().eq(0), |b| {
        b.assign(count, count.get() + 1);
    });
    b.fetch_add_discard(b.const_i(result), count.get(), AccessHint::Data);

    let program = b.finish();
    let shared = SharedMemory::new(layout.size());
    BuiltApp::new("sieve", program, shared, nthreads, move |mem| {
        let AppReference::Sieve(want) = *want else { unreachable!("a sieve reference") };
        let got = mem.read_i64(result as u64);
        if got == want as i64 {
            Ok(())
        } else {
            Err(format!("prime count: got {got}, want {want}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_app;
    use mtsim_core::{MachineConfig, SwitchModel};

    #[test]
    fn host_counts_match_known_values() {
        assert_eq!(host_prime_count(10), 4);
        assert_eq!(host_prime_count(100), 25);
        assert_eq!(host_prime_count(1000), 168);
        assert_eq!(host_prime_count(10_000), 1229);
    }

    #[test]
    fn sieve_single_thread_ideal() {
        let app = build_sieve(SieveParams { limit: 2_000 }, 1);
        run_app(&app, MachineConfig::ideal(1)).unwrap();
    }

    #[test]
    fn sieve_parallel_switch_on_load() {
        let app = build_sieve(SieveParams { limit: 2_000 }, 8);
        run_app(&app, MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 2)).unwrap();
    }

    #[test]
    fn sieve_parallel_explicit_switch() {
        let app = build_sieve(SieveParams { limit: 2_000 }, 6);
        run_app(&app, MachineConfig::new(SwitchModel::ExplicitSwitch, 2, 3)).unwrap();
    }

    #[test]
    fn sieve_more_threads_than_work() {
        // Degenerate: more threads than candidates; barriers must still work.
        let app = build_sieve(SieveParams { limit: 64 }, 12);
        run_app(&app, MachineConfig::new(SwitchModel::SwitchOnLoad, 4, 3)).unwrap();
    }
}
