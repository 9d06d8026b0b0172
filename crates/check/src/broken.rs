//! A deliberate miscompiler, used as a self-test of the harness.
//!
//! `mtsim_opt::group_shared_loads` is only allowed to hoist shared loads
//! *within* the region bounded by the previous shared store (the §4/§5
//! reorganization constraint: a load may not move across a store it might
//! alias). This module produces images that violate exactly that rule —
//! it runs the real grouping pass, then swaps a shared store with a later
//! shared load in the instruction stream — so the differential harness
//! and shrinker can be shown to *catch* the illegal reordering. The
//! fixture test in `tests/broken_fixture.rs` asserts the divergence is
//! detected and shrinks the witness program to a handful of instructions.

use mtsim_asm::Program;
use mtsim_opt::{basic_blocks, group_shared_loads};

/// Window (in instructions) past a shared store within which a following
/// shared load is considered for the illegal swap. Small, so the swap
/// stays inside one basic block in practice.
const SWAP_WINDOW: usize = 8;

/// All "miscompiled" variants of `prog`: the grouped image with one
/// shared store swapped with a shared load that program order places
/// after it. Returns an empty vector when the program has no
/// store-then-load pair in range (nothing to miscompile).
pub fn miscompiled_candidates(prog: &Program) -> Vec<Program> {
    let grouped = group_shared_loads(prog).program;
    let insts = grouped.insts();
    let mut out = Vec::new();
    for i in 0..insts.len() {
        if !insts[i].is_shared_write() {
            continue;
        }
        for j in (i + 1)..insts.len().min(i + 1 + SWAP_WINDOW) {
            if insts[j].is_shared_read() {
                let mut v = insts.to_vec();
                v.swap(i, j);
                out.push(
                    Program::from_raw_parts(format!("{}-miscompiled", grouped.name()), v)
                        .with_local_words(grouped.local_words()),
                );
                break; // one candidate per store: its nearest following load
            }
        }
    }
    out
}

/// Deliberately *illegal* inter-block hoists: variants of the grouped
/// image with one shared load swapped with a shared store that sits in
/// an **earlier basic block**. Lifting a load above a possibly-aliasing
/// store across a block boundary is what an inter-block optimizer
/// without the paper's pessimistic-aliasing rule would do, so these
/// candidates simulate one. A swap keeps every instruction index (and
/// thus every branch target) valid, which is why it stands in for the
/// hoist.
pub fn illegally_hoisted_candidates(prog: &Program) -> Vec<Program> {
    let opt = group_shared_loads(prog).program;
    let insts = opt.insts();
    let blocks = basic_blocks(&opt);
    let block_of = |pc: usize| blocks.iter().position(|r| r.contains(&pc)).unwrap_or(usize::MAX);
    let mut out = Vec::new();
    for i in 0..insts.len() {
        if !insts[i].is_shared_write() {
            continue;
        }
        // Nearest following shared load in a *different* block.
        if let Some(j) = ((i + 1)..insts.len())
            .find(|&j| insts[j].is_shared_read() && block_of(j) != block_of(i))
        {
            let mut v = insts.to_vec();
            v.swap(i, j);
            out.push(
                Program::from_raw_parts(format!("{}-bad-hoist", opt.name()), v)
                    .with_local_words(opt.local_words()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_asm::ProgramBuilder;

    #[test]
    fn store_then_load_yields_a_candidate() {
        let mut b = ProgramBuilder::new("t");
        b.store_shared(b.const_i(0), b.const_i(7));
        let v = b.def_i("v", b.load_shared(b.const_i(0)));
        b.store_shared(b.const_i(1), v.get());
        let prog = b.finish();
        let cands = miscompiled_candidates(&prog);
        assert!(!cands.is_empty(), "expected at least one illegal swap");
        for c in &cands {
            assert_eq!(c.len(), group_shared_loads(&prog).program.len());
            assert_ne!(c.insts(), group_shared_loads(&prog).program.insts());
        }
    }

    #[test]
    fn cross_block_store_load_pair_yields_a_hoist_candidate() {
        let mut b = ProgramBuilder::new("t");
        b.store_shared(b.const_i(0), b.const_i(7));
        let acc = b.def_i("acc", 0);
        b.for_range("i", 0, 4, |b, i| {
            let v = b.load_shared(b.const_i(0));
            b.assign(acc, acc.get() + v + i.get());
        });
        b.store_shared(b.const_i(1), acc.get());
        let prog = b.finish();
        let cands = illegally_hoisted_candidates(&prog);
        assert!(!cands.is_empty(), "expected a cross-block illegal hoist");
        let honest = group_shared_loads(&prog).program;
        for c in &cands {
            assert_eq!(c.len(), honest.len());
            assert_ne!(c.insts(), honest.insts());
        }
    }

    #[test]
    fn pure_compute_has_no_candidates() {
        let mut b = ProgramBuilder::new("t");
        let v = b.def_i("v", 1);
        b.assign(v, v.get() + 2);
        let prog = b.finish();
        assert!(miscompiled_candidates(&prog).is_empty());
    }
}
