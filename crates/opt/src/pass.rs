//! The grouping pass: list-schedules each basic block so that independent
//! shared loads are issued together, then inserts one `Switch` per group.

use crate::blocks::basic_blocks;
use crate::dag::{is_blocking_read, Dag};
use mtsim_asm::Program;
use mtsim_isa::{Inst, Pc, Target};
use std::collections::BTreeMap;

/// Statistics produced by [`group_shared_loads`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Number of `Switch` instructions inserted (= number of groups).
    pub switches_inserted: usize,
    /// Total blocking shared reads placed into groups.
    pub grouped_loads: usize,
    /// Histogram of group sizes: `size -> count`.
    pub group_sizes: BTreeMap<usize, usize>,
    /// Number of basic blocks processed.
    pub blocks: usize,
}

impl GroupStats {
    /// Mean loads per group — the paper's static "grouping" factor.
    /// Returns 0.0 if there are no groups.
    pub fn grouping_factor(&self) -> f64 {
        if self.switches_inserted == 0 {
            0.0
        } else {
            self.grouped_loads as f64 / self.switches_inserted as f64
        }
    }

    /// Largest group formed.
    pub fn max_group(&self) -> usize {
        self.group_sizes.keys().copied().max().unwrap_or(0)
    }
}

/// Result of the grouping pass.
#[derive(Debug, Clone)]
pub struct GroupingResult {
    /// The reorganized program with `Switch` instructions inserted.
    pub program: Program,
    /// Static statistics about the transformation.
    pub stats: GroupStats,
}

/// Reorganizes `prog` for the explicit-switch/conditional-switch models:
/// groups independent shared loads within each basic block and inserts a
/// single `Switch` after each group.
///
/// The transformation preserves semantics: per-register write order, memory
/// order within each space (with the paper's pessimistic aliasing), and
/// control structure are all unchanged.
///
/// # Panics
///
/// Panics if `prog` already contains `Switch` instructions (the pass
/// expects compiler-natural input and is not idempotent).
pub fn group_shared_loads(prog: &Program) -> GroupingResult {
    let blocks = basic_blocks(prog);
    let mut out: Vec<Inst> = Vec::with_capacity(prog.len() + prog.len() / 4);
    let mut stats = GroupStats { blocks: blocks.len(), ..GroupStats::default() };
    // Old pc -> new pc, filled for block leaders only.
    let mut leader_pc: Vec<Option<Pc>> = vec![None; prog.len()];
    // Where each block's branch or jump landed: only a block's terminator
    // can name a target.
    let mut branches: Vec<usize> = Vec::with_capacity(blocks.len());
    let mut scheduler = Scheduler::default();

    for range in &blocks {
        leader_pc[range.start] = Some(out.len() as Pc);
        let insts = &prog.insts()[range.clone()];
        scheduler.schedule_block(insts, &mut out, &mut stats);
        if out.last().is_some_and(|t| t.target().is_some()) {
            branches.push(out.len() - 1);
        }
    }

    // Rewrite branch targets to the new leader positions.
    for &at in &branches {
        let inst = &mut out[at];
        if let Some(Target::Pc(old)) = inst.target() {
            let new = leader_pc
                .get(old as usize)
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("branch target @{old} is not a block leader"));
            inst.set_target(Target::Pc(new));
        }
    }

    GroupingResult {
        program: Program::from_raw_parts(prog.name().to_string(), out)
            .with_local_words(prog.local_words()),
        stats,
    }
}

/// A set of node indices that yields its lowest member: a 64-ary tree of
/// bit words, leaf words first and one root word last, where a bit is set
/// iff the word below it is non-empty. Insert and pop touch one word per
/// level (three levels cover a 262,144-instruction block), and the words
/// are reused from block to block.
#[derive(Default)]
struct MinSet {
    levels: Vec<Vec<u64>>,
    /// Levels in use for the current block.
    depth: usize,
}

impl MinSet {
    /// Empties the set and sizes it for indices below `n`.
    fn reset(&mut self, n: usize) {
        let mut words = n.div_ceil(64).max(1);
        self.depth = 0;
        loop {
            if self.levels.len() == self.depth {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[self.depth];
            level.clear();
            level.resize(words, 0);
            self.depth += 1;
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
    }

    fn insert(&mut self, i: u32) {
        let mut i = i as usize;
        for level in &mut self.levels[..self.depth] {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                break; // the levels above already mark this word
            }
            i /= 64;
        }
    }

    /// Removes and returns the lowest member.
    fn pop_min(&mut self) -> Option<u32> {
        let levels = &mut self.levels[..self.depth];
        if levels[levels.len() - 1][0] == 0 {
            return None;
        }
        let mut i = 0;
        for level in levels.iter().rev() {
            i = i * 64 + level[i].trailing_zeros() as usize;
        }
        let mut j = i;
        for level in levels.iter_mut() {
            let word = &mut level[j / 64];
            *word &= !(1 << (j % 64));
            if *word != 0 {
                break;
            }
            j /= 64;
        }
        Some(i as u32)
    }
}

/// The ready sets of one block's list schedule. A node is *ready* once
/// every predecessor has been emitted and every value it needs has
/// completed. Ready nodes wait in two [`MinSet`]s of their indices in the
/// block, so a pop yields the lowest-index ready candidate; each node
/// enters a set exactly once, when its last unsatisfied edge is released.
#[derive(Default)]
struct Ready {
    unemitted_preds: Vec<usize>,
    uncompleted_needs: Vec<usize>,
    reads: MinSet,
    others: MinSet,
}

impl Ready {
    /// Starts the schedule of `body` from its DAG's edge counts.
    fn reset(&mut self, body: &[Inst], dag: &Dag) {
        self.reads.reset(body.len());
        self.others.reset(body.len());
        self.unemitted_preds.clear();
        self.unemitted_preds.extend_from_slice(&dag.preds);
        self.uncompleted_needs.clear();
        self.uncompleted_needs.extend_from_slice(&dag.completion_preds);
        // Every completion edge is also counted in `preds`, so a node with
        // no predecessors needs nothing either.
        for i in 0..body.len() {
            if self.unemitted_preds[i] == 0 {
                self.enqueue(body, i as u32);
            }
        }
    }

    fn enqueue(&mut self, body: &[Inst], i: u32) {
        if is_blocking_read(&body[i as usize]) {
            self.reads.insert(i);
        } else {
            self.others.insert(i);
        }
    }

    /// Releases one incoming edge of `to`: its source was emitted
    /// (`issued`) and/or the source's value completed (`completed`).
    fn release(&mut self, body: &[Inst], to: u32, issued: bool, completed: bool) {
        let t = to as usize;
        if issued {
            self.unemitted_preds[t] -= 1;
        }
        if completed {
            self.uncompleted_needs[t] -= 1;
        }
        if self.unemitted_preds[t] == 0 && self.uncompleted_needs[t] == 0 {
            self.enqueue(body, to);
        }
    }
}

/// The list scheduler. One is reused for every block of a program, so
/// the DAG, the ready sets and the open group allocate only when a block
/// outgrows every earlier one.
#[derive(Default)]
struct Scheduler {
    dag: Dag,
    ready: Ready,
    /// Blocking reads issued into the open group.
    pending: Vec<u32>,
}

impl Scheduler {
    fn schedule_block(&mut self, insts: &[Inst], out: &mut Vec<Inst>, stats: &mut GroupStats) {
        let (body, terminator) = match insts.last() {
            Some(t) if t.is_control() => (&insts[..insts.len() - 1], Some(*t)),
            _ => (insts, None),
        };

        let mut blocking_reads = false;
        for inst in body {
            assert!(
                !matches!(inst, Inst::Switch),
                "grouping pass expects a switch-free input program"
            );
            blocking_reads |= is_blocking_read(inst);
        }
        if !blocking_reads {
            // Nothing to group: keep the block untouched (zero penalty).
            out.extend_from_slice(insts);
            return;
        }

        let n = body.len();
        self.dag.build(body);
        self.ready.reset(body, &self.dag);
        let mut emitted_count = 0usize;

        while emitted_count < n {
            if let Some(i) = self.ready.reads.pop_min() {
                // 1. Issue every ready blocking read first (opens / extends
                //    the group); completion deps stay blocked until the
                //    Switch.
                out.push(body[i as usize]);
                self.pending.push(i);
                for e in self.dag.succs(i as usize) {
                    self.ready.release(body, e.to, true, false);
                }
            } else if let Some(i) = self.ready.others.pop_min() {
                // 2. Emit the lowest-index ready non-read instruction.
                out.push(body[i as usize]);
                for e in self.dag.succs(i as usize) {
                    self.ready.release(body, e.to, true, e.needs_completion);
                }
            } else {
                // 3. Stuck on pending values: close the group with a Switch.
                assert!(!self.pending.is_empty(), "dependency cycle in basic block");
                self.close_group(body, out, stats);
                continue;
            }
            emitted_count += 1;
        }

        // Loads still in flight at block end: close the group before leaving
        // the block (intra-block analysis cannot see uses in successor
        // blocks).
        if !self.pending.is_empty() {
            self.close_group(body, out, stats);
        }

        if let Some(t) = terminator {
            out.push(t);
        }
    }

    fn close_group(&mut self, body: &[Inst], out: &mut Vec<Inst>, stats: &mut GroupStats) {
        out.push(Inst::Switch);
        stats.switches_inserted += 1;
        stats.grouped_loads += self.pending.len();
        *stats.group_sizes.entry(self.pending.len()).or_insert(0) += 1;
        for p in self.pending.drain(..) {
            for e in self.dag.succs(p as usize) {
                if e.needs_completion {
                    self.ready.release(body, e.to, false, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_asm::ProgramBuilder;

    #[test]
    fn min_set_pops_in_index_order_at_every_depth() {
        let mut set = MinSet::default();
        // One, two and three levels of words, reusing the same set.
        for n in [5usize, 64, 65, 4096, 4097, 300_000] {
            set.reset(n);
            assert_eq!(set.pop_min(), None);
            // A scattered insertion order, with pops interleaved.
            let mut want = std::collections::BTreeSet::new();
            let members = (0..n as u32).rev().filter(|i| i % 7 == 3 || i % 64 == 63);
            for (k, i) in members.enumerate() {
                set.insert(i);
                want.insert(i);
                if k % 5 == 0 {
                    assert_eq!(set.pop_min(), want.pop_first(), "n = {n}");
                }
            }
            while let Some(i) = want.pop_first() {
                assert_eq!(set.pop_min(), Some(i), "n = {n}");
            }
            assert_eq!(set.pop_min(), None);
        }
    }

    /// Builds the paper's Figure 4 sor inner-loop flavor: 5 shared loads
    /// combined into one result.
    fn sor_like() -> Program {
        let mut b = ProgramBuilder::new("sor-inner");
        let base = 100i64;
        let n = b.load_shared_f(b.const_i(base));
        let s = b.load_shared_f(b.const_i(base + 1));
        let e = b.load_shared_f(b.const_i(base + 2));
        let w = b.load_shared_f(b.const_i(base + 3));
        let c = b.load_shared_f(b.const_i(base + 4));
        let avg = b.def_f("avg", (n + s + e + w + c) * 0.2);
        b.store_shared_f(b.const_i(base + 10), avg.get());
        b.finish()
    }

    #[test]
    fn figure4_five_loads_one_switch() {
        let p = sor_like();
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.switches_inserted, 1, "{}", g.program.listing());
        assert_eq!(g.stats.grouped_loads, 5);
        assert_eq!(g.stats.max_group(), 5);
        assert!((g.stats.grouping_factor() - 5.0).abs() < 1e-12);

        // The five loads are contiguous, and the single switch separates
        // them from the first use of a loaded value (independent work such
        // as loading the 0.2 constant may legally sit between group and
        // switch — it only widens the overlap window).
        let insts = g.program.insts();
        let first_load = insts.iter().position(|i| i.is_shared_read()).unwrap();
        for k in 0..5 {
            assert!(insts[first_load + k].is_shared_read(), "{}", g.program.listing());
        }
        let sw = insts.iter().position(|i| matches!(i, Inst::Switch)).unwrap();
        let first_use = insts
            .iter()
            .position(|i| matches!(i, Inst::Fpu { op: mtsim_isa::FpuOp::Add, .. }))
            .unwrap();
        assert!(first_load + 4 < sw && sw < first_use, "{}", g.program.listing());
    }

    #[test]
    fn dependent_loads_split_groups() {
        // b = *(a); c = *(b)  -- pointer chase cannot be grouped.
        let mut b = ProgramBuilder::new("chase");
        let pa = b.load_shared(b.const_i(10));
        let va = b.def_i("va", pa);
        let pb = b.load_shared(va.get());
        let vb = b.def_i("vb", pb);
        b.store_shared(b.const_i(20), vb.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.switches_inserted, 2, "{}", g.program.listing());
        assert_eq!(g.stats.max_group(), 1);
    }

    #[test]
    fn loads_do_not_cross_shared_stores() {
        let mut b = ProgramBuilder::new("st-barrier");
        let x = b.def_i("x", b.load_shared(b.const_i(0)));
        b.store_shared(b.const_i(1), x.get());
        let y = b.def_i("y", b.load_shared(b.const_i(2)));
        b.store_shared(b.const_i(3), y.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        // The second load must stay after the first store.
        let insts = g.program.insts();
        let store1 = insts.iter().position(|i| i.is_shared_write()).unwrap();
        let load2 = insts.iter().enumerate().filter(|(_, i)| i.is_shared_read()).nth(1).unwrap().0;
        assert!(load2 > store1, "{}", g.program.listing());
        assert_eq!(g.stats.switches_inserted, 2);
    }

    #[test]
    fn branch_targets_remain_valid() {
        let mut b = ProgramBuilder::new("looped");
        let acc = b.def_f("acc", 0.0);
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared_f(i.get() + 100);
            let w = b.load_shared_f(i.get() + 200);
            b.assign_f(acc, acc.get() + v + w);
        });
        b.store_shared_f(b.const_i(300), acc.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        // All targets point at valid pcs and at block leaders.
        let blocks = basic_blocks(&g.program);
        for inst in g.program.insts() {
            if let Some(Target::Pc(t)) = inst.target() {
                assert!(blocks.iter().any(|r| r.start == t as usize));
            }
        }
        // Two loads per iteration grouped under a single switch.
        assert_eq!(g.stats.max_group(), 2, "{}", g.program.listing());
    }

    #[test]
    fn blocks_without_loads_are_untouched() {
        let mut b = ProgramBuilder::new("pure");
        let x = b.def_i("x", 3);
        let y = b.def_i("y", x.get() * 7);
        b.store_local(b.const_i(0), y.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        assert_eq!(g.program.insts(), p.insts());
        assert_eq!(g.stats.switches_inserted, 0);
    }

    #[test]
    fn discarded_fetch_add_needs_no_switch() {
        let mut b = ProgramBuilder::new("faa");
        b.fetch_add_discard(b.const_i(5), b.const_i(1), mtsim_isa::AccessHint::Data);
        let p = b.finish();
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.switches_inserted, 0, "{}", g.program.listing());
    }

    #[test]
    fn semantics_preserving_register_order() {
        // x = load a; x = x + 1; y = load b; store(y + x)
        let mut b = ProgramBuilder::new("order");
        let x = b.def_i("x", b.load_shared(b.const_i(0)));
        b.assign(x, x.get() + 1);
        let y = b.def_i("y", b.load_shared(b.const_i(1)));
        b.store_shared(b.const_i(2), y.get() + x.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        // Both loads are independent (different dests) so they group.
        assert_eq!(g.stats.max_group(), 2, "{}", g.program.listing());
        // The increment of x must come after the switch.
        let insts = g.program.insts();
        let sw = insts.iter().position(|i| matches!(i, Inst::Switch)).unwrap();
        let inc = insts.iter().position(|i| matches!(i, Inst::AluI { imm: 1, .. })).unwrap();
        assert!(inc > sw);
    }

    #[test]
    fn local_ops_may_move_across_shared_loads() {
        let mut b = ProgramBuilder::new("mix");
        let l = b.def_i("l", b.load_local(b.const_i(0)));
        let s = b.def_i("s", b.load_shared(b.const_i(1)));
        let t = b.def_i("t", b.load_shared(b.const_i(2)));
        b.store_local(b.const_i(3), l.get() + 1);
        b.store_shared(b.const_i(4), s.get() + t.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.max_group(), 2, "{}", g.program.listing());
    }

    #[test]
    #[should_panic(expected = "switch-free")]
    fn rejects_already_switched_input() {
        let mut b = ProgramBuilder::new("sw");
        b.explicit_switch();
        let p = b.finish();
        let _ = group_shared_loads(&p);
    }

    #[test]
    fn grouped_program_size_grows_only_by_switches() {
        let p = sor_like();
        let g = group_shared_loads(&p);
        assert_eq!(g.program.len(), p.len() + g.stats.switches_inserted);
    }

    #[test]
    fn loadpair_groups_with_loads() {
        let mut b = ProgramBuilder::new("pair");
        let (x, y) = b.load_pair_shared_f("pos", b.const_i(10));
        let z = b.load_shared_f(b.const_i(20));
        let s = b.def_f("s", x.get() + y.get() + z);
        b.store_shared_f(b.const_i(30), s.get());
        let p = b.finish();
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.switches_inserted, 1, "{}", g.program.listing());
        assert_eq!(g.stats.grouped_loads, 2); // LoadPair + FLoad
    }

    /// `GroupStats` mean/histogram behavior on an (effectively) empty
    /// program — a bare `Halt`.
    #[test]
    fn group_stats_empty_program_edge_cases() {
        let p = Program::from_raw_parts("empty", vec![Inst::Halt]);
        let g = group_shared_loads(&p);
        assert_eq!(g.stats.switches_inserted, 0);
        assert_eq!(g.stats.grouped_loads, 0);
        assert!(g.stats.group_sizes.is_empty());
        assert_eq!(g.stats.grouping_factor(), 0.0);
        assert_eq!(g.stats.max_group(), 0);
        assert_eq!(g.stats.blocks, 1);
        assert_eq!(GroupStats::default().grouping_factor(), 0.0);
    }

    /// And on a branch-only program: several blocks, still no groups.
    #[test]
    fn group_stats_branch_only_edge_cases() {
        use mtsim_isa::{BCond, Reg};
        let insts = vec![
            Inst::Branch { cond: BCond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: Target::Pc(2) },
            Inst::Jump { target: Target::Pc(3) },
            Inst::Nop,
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("branches", insts);
        let g = group_shared_loads(&p);
        assert!(g.stats.blocks >= 3, "{}", p.listing());
        assert_eq!(g.stats.switches_inserted, 0);
        assert!(g.stats.group_sizes.is_empty());
        assert_eq!(g.stats.grouping_factor(), 0.0);
        assert_eq!(g.stats.max_group(), 0);
        // The program itself is untouched.
        assert_eq!(g.program.listing(), p.listing());
    }
}
