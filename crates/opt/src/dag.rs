//! Intra-block dependency DAG construction.
//!
//! Two edge flavors:
//!
//! * **order** edges — the successor may be emitted any time after the
//!   predecessor has been *issued* (memory-ordering edges, WAR on ordinary
//!   registers, …);
//! * **completion** edges — the successor additionally requires the
//!   predecessor's *value*: it reads or overwrites the destination of a
//!   blocking shared read, so a `Switch` must intervene if the predecessor
//!   is still pending.

use mtsim_isa::{Inst, Space};

/// A dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// Successor node (index within the block).
    pub to: u32,
    /// True if the successor needs the predecessor's completed value.
    pub needs_completion: bool,
}

/// Dependency DAG for one basic block (terminator excluded by the caller).
///
/// The edges are stored flat: node `i`'s successors are
/// `edges[offsets[i]..offsets[i + 1]]`. One `Dag` is rebuilt for every
/// block of a program, so its vectors, and the scratch the build uses,
/// allocate only when a block outgrows every earlier one.
#[derive(Debug, Default)]
pub(crate) struct Dag {
    /// Start of each node's successor edges in `edges`, plus the end.
    offsets: Vec<u32>,
    /// Every edge, grouped by source node.
    edges: Vec<Edge>,
    /// Number of incoming edges per node.
    pub preds: Vec<usize>,
    /// Number of incoming completion edges per node.
    pub completion_preds: Vec<usize>,
    /// Build scratch: edges as `(from, edge)` in discovery order.
    found: Vec<(u32, Edge)>,
    /// Build scratch: per register (`Inst::use_mask` bit), the nodes
    /// that read it since its last definition.
    readers_since_def: Vec<Vec<u32>>,
    /// Build scratch: shared accesses since the last shared store.
    shared_since_store: Vec<u32>,
    /// Build scratch: local accesses since the last local store.
    local_since_store: Vec<u32>,
}

/// How an instruction takes part in memory ordering. Under the paper's
/// pessimistic aliasing (footnote 1) every store conflicts with every
/// access in its space, while loads commute with loads. A fetch-and-add
/// orders like a shared store, so no shared load ever moves across one.
#[derive(Clone, Copy)]
enum Access {
    None,
    Load(Space),
    Store(Space),
}

impl Access {
    fn of(inst: &Inst) -> Access {
        match *inst {
            Inst::Load { space, .. } | Inst::FLoad { space, .. } | Inst::LoadPair { space, .. } => {
                Access::Load(space)
            }
            Inst::Store { space, .. }
            | Inst::FStore { space, .. }
            | Inst::StorePair { space, .. } => Access::Store(space),
            Inst::FetchAdd { .. } => Access::Store(Space::Shared),
            _ => Access::None,
        }
    }
}

/// True for instructions that block awaiting a reply: shared loads and
/// fetch-and-adds whose result register is used (a discarded fetch-and-add,
/// `rd = r0`, is fire-and-forget like a store).
pub(crate) fn is_blocking_read(inst: &Inst) -> bool {
    match inst {
        Inst::FetchAdd { rd, .. } => !rd.is_zero(),
        _ => inst.is_shared_read(),
    }
}

impl Dag {
    /// The successor edges of node `i`.
    pub(crate) fn succs(&self, i: usize) -> &[Edge] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Rebuilds the DAG for `insts` (one basic block, no terminator).
    pub(crate) fn build(&mut self, insts: &[Inst]) {
        let n = insts.len();
        self.preds.clear();
        self.preds.resize(n, 0);
        self.completion_preds.clear();
        self.completion_preds.resize(n, 0);
        self.found.clear();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);

        // Register bookkeeping, indexed by `Inst::use_mask` bit: 0..32 int,
        // 32..64 fp.
        const NREGS: usize = 64;
        // The last definition of each register, and whether it was a
        // blocking read (its value arrives only after a Switch).
        let mut last_def: [Option<(u32, bool)>; NREGS] = [None; NREGS];
        self.readers_since_def.resize_with(NREGS, Vec::new);
        let readers_since_def = &mut self.readers_since_def;
        for readers in readers_since_def.iter_mut() {
            readers.clear();
        }

        // Memory bookkeeping (pessimistic aliasing within each space).
        let mut last_shared_store: Option<u32> = None;
        let shared_accesses_since_store = &mut self.shared_since_store;
        shared_accesses_since_store.clear();
        let mut last_local_store: Option<u32> = None;
        let local_accesses_since_store = &mut self.local_since_store;
        local_accesses_since_store.clear();

        let (found, outdegree_after, preds, completion_preds) =
            (&mut self.found, &mut self.offsets, &mut self.preds, &mut self.completion_preds);
        let mut add_edge = |from: u32, to: u32, needs: bool| {
            debug_assert!(from < to, "edge must go forward: {from} -> {to}");
            found.push((from, Edge { to, needs_completion: needs }));
            outdegree_after[from as usize + 1] += 1;
            preds[to as usize] += 1;
            if needs {
                completion_preds[to as usize] += 1;
            }
        };

        for (i, inst) in insts.iter().enumerate() {
            let i = i as u32;
            // RAW: reading a value. Needs completion if producer is a
            // blocking read.
            let mut uses = inst.use_mask();
            while uses != 0 {
                let u = uses.trailing_zeros() as usize;
                uses &= uses - 1;
                if let Some((d, blocking)) = last_def[u] {
                    add_edge(d, i, blocking);
                }
                readers_since_def[u].push(i);
            }
            // WAR / WAW on destinations.
            let mut defs = inst.def_mask();
            let blocking = defs != 0 && is_blocking_read(inst);
            while defs != 0 {
                let d = defs.trailing_zeros() as usize;
                defs &= defs - 1;
                for &r in &readers_since_def[d] {
                    if r != i {
                        // Overwriting after a read: plain ordering.
                        add_edge(r, i, false);
                    }
                }
                if let Some((prev, prev_blocking)) = last_def[d] {
                    // Overwriting a pending load's destination would race
                    // the in-flight reply: needs completion.
                    add_edge(prev, i, prev_blocking);
                }
                last_def[d] = Some((i, blocking));
                readers_since_def[d].clear();
            }

            // Memory ordering within each space: a store follows every
            // access since the previous store (which heads that list, so
            // it is ordered here too); a load follows the previous store.
            let (space, is_store) = match Access::of(inst) {
                Access::None => continue,
                Access::Load(space) => (space, false),
                Access::Store(space) => (space, true),
            };
            let (last_store, since_store) = match space {
                Space::Shared => (&mut last_shared_store, &mut *shared_accesses_since_store),
                Space::Local => (&mut last_local_store, &mut *local_accesses_since_store),
            };
            if is_store {
                for &a in since_store.iter() {
                    add_edge(a, i, false);
                }
                *last_store = Some(i);
                since_store.clear();
            } else if let Some(s) = *last_store {
                add_edge(s, i, false);
            }
            since_store.push(i);
        }

        // Group the edges by source, keeping discovery order within each
        // source: each source's edge count sits in the slot after it, so a
        // prefix sum gives the starts; scatter with each start as the
        // source's write cursor. The cursors end at the next source's
        // start, so one shift puts the starts back.
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.edges.clear();
        self.edges.resize(self.found.len(), Edge { to: 0, needs_completion: false });
        for &(from, e) in &self.found {
            let cursor = &mut self.offsets[from as usize];
            self.edges[*cursor as usize] = e;
            *cursor += 1;
        }
        if n > 0 {
            self.offsets.copy_within(0..n, 1);
            self.offsets[0] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AccessHint, AluOp, FReg, Reg, Space};

    fn built(insts: &[Inst]) -> Dag {
        let mut dag = Dag::default();
        dag.build(insts);
        dag
    }

    fn sload(rd: u8, base: u8) -> Inst {
        Inst::Load {
            space: Space::Shared,
            rd: Reg::new(rd),
            base: Reg::new(base),
            offset: 0,
            hint: AccessHint::Data,
        }
    }

    #[test]
    fn raw_from_load_needs_completion() {
        let insts = vec![
            sload(8, 9),
            Inst::AluI { op: AluOp::Add, rd: Reg::new(10), rs: Reg::new(8), imm: 1 },
        ];
        let dag = built(&insts);
        assert_eq!(dag.succs(0), vec![Edge { to: 1, needs_completion: true }]);
        assert_eq!(dag.completion_preds[1], 1);
    }

    #[test]
    fn same_register_operands_after_load_need_completion() {
        // r10 = r8 * r8 reads the pending load's destination twice: one
        // edge, and it still waits for the value.
        let insts = vec![
            sload(8, 9),
            Inst::Alu { op: AluOp::Mul, rd: Reg::new(10), rs: Reg::new(8), rt: Reg::new(8) },
        ];
        let dag = built(&insts);
        assert_eq!(dag.succs(0), vec![Edge { to: 1, needs_completion: true }]);
        assert_eq!(dag.preds[1], 1);
        assert_eq!(dag.completion_preds[1], 1);
    }

    #[test]
    fn independent_loads_have_no_edges() {
        let insts = vec![sload(8, 9), sload(10, 9)];
        let dag = built(&insts);
        assert!(dag.succs(0).is_empty());
        assert_eq!(dag.preds[1], 0);
    }

    #[test]
    fn shared_store_orders_after_prior_loads() {
        let insts = vec![
            sload(8, 9),
            Inst::Store {
                space: Space::Shared,
                rs: Reg::new(11),
                base: Reg::new(9),
                offset: 1,
                hint: AccessHint::Data,
            },
            sload(12, 9),
        ];
        let dag = built(&insts);
        // load0 -> store (alias pessimism), store -> load2
        assert!(dag.succs(0).iter().any(|e| e.to == 1 && !e.needs_completion));
        assert!(dag.succs(1).iter().any(|e| e.to == 2));
    }

    #[test]
    fn discarded_fetch_add_is_not_blocking() {
        let faa = Inst::FetchAdd {
            rd: Reg::ZERO,
            rs: Reg::new(8),
            base: Reg::new(9),
            offset: 0,
            hint: AccessHint::Data,
        };
        assert!(!is_blocking_read(&faa));
        let faa2 = Inst::FetchAdd {
            rd: Reg::new(10),
            rs: Reg::new(8),
            base: Reg::new(9),
            offset: 0,
            hint: AccessHint::Data,
        };
        assert!(is_blocking_read(&faa2));
    }

    #[test]
    fn waw_on_pending_load_dest_needs_completion() {
        let insts = vec![
            sload(8, 9),
            Inst::AluI { op: AluOp::Add, rd: Reg::new(8), rs: Reg::ZERO, imm: 0 },
        ];
        let dag = built(&insts);
        assert!(dag.succs(0).iter().any(|e| e.to == 1 && e.needs_completion));
    }

    #[test]
    fn local_ops_do_not_order_against_shared() {
        let insts = vec![
            Inst::Store {
                space: Space::Local,
                rs: Reg::new(8),
                base: Reg::new(9),
                offset: 0,
                hint: AccessHint::Data,
            },
            sload(10, 11),
        ];
        let dag = built(&insts);
        assert!(dag.succs(0).is_empty());
    }

    #[test]
    fn load_pair_fp_raw_needs_completion() {
        let insts = vec![
            Inst::LoadPair {
                space: Space::Shared,
                fd1: FReg::new(0),
                fd2: FReg::new(1),
                base: Reg::new(9),
                offset: 0,
            },
            Inst::Fpu {
                op: mtsim_isa::FpuOp::Add,
                fd: FReg::new(2),
                fs: FReg::new(0),
                ft: FReg::new(1),
            },
        ];
        let dag = built(&insts);
        assert_eq!(dag.completion_preds[1], 2);
    }

    #[test]
    fn a_reused_dag_matches_a_fresh_one() {
        // A long block leaves edges, counts and reader lists behind; the
        // next, shorter block must see none of them.
        let long: Vec<Inst> = (0..40)
            .map(|k| match k % 3 {
                0 => sload(8 + (k % 5) as u8, 9),
                1 => Inst::AluI { op: AluOp::Add, rd: Reg::new(9), rs: Reg::new(8), imm: k },
                _ => Inst::Store {
                    space: Space::Shared,
                    rs: Reg::new(10),
                    base: Reg::new(9),
                    offset: k,
                    hint: AccessHint::Data,
                },
            })
            .collect();
        let short = vec![
            sload(8, 9),
            Inst::AluI { op: AluOp::Add, rd: Reg::new(10), rs: Reg::new(8), imm: 1 },
            sload(11, 10),
        ];
        let mut reused = Dag::default();
        for block in [&long, &short, &long] {
            reused.build(block);
            let fresh = built(block);
            for i in 0..block.len() {
                assert_eq!(reused.succs(i), fresh.succs(i), "node {i}");
            }
            assert_eq!(reused.preds, fresh.preds);
            assert_eq!(reused.completion_preds, fresh.completion_preds);
        }
    }
}
