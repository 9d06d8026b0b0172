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

use mtsim_isa::Inst;

/// A dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// Successor node (index within the block).
    pub to: usize,
    /// True if the successor needs the predecessor's completed value.
    pub needs_completion: bool,
}

/// Dependency DAG for one basic block (terminator excluded by the caller).
#[derive(Debug, Default)]
pub(crate) struct Dag {
    /// Outgoing edges per node.
    pub succs: Vec<Vec<Edge>>,
    /// Number of incoming edges per node.
    pub preds: Vec<usize>,
    /// Number of incoming completion edges per node.
    pub completion_preds: Vec<usize>,
}

/// True for memory operations that behave like stores to shared memory
/// under the paper's pessimistic aliasing (footnote 1): stores and
/// fetch-and-adds. No shared load is ever moved across one of these.
fn is_shared_storelike(inst: &Inst) -> bool {
    inst.is_shared_write() || matches!(inst, Inst::FetchAdd { .. })
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

fn is_local_load(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Load { space: mtsim_isa::Space::Local, .. }
            | Inst::FLoad { space: mtsim_isa::Space::Local, .. }
            | Inst::LoadPair { space: mtsim_isa::Space::Local, .. }
    )
}

fn is_local_store(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Store { space: mtsim_isa::Space::Local, .. }
            | Inst::FStore { space: mtsim_isa::Space::Local, .. }
            | Inst::StorePair { space: mtsim_isa::Space::Local, .. }
    )
}

impl Dag {
    /// Builds the DAG for `insts` (one basic block, no terminator).
    pub(crate) fn build(insts: &[Inst]) -> Dag {
        let n = insts.len();
        let mut dag =
            Dag { succs: vec![Vec::new(); n], preds: vec![0; n], completion_preds: vec![0; n] };

        // Register bookkeeping, indexed by `Inst::use_mask` bit: 0..32 int,
        // 32..64 fp.
        const NREGS: usize = 64;
        let mut last_def: [Option<usize>; NREGS] = [None; NREGS];
        let mut readers_since_def: Vec<Vec<usize>> = vec![Vec::new(); NREGS];

        // Memory bookkeeping (pessimistic aliasing within each space).
        let mut last_shared_store: Option<usize> = None;
        let mut shared_accesses_since_store: Vec<usize> = Vec::new();
        let mut last_local_store: Option<usize> = None;
        let mut local_accesses_since_store: Vec<usize> = Vec::new();

        let add_edge = |dag: &mut Dag, from: usize, to: usize, needs: bool| {
            debug_assert!(from < to, "edge must go forward: {from} -> {to}");
            dag.succs[from].push(Edge { to, needs_completion: needs });
            dag.preds[to] += 1;
            if needs {
                dag.completion_preds[to] += 1;
            }
        };

        for (i, inst) in insts.iter().enumerate() {
            // RAW: reading a value. Needs completion if producer is a
            // blocking read (the value arrives only after a Switch).
            let mut uses = inst.use_mask();
            while uses != 0 {
                let u = uses.trailing_zeros() as usize;
                uses &= uses - 1;
                if let Some(d) = last_def[u] {
                    add_edge(&mut dag, d, i, is_blocking_read(&insts[d]));
                }
                readers_since_def[u].push(i);
            }
            // WAR / WAW on destinations.
            let mut defs = inst.def_mask();
            while defs != 0 {
                let d = defs.trailing_zeros() as usize;
                defs &= defs - 1;
                for &r in &readers_since_def[d] {
                    if r != i {
                        // Overwriting after a read: plain ordering.
                        add_edge(&mut dag, r, i, false);
                    }
                }
                if let Some(prev) = last_def[d] {
                    // Overwriting a pending load's destination would race
                    // the in-flight reply: needs completion.
                    add_edge(&mut dag, prev, i, is_blocking_read(&insts[prev]));
                }
                last_def[d] = Some(i);
                readers_since_def[d].clear();
            }

            // Shared-memory ordering: stores (and fetch-and-adds) conflict
            // with every shared access; loads commute with loads.
            if inst.is_shared_access() {
                if is_shared_storelike(inst) {
                    // The previous store heads this list, so it is ordered
                    // here too.
                    for &a in &shared_accesses_since_store {
                        add_edge(&mut dag, a, i, false);
                    }
                    last_shared_store = Some(i);
                    shared_accesses_since_store.clear();
                } else if let Some(s) = last_shared_store {
                    add_edge(&mut dag, s, i, false);
                }
                shared_accesses_since_store.push(i);
            }

            // Local-memory ordering with the same pessimism.
            if is_local_load(inst) || is_local_store(inst) {
                if is_local_store(inst) {
                    for &a in &local_accesses_since_store {
                        add_edge(&mut dag, a, i, false);
                    }
                    last_local_store = Some(i);
                    local_accesses_since_store.clear();
                } else if let Some(s) = last_local_store {
                    add_edge(&mut dag, s, i, false);
                }
                local_accesses_since_store.push(i);
            }
        }
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AccessHint, AluOp, FReg, Reg, Space};

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
        let dag = Dag::build(&insts);
        assert_eq!(dag.succs[0], vec![Edge { to: 1, needs_completion: true }]);
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
        let dag = Dag::build(&insts);
        assert_eq!(dag.succs[0], vec![Edge { to: 1, needs_completion: true }]);
        assert_eq!(dag.preds[1], 1);
        assert_eq!(dag.completion_preds[1], 1);
    }

    #[test]
    fn independent_loads_have_no_edges() {
        let insts = vec![sload(8, 9), sload(10, 9)];
        let dag = Dag::build(&insts);
        assert!(dag.succs[0].is_empty());
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
        let dag = Dag::build(&insts);
        // load0 -> store (alias pessimism), store -> load2
        assert!(dag.succs[0].iter().any(|e| e.to == 1 && !e.needs_completion));
        assert!(dag.succs[1].iter().any(|e| e.to == 2));
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
        let dag = Dag::build(&insts);
        assert!(dag.succs[0].iter().any(|e| e.to == 1 && e.needs_completion));
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
        let dag = Dag::build(&insts);
        assert!(dag.succs[0].is_empty());
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
        let dag = Dag::build(&insts);
        assert_eq!(dag.completion_preds[1], 2);
    }
}
