//! Pre-decoded programs: the dense, cache-friendly instruction form the
//! engine executes (DESIGN.md §20).
//!
//! The builder-facing [`Inst`](mtsim_isa::Inst) enum is the right shape
//! for assembling and validating programs, but the engine's hot loop
//! needs per-instruction facts that `Inst` only yields through matches.
//! [`DecodedProgram::decode`] resolves all of that **once per program**
//! — at artifact-build time in `mtsim-sweep`'s cache — into a flat
//! [`DInst`] table:
//!
//! * the occupancy cost (`cost::cycles`) as a plain field,
//! * def/use sets as 32-bit register masks (one bit per register, `r0`
//!   excluded by construction),
//! * the scheduling-relevant classification (shared access? resets the
//!   spin-periodicity proof?) as flags,
//!
//! while keeping the original `Inst` payload inline for the semantic
//! dispatch. Decoding is pure derivation in one pass: a single match per
//! instruction yields every field, each equal to the `mtsim-isa` query
//! it stands for (`cost::cycles`, `use_mask`, `def_mask`, `int_def`,
//! `is_shared_access`) — a property the unit tests below pin across
//! every instruction shape, so the decoded form cannot drift from the
//! ISA.
//!
//! The table is stored behind an `Arc`, so cloning a [`DecodedProgram`]
//! (per machine build, per sweep job) is a reference-count bump.

use std::sync::Arc;

use mtsim_asm::Program;
use mtsim_isa::{cost, FReg, Inst, Reg, Space};

/// `flags` bit: the instruction touches shared memory (enters the
/// network / can trigger a context switch), i.e. `Inst::is_shared_access`.
pub const F_SHARED_ACCESS: u8 = 1 << 0;
/// `flags` bit: the instruction mutates state outside the spin snapshot's
/// domain (stores, fetch-and-add, priority changes) and therefore resets
/// the deadlock detector's periodicity evidence.
pub const F_RESETS_SPIN: u8 = 1 << 1;
/// `flags` bit: the instruction is *local-only* — it reads and writes
/// nothing but the executing thread's registers, local memory, and
/// program counter, always completes in its occupancy cost, and can
/// never switch, stall, or interact with another thread or processor.
/// The engine's fast path (DESIGN.md §20) executes unbroken runs of
/// these without touching the scheduler.
pub const F_LOCAL_EXEC: u8 = 1 << 2;
/// `flags` bit: [`F_LOCAL_EXEC`] *and* the instruction cannot redirect
/// the program counter (not a branch or jump) — control always falls
/// through to `pc + 1`. Maximal runs of these form the straight-line
/// blocks the fast path executes without per-instruction scheduler,
/// watchdog, or scoreboard checks (see [`DInst::run`]).
pub const F_STRAIGHT: u8 = 1 << 3;

/// One pre-decoded instruction: the original [`Inst`] payload plus every
/// per-step derived fact, flattened to scalar fields.
#[derive(Debug, Clone, Copy)]
pub struct DInst {
    /// The instruction itself (semantic dispatch still matches on this).
    pub inst: Inst,
    /// Occupancy cost in cycles (`mtsim_isa::cost::cycles`).
    pub cost: u32,
    /// Integer registers read: bit `i` set ⇔ `r{i}` is used (`r0` never).
    pub int_use_mask: u32,
    /// FP registers read, same encoding.
    pub fp_use_mask: u32,
    /// FP registers written, same encoding.
    pub fp_def_mask: u32,
    /// Integer register written (0 = none; `r0` is never a def).
    pub int_def: u8,
    /// [`F_SHARED_ACCESS`] | [`F_RESETS_SPIN`].
    pub flags: u8,
    /// Length of the maximal run of [straight-line](DInst::is_straight)
    /// instructions starting here (0 when this one is not straight). A
    /// property of the program, not of the instruction: filled in by
    /// [`DecodedProgram::decode`], 0 from [`DInst::decode`] alone. It
    /// sits in what would be padding, so the table stays 40 bytes an
    /// entry and the fast path reads it with the flags.
    pub run: u32,
}

impl DInst {
    /// Decodes one instruction with a single match over its shape. Each
    /// field equals the `mtsim-isa` query it stands for (`cost::cycles`,
    /// `use_mask`, `def_mask`, `int_def`, `is_shared_access`), which the
    /// drift tests below pin for every shape.
    pub fn decode(inst: Inst) -> DInst {
        // Register-mask bits: one per register, `r0` never (it is
        // hardwired zero, so neither a real use nor a real def).
        let ib = |r: Reg| if r.is_zero() { 0 } else { 1u32 << r.index() };
        let fb = |f: FReg| 1u32 << f.index();
        // The local-only set mirrors the `exec` arms that touch nothing
        // but `th` and return `Outcome::Continue` unconditionally:
        // register/FPU ops, local-space memory ops, and control flow.
        // Everything shared-space, switching, halting, or cross-thread
        // (SetPrio writes the scheduler's priority array) is excluded.
        const LOCAL: u8 = F_LOCAL_EXEC | F_STRAIGHT;
        // A memory op is local-only in local space and a shared access
        // in shared space.
        let mem = |space: Space| if space.is_shared() { F_SHARED_ACCESS } else { LOCAL };
        // Columns: cost, int uses, fp uses, fp defs, int def, flags.
        // Stores, fetch-and-add and priority changes reset the spin proof.
        let (cost, int_use_mask, fp_use_mask, fp_def_mask, int_def, flags) = match inst {
            Inst::Alu { op, rd, rs, rt } => {
                (cost::alu_cycles(op), ib(rs) | ib(rt), 0, 0, rd, LOCAL)
            }
            Inst::AluI { op, rd, rs, .. } => (cost::alu_cycles(op), ib(rs), 0, 0, rd, LOCAL),
            Inst::Fpu { op, fd, fs, ft } => {
                (cost::fpu_cycles(op), 0, fb(fs) | fb(ft), fb(fd), Reg::ZERO, LOCAL)
            }
            Inst::FpuCmp { rd, fs, ft, .. } => {
                (cost::FP_ADD_CYCLES, 0, fb(fs) | fb(ft), 0, rd, LOCAL)
            }
            Inst::FLi { fd, .. } => (1, 0, 0, fb(fd), Reg::ZERO, LOCAL),
            Inst::CvtIF { fd, rs } => (cost::FP_ADD_CYCLES, ib(rs), 0, fb(fd), Reg::ZERO, LOCAL),
            Inst::CvtFI { rd, fs } => (cost::FP_ADD_CYCLES, 0, fb(fs), 0, rd, LOCAL),
            Inst::MovIF { fd, rs } => (1, ib(rs), 0, fb(fd), Reg::ZERO, LOCAL),
            Inst::MovFI { rd, fs } => (1, 0, fb(fs), 0, rd, LOCAL),
            Inst::FSqrt { fd, fs } => (cost::FP_SQRT_CYCLES, 0, fb(fs), fb(fd), Reg::ZERO, LOCAL),
            Inst::Load { space, rd, base, .. } => (1, ib(base), 0, 0, rd, mem(space)),
            Inst::Store { space, rs, base, .. } => {
                (1, ib(rs) | ib(base), 0, 0, Reg::ZERO, mem(space) | F_RESETS_SPIN)
            }
            Inst::FLoad { space, fd, base, .. } => (1, ib(base), 0, fb(fd), Reg::ZERO, mem(space)),
            Inst::FStore { space, fs, base, .. } => {
                (1, ib(base), fb(fs), 0, Reg::ZERO, mem(space) | F_RESETS_SPIN)
            }
            Inst::LoadPair { space, fd1, fd2, base, .. } => {
                (1, ib(base), 0, fb(fd1) | fb(fd2), Reg::ZERO, mem(space))
            }
            Inst::StorePair { space, fs1, fs2, base, .. } => {
                (1, ib(base), fb(fs1) | fb(fs2), 0, Reg::ZERO, mem(space) | F_RESETS_SPIN)
            }
            Inst::FetchAdd { rd, rs, base, .. } => {
                (1, ib(rs) | ib(base), 0, 0, rd, F_SHARED_ACCESS | F_RESETS_SPIN)
            }
            // Control flow is local-only but redirects the pc.
            Inst::Branch { rs, rt, .. } => (1, ib(rs) | ib(rt), 0, 0, Reg::ZERO, F_LOCAL_EXEC),
            Inst::Jump { .. } => (1, 0, 0, 0, Reg::ZERO, F_LOCAL_EXEC),
            Inst::SetPrio { .. } => (1, 0, 0, 0, Reg::ZERO, F_RESETS_SPIN),
            Inst::Switch | Inst::Halt => (1, 0, 0, 0, Reg::ZERO, 0),
            Inst::Nop => (1, 0, 0, 0, Reg::ZERO, LOCAL),
        };
        DInst {
            inst,
            cost,
            int_use_mask,
            fp_use_mask,
            fp_def_mask,
            // `r0` encodes "no integer def".
            int_def: int_def.index() as u8,
            flags,
            run: 0,
        }
    }

    /// True if the instruction accesses shared memory.
    #[inline]
    pub fn is_shared_access(&self) -> bool {
        self.flags & F_SHARED_ACCESS != 0
    }

    /// True if the instruction resets the spin-periodicity proof.
    #[inline]
    pub fn resets_spin(&self) -> bool {
        self.flags & F_RESETS_SPIN != 0
    }

    /// True if the instruction is eligible for the local fast path
    /// ([`F_LOCAL_EXEC`]).
    #[inline]
    pub fn is_local_exec(&self) -> bool {
        self.flags & F_LOCAL_EXEC != 0
    }

    /// True when the instruction is local-only *and* falls through to
    /// `pc + 1` ([`F_STRAIGHT`]).
    #[inline]
    pub fn is_straight(&self) -> bool {
        self.flags & F_STRAIGHT != 0
    }
}

/// A program pre-decoded into the flat [`DInst`] table the engine
/// executes. Cheap to clone (the table is shared behind an `Arc`);
/// decoded once per built artifact and reused across every machine and
/// grid point that runs the program.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    insts: Arc<[DInst]>,
}

impl DecodedProgram {
    /// Decodes every instruction of `program`. O(len), allocation-light,
    /// and paid once — the engine never calls the per-instruction ISA
    /// queries again.
    pub fn decode(program: &Program) -> DecodedProgram {
        // Decoded straight into the shared table (one allocation, no
        // copy), which is still unshared when the runs are filled in.
        let mut insts: Arc<[DInst]> = program.insts().iter().map(|&i| DInst::decode(i)).collect();
        let table = Arc::get_mut(&mut insts).expect("a table nothing else holds yet");
        // Suffix scan: run lengths chain backward over straight-line
        // instructions and reset to zero at every block boundary.
        let mut run = 0u32;
        for di in table.iter_mut().rev() {
            run = if di.is_straight() { run + 1 } else { 0 };
            di.run = run;
        }
        DecodedProgram { insts }
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for an empty program (never valid to run, but the type
    /// supports it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The decoded instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; the engine bounds-checks the
    /// program counter before indexing (a wild pc is a simulated-program
    /// error, reported as `SimError::BadProgram`).
    #[inline]
    pub fn inst(&self, pc: usize) -> &DInst {
        &self.insts[pc]
    }

    /// The whole decoded table.
    #[inline]
    pub fn insts(&self) -> &[DInst] {
        &self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AccessHint, AluOp, FReg, FpuOp, Reg, Space, Target};

    /// One instruction of every shape (both spaces where applicable), so
    /// the drift test exercises every decode arm.
    fn all_shapes() -> Vec<Inst> {
        let r = Reg::new(8);
        let r2 = Reg::new(9);
        let r3 = Reg::new(10);
        let f = FReg::new(1);
        let f2 = FReg::new(2);
        let f3 = FReg::new(3);
        let mut v = Vec::new();
        for op in [AluOp::Add, AluOp::Mul, AluOp::Div, AluOp::Sll] {
            v.push(Inst::Alu { op, rd: r, rs: r2, rt: r3 });
            v.push(Inst::AluI { op, rd: r, rs: r2, imm: 7 });
        }
        for op in [FpuOp::Add, FpuOp::Mul, FpuOp::Div] {
            v.push(Inst::Fpu { op, fd: f, fs: f2, ft: f3 });
        }
        v.push(Inst::FpuCmp { op: mtsim_isa::CmpOp::Lt, rd: r, fs: f, ft: f2 });
        v.push(Inst::FLi { fd: f, val: 2.5 });
        v.push(Inst::CvtIF { fd: f, rs: r });
        v.push(Inst::CvtFI { rd: r, fs: f });
        v.push(Inst::MovIF { fd: f, rs: r });
        v.push(Inst::MovFI { rd: r, fs: f });
        v.push(Inst::FSqrt { fd: f, fs: f2 });
        for space in [Space::Local, Space::Shared] {
            v.push(Inst::Load { space, rd: r, base: r2, offset: 1, hint: AccessHint::Data });
            v.push(Inst::Load { space, rd: r, base: r2, offset: 1, hint: AccessHint::Spin });
            v.push(Inst::Store { space, rs: r, base: r2, offset: 1, hint: AccessHint::Data });
            v.push(Inst::FLoad { space, fd: f, base: r2, offset: 0 });
            v.push(Inst::FStore { space, fs: f, base: r2, offset: 0 });
            v.push(Inst::LoadPair { space, fd1: f, fd2: f2, base: r2, offset: 0 });
            v.push(Inst::StorePair { space, fs1: f, fs2: f2, base: r2, offset: 0 });
        }
        v.push(Inst::FetchAdd { rd: r, rs: r2, base: r3, offset: 0, hint: AccessHint::Data });
        v.push(Inst::FetchAdd {
            rd: Reg::ZERO,
            rs: r2,
            base: r3,
            offset: 0,
            hint: AccessHint::Release,
        });
        v.push(Inst::Branch { cond: mtsim_isa::BCond::Ne, rs: r, rt: r2, target: Target::Pc(3) });
        v.push(Inst::Jump { target: Target::Pc(0) });
        v.push(Inst::SetPrio { level: 1 });
        v.push(Inst::Switch);
        v.push(Inst::Halt);
        v.push(Inst::Nop);
        // Zero-register corners: r0 defs and uses must stay out of masks.
        v.push(Inst::Alu { op: AluOp::Add, rd: Reg::ZERO, rs: Reg::ZERO, rt: Reg::ZERO });
        v.push(Inst::Load {
            space: Space::Shared,
            rd: Reg::ZERO,
            base: Reg::ZERO,
            offset: 0,
            hint: AccessHint::Data,
        });
        v
    }

    /// The decoded fields must agree exactly with the ISA queries they
    /// replace, for every instruction shape.
    #[test]
    fn decode_never_drifts_from_isa_queries() {
        for inst in all_shapes() {
            let d = DInst::decode(inst);
            assert_eq!(d.cost, cost::cycles(&inst), "{inst:?}");
            let uses = u64::from(d.fp_use_mask) << 32 | u64::from(d.int_use_mask);
            assert_eq!(uses, inst.use_mask(), "{inst:?}");
            let int_def = if d.int_def == 0 { 0 } else { 1u64 << d.int_def };
            assert_eq!(u64::from(d.fp_def_mask) << 32 | int_def, inst.def_mask(), "{inst:?}");
            assert_eq!(d.int_def as usize, inst.int_def().map_or(0, |r| r.index()), "{inst:?}");
            assert_eq!(d.is_shared_access(), inst.is_shared_access(), "{inst:?}");
            assert_eq!(d.int_use_mask & 1, 0, "r0 in use mask: {inst:?}");
        }
    }

    #[test]
    fn spin_reset_classification() {
        let r = Reg::new(8);
        // Local stores reset the proof too (they mutate local memory,
        // which the snapshot deliberately excludes).
        let local_store =
            Inst::Store { space: Space::Local, rs: r, base: r, offset: 0, hint: AccessHint::Data };
        assert!(DInst::decode(local_store).resets_spin());
        assert!(DInst::decode(Inst::SetPrio { level: 0 }).resets_spin());
        assert!(!DInst::decode(Inst::Nop).resets_spin());
        assert!(!DInst::decode(Inst::Switch).resets_spin());
        let load =
            Inst::Load { space: Space::Shared, rd: r, base: r, offset: 0, hint: AccessHint::Spin };
        assert!(!DInst::decode(load).resets_spin());
    }

    #[test]
    fn local_exec_classification() {
        // Local-only ⇒ never a shared access, and every shared access,
        // switch point, or cross-thread effect is excluded.
        for inst in all_shapes() {
            let d = DInst::decode(inst);
            if d.is_local_exec() {
                assert!(!d.is_shared_access(), "{inst:?}");
                assert!(
                    !matches!(
                        inst,
                        Inst::Switch | Inst::Halt | Inst::SetPrio { .. } | Inst::FetchAdd { .. }
                    ),
                    "{inst:?}"
                );
            }
            if inst.is_shared_access() {
                assert!(!d.is_local_exec(), "{inst:?}");
            }
        }
        let r = Reg::new(8);
        let local =
            Inst::Load { space: Space::Local, rd: r, base: r, offset: 0, hint: AccessHint::Data };
        assert!(DInst::decode(local).is_local_exec());
        assert!(DInst::decode(Inst::Jump { target: Target::Pc(0) }).is_local_exec());
        assert!(!DInst::decode(Inst::Halt).is_local_exec());
        assert!(!DInst::decode(Inst::Switch).is_local_exec());
        assert!(!DInst::decode(Inst::SetPrio { level: 1 }).is_local_exec());
    }

    #[test]
    fn decoded_program_is_cheap_to_clone() {
        let mut b = mtsim_asm::ProgramBuilder::new("t");
        b.emit(Inst::Nop);
        let prog = b.finish();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(d.len(), prog.len());
        let d2 = d.clone();
        assert!(std::ptr::eq(d.insts(), d2.insts()), "clone must share the table");
    }

    #[test]
    fn run_lengths_count_the_straight_line_suffix() {
        // Every shape, in order, then twice more: the run at each pc must
        // equal a forward count of straight instructions from there.
        let mut b = mtsim_asm::ProgramBuilder::new("t");
        for inst in all_shapes().into_iter().cycle().take(3 * all_shapes().len()) {
            b.emit(inst);
        }
        let prog = b.finish();
        let d = DecodedProgram::decode(&prog);
        let insts = d.insts();
        for (pc, di) in insts.iter().enumerate() {
            let want = insts[pc..].iter().take_while(|x| x.is_straight()).count() as u32;
            assert_eq!(di.run, want, "pc {pc}: {:?}", di.inst);
            assert_eq!(DInst::decode(di.inst).run, 0, "a lone decode knows no program");
        }
        assert!(insts.iter().any(|di| di.run >= 2), "the shapes hold straight-line runs");
    }

    #[test]
    fn table_entries_stay_forty_bytes() {
        // The run length lives in the entry's padding; a wider entry
        // costs the fast path cache footprint on every program.
        assert_eq!(std::mem::size_of::<DInst>(), 40);
    }
}
