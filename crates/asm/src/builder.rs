//! The structured program builder and its code generator.
//!
//! Code generation is deliberately "compiler-natural": expressions are
//! evaluated in order, each load is emitted immediately before its first
//! use, and no shared-load grouping is performed — that is the job of the
//! `mtsim-opt` post-pass, exactly as in the paper where a separate
//! post-processor rewrites `-O2` object code.

use crate::expr::{Addr, Cond, FExpr, IExpr};
use crate::layout::LocalFrame;
use crate::program::{LabelTable, Program};
use mtsim_isa::{AccessHint, AluOp, FReg, Inst, LabelId, Pc, Reg, Space};

/// Handle to an integer variable declared with [`ProgramBuilder::def_i`].
///
/// Variables live in registers for their enclosing scope. The handle holds
/// the variable's serial number: declarations are numbered in order, and a
/// number is never reused, so a handle that outlived its scope is always
/// recognized as dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IVar(usize);

impl IVar {
    /// The variable's value as an expression.
    pub fn get(self) -> IExpr {
        IExpr::Var(self.0)
    }
}

impl From<IVar> for IExpr {
    fn from(v: IVar) -> IExpr {
        v.get()
    }
}

/// Handle to a floating-point variable declared with
/// [`ProgramBuilder::def_f`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FVar(usize);

impl FVar {
    /// The variable's value as an expression.
    pub fn get(self) -> FExpr {
        FExpr::Var(self.0)
    }
}

impl From<FVar> for FExpr {
    fn from(v: FVar) -> FExpr {
        v.get()
    }
}

/// Structured builder producing a [`Program`].
///
/// See the crate docs for an example. Scoped constructs (`if_`, `while_`,
/// `for_range`) free the registers of variables declared inside their
/// bodies when the body ends.
///
/// Building allocates nothing per statement or per variable: live
/// variables sit on two stacks that scopes truncate, a scope is a pair of
/// stack marks, and names are appended to one buffer. Only the output
/// vectors and that buffer grow, by amortized doubling.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    labels: LabelTable,
    /// Live integer variables as `(serial, register)`, in declaration
    /// order (so ascending serials); the innermost scope's are on top.
    ivars: Vec<(usize, Reg)>,
    fvars: Vec<(usize, FReg)>,
    /// Every variable name ever declared, each ended by a NUL, in serial
    /// order. Read only to name a dead variable in a panic message.
    names: String,
    /// Serial number of the next declared variable (integer or float).
    next_serial: usize,
    int_pool: std::collections::VecDeque<Reg>,
    fp_pool: std::collections::VecDeque<FReg>,
    temps_i: Vec<Reg>,
    temps_f: Vec<FReg>,
    /// Each open scope's `(ivars.len(), fvars.len())` at its start.
    scopes: Vec<(usize, usize)>,
    local: LocalFrame,
}

impl ProgramBuilder {
    /// Creates a builder for a program named `name`.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        // Allocatable pools: r6..r31 except r29 (sp) for integers (r0..r5
        // are ABI/runtime registers), all of f0..f31 for floats.
        let int_pool: std::collections::VecDeque<Reg> =
            (6..32).filter(|&n| n != 29).map(Reg::new).collect();
        let fp_pool: std::collections::VecDeque<FReg> = (0..32).map(FReg::new).collect();
        ProgramBuilder {
            name: name.into(),
            insts: Vec::new(),
            labels: LabelTable::default(),
            ivars: Vec::new(),
            fvars: Vec::new(),
            names: String::new(),
            next_serial: 0,
            int_pool,
            fp_pool,
            temps_i: Vec::new(),
            temps_f: Vec::new(),
            scopes: vec![(0, 0)],
            local: LocalFrame::new(),
        }
    }

    // ------------------------------------------------------------------
    // Expression constructors (no code emitted until consumed)
    // ------------------------------------------------------------------

    /// The thread id (0-based), available in every thread at entry.
    pub fn tid(&self) -> IExpr {
        IExpr::Tid
    }

    /// The total number of threads in the computation.
    pub fn nthreads(&self) -> IExpr {
        IExpr::NThreads
    }

    /// Integer constant expression.
    pub fn const_i(&self, v: i64) -> IExpr {
        IExpr::Const(v)
    }

    /// Float constant expression.
    pub fn const_f(&self, v: f64) -> FExpr {
        FExpr::Const(v)
    }

    /// Shared-memory integer load expression.
    pub fn load_shared(&self, addr: impl Into<IExpr>) -> IExpr {
        IExpr::LoadShared(Addr::from(addr.into()), AccessHint::Data)
    }

    /// Shared-memory integer load with an explicit [`AccessHint`] (used by
    /// the runtime to tag spin-loop traffic).
    pub fn load_shared_hint(&self, addr: impl Into<IExpr>, hint: AccessHint) -> IExpr {
        IExpr::LoadShared(Addr::from(addr.into()), hint)
    }

    /// Shared-memory float load expression.
    pub fn load_shared_f(&self, addr: impl Into<IExpr>) -> FExpr {
        FExpr::LoadShared(Addr::from(addr.into()))
    }

    /// Local-memory integer load expression.
    pub fn load_local(&self, addr: impl Into<IExpr>) -> IExpr {
        IExpr::LoadLocal(Addr::from(addr.into()))
    }

    /// Local-memory float load expression.
    pub fn load_local_f(&self, addr: impl Into<IExpr>) -> FExpr {
        FExpr::LoadLocal(Addr::from(addr.into()))
    }

    /// Atomic fetch-and-add expression: evaluates to the pre-increment
    /// value of the shared word.
    pub fn fetch_add(&self, addr: impl Into<IExpr>, inc: impl Into<IExpr>) -> IExpr {
        IExpr::FetchAdd(Addr::from(addr.into()), Box::new(inc.into()), AccessHint::Data)
    }

    /// Fetch-and-add tagged with an [`AccessHint`].
    pub fn fetch_add_hint(
        &self,
        addr: impl Into<IExpr>,
        inc: impl Into<IExpr>,
        hint: AccessHint,
    ) -> IExpr {
        IExpr::FetchAdd(Addr::from(addr.into()), Box::new(inc.into()), hint)
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    /// Declares an integer variable initialized to `init`, allocating a
    /// register for the current scope.
    ///
    /// # Panics
    ///
    /// Panics if the integer register pool is exhausted (restructure the
    /// program to use local-memory arrays).
    pub fn def_i(&mut self, name: &str, init: impl Into<IExpr>) -> IVar {
        self.define_i(&[name], init.into())
    }

    /// Declares a float variable initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if the FP register pool is exhausted.
    pub fn def_f(&mut self, name: &str, init: impl Into<FExpr>) -> FVar {
        let (var, reg) = self.alloc_fvar(&[name]);
        self.eval_f(&init.into(), Some(reg));
        self.reset_temps();
        var
    }

    /// Reassigns an integer variable.
    pub fn assign(&mut self, var: IVar, value: impl Into<IExpr>) {
        let reg = self.ivar_reg(var.0);
        let e = value.into();
        self.eval_i(&e, Some(reg));
        self.reset_temps();
    }

    /// Reassigns a float variable.
    pub fn assign_f(&mut self, var: FVar, value: impl Into<FExpr>) {
        let reg = self.fvar_reg(var.0);
        let e = value.into();
        self.eval_f(&e, Some(reg));
        self.reset_temps();
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Stores an integer to shared memory.
    pub fn store_shared(&mut self, addr: impl Into<IExpr>, value: impl Into<IExpr>) {
        self.store_shared_hint(addr, value, AccessHint::Data);
    }

    /// Stores an integer to shared memory with an [`AccessHint`].
    pub fn store_shared_hint(
        &mut self,
        addr: impl Into<IExpr>,
        value: impl Into<IExpr>,
        hint: AccessHint,
    ) {
        let v = value.into();
        let rs = self.eval_i(&v, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::Store { space: Space::Shared, rs, base, offset, hint });
        self.reset_temps();
    }

    /// Stores a float to shared memory.
    pub fn store_shared_f(&mut self, addr: impl Into<IExpr>, value: impl Into<FExpr>) {
        let v = value.into();
        let fs = self.eval_f(&v, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::FStore { space: Space::Shared, fs, base, offset });
        self.reset_temps();
    }

    /// Stores an integer to local memory.
    pub fn store_local(&mut self, addr: impl Into<IExpr>, value: impl Into<IExpr>) {
        let v = value.into();
        let rs = self.eval_i(&v, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::Store {
            space: Space::Local,
            rs,
            base,
            offset,
            hint: AccessHint::Data,
        });
        self.reset_temps();
    }

    /// Stores a float to local memory.
    pub fn store_local_f(&mut self, addr: impl Into<IExpr>, value: impl Into<FExpr>) {
        let v = value.into();
        let fs = self.eval_f(&v, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::FStore { space: Space::Local, fs, base, offset });
        self.reset_temps();
    }

    /// Loads two adjacent shared words with a single Load-Double message
    /// into two fresh float variables (paper §3's Load-Double).
    pub fn load_pair_shared_f(&mut self, name: &str, addr: impl Into<IExpr>) -> (FVar, FVar) {
        let (v1, fd1) = self.alloc_fvar(&[name, ".0"]);
        let (v2, fd2) = self.alloc_fvar(&[name, ".1"]);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::LoadPair { space: Space::Shared, fd1, fd2, base, offset });
        self.reset_temps();
        (v1, v2)
    }

    /// Stores two floats to adjacent shared words with a single
    /// Store-Double message.
    pub fn store_pair_shared_f(
        &mut self,
        addr: impl Into<IExpr>,
        v1: impl Into<FExpr>,
        v2: impl Into<FExpr>,
    ) {
        let e1 = v1.into();
        let e2 = v2.into();
        let fs1 = self.eval_f(&e1, None);
        let fs2 = self.eval_f(&e2, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::StorePair { space: Space::Shared, fs1, fs2, base, offset });
        self.reset_temps();
    }

    /// Performs a fetch-and-add whose result is discarded (`rd = r0`): the
    /// message is still sent and serialized atomically at memory, but the
    /// thread does not wait for the reply. Used for barrier arrival.
    pub fn fetch_add_discard(
        &mut self,
        addr: impl Into<IExpr>,
        inc: impl Into<IExpr>,
        hint: AccessHint,
    ) {
        let i = inc.into();
        let rs = self.eval_i(&i, None);
        let (base, offset) = self.eval_addr(&Addr::from(addr.into()));
        self.insts.push(Inst::FetchAdd { rd: Reg::ZERO, rs, base, offset, hint });
        self.reset_temps();
    }

    /// Emits an explicit context-switch instruction. Normally inserted by
    /// the `mtsim-opt` grouping pass; exposed for hand-written code and the
    /// runtime.
    pub fn explicit_switch(&mut self) {
        self.insts.push(Inst::Switch);
    }

    /// Emits a raw instruction (escape hatch for the runtime crate).
    pub fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Sets the thread's scheduling priority (see
    /// `mtsim_core::MachineConfig::priority_scheduling`).
    pub fn set_priority(&mut self, level: u8) {
        self.insts.push(Inst::SetPrio { level });
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// Creates a fresh, unplaced label.
    pub fn fresh_label(&mut self) -> LabelId {
        self.labels.fresh()
    }

    /// Places `label` at the current position.
    pub fn place_label(&mut self, label: LabelId) {
        self.labels.place(label, self.insts.len() as Pc);
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: LabelId) {
        self.insts.push(Inst::Jump { target: mtsim_isa::Target::Label(label) });
    }

    /// Branches to `label` when `cond` holds.
    pub fn branch_if(&mut self, cond: Cond, label: LabelId) {
        let rs = self.eval_i(&cond.lhs, None);
        let rt = self.eval_i(&cond.rhs, None);
        self.insts.push(Inst::Branch {
            cond: cond.op,
            rs,
            rt,
            target: mtsim_isa::Target::Label(label),
        });
        self.reset_temps();
    }

    /// Branches to `label` when `cond` does not hold.
    pub fn branch_unless(&mut self, cond: Cond, label: LabelId) {
        self.branch_if(cond.negate(), label);
    }

    /// `if cond { then }`.
    pub fn if_(&mut self, cond: Cond, then: impl FnOnce(&mut ProgramBuilder)) {
        let end = self.fresh_label();
        self.branch_unless(cond, end);
        self.scoped(then);
        self.place_label(end);
    }

    /// `if cond { then } else { otherwise }`.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then: impl FnOnce(&mut ProgramBuilder),
        otherwise: impl FnOnce(&mut ProgramBuilder),
    ) {
        let else_l = self.fresh_label();
        let end = self.fresh_label();
        self.branch_unless(cond, else_l);
        self.scoped(then);
        self.jump(end);
        self.place_label(else_l);
        self.scoped(otherwise);
        self.place_label(end);
    }

    /// `while cond { body }`. The condition is re-evaluated every iteration
    /// (including any loads or fetch-and-adds it contains).
    pub fn while_(&mut self, cond: Cond, body: impl FnOnce(&mut ProgramBuilder)) {
        let head = self.fresh_label();
        let end = self.fresh_label();
        self.place_label(head);
        self.branch_unless(cond, end);
        self.scoped(body);
        self.jump(head);
        self.place_label(end);
    }

    /// Counted loop: `for i in lo..hi { body(i) }` with unit step.
    ///
    /// `hi` is evaluated **once**, before the first iteration.
    pub fn for_range(
        &mut self,
        name: &str,
        lo: impl Into<IExpr>,
        hi: impl Into<IExpr>,
        body: impl FnOnce(&mut ProgramBuilder, IVar),
    ) {
        self.for_range_step(name, lo, hi, 1, body);
    }

    /// Counted loop with a positive step.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn for_range_step(
        &mut self,
        name: &str,
        lo: impl Into<IExpr>,
        hi: impl Into<IExpr>,
        step: i64,
        body: impl FnOnce(&mut ProgramBuilder, IVar),
    ) {
        assert!(step > 0, "for_range_step requires a positive step");
        self.push_scope();
        let i = self.def_i(name, lo);
        let limit = self.define_i(&["_", name, "_limit"], hi.into());
        let head = self.fresh_label();
        let end = self.fresh_label();
        self.place_label(head);
        self.branch_unless(i.get().lt(limit.get()), end);
        self.scoped(|b| body(b, i));
        self.assign(i, i.get() + step);
        self.jump(head);
        self.place_label(end);
        self.pop_scope();
    }

    // ------------------------------------------------------------------
    // Local memory
    // ------------------------------------------------------------------

    /// Allocates `words` words of per-thread local memory, returning the
    /// base word address (a compile-time constant).
    pub fn local_alloc(&mut self, words: u64) -> i64 {
        self.local.alloc(words) as i64
    }

    /// Words of per-thread local memory allocated so far.
    pub fn local_words(&self) -> u64 {
        self.local.size()
    }

    // ------------------------------------------------------------------
    // Finishing
    // ------------------------------------------------------------------

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends `Halt` (if missing) and resolves all labels, producing the
    /// final [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any created label was never placed.
    pub fn finish(mut self) -> Program {
        if !matches!(self.insts.last(), Some(Inst::Halt)) {
            self.insts.push(Inst::Halt);
        }
        Program::resolve(self.name, self.insts, self.labels.slots())
            .with_local_words(self.local.size())
    }

    // ------------------------------------------------------------------
    // Internals: scopes and registers
    // ------------------------------------------------------------------

    fn push_scope(&mut self) {
        self.scopes.push((self.ivars.len(), self.fvars.len()));
    }

    /// Frees the innermost scope's variables, returning their registers
    /// to the pools in declaration order.
    fn pop_scope(&mut self) {
        let (i0, f0) = self.scopes.pop().expect("scope underflow");
        for &(_, reg) in &self.ivars[i0..] {
            self.int_pool.push_back(reg);
        }
        self.ivars.truncate(i0);
        for &(_, reg) in &self.fvars[f0..] {
            self.fp_pool.push_back(reg);
        }
        self.fvars.truncate(f0);
    }

    /// Runs `f` in a fresh variable scope: variables it declares release
    /// their registers when the scope ends (used by the control-flow
    /// constructs, and available to code generators such as `mtsim-lang`).
    pub fn scoped(&mut self, f: impl FnOnce(&mut ProgramBuilder)) {
        self.push_scope();
        f(self);
        self.pop_scope();
    }

    /// Declares a variable in the current scope named by the
    /// concatenation of `name`, returning its serial number.
    fn declare(&mut self, name: &[&str]) -> usize {
        for part in name {
            self.names.push_str(part);
        }
        self.names.push('\0');
        self.next_serial += 1;
        self.next_serial - 1
    }

    /// Declares an integer variable and evaluates `init` into it.
    fn define_i(&mut self, name: &[&str], init: IExpr) -> IVar {
        let reg = self.int_pool.pop_back().unwrap_or_else(|| {
            panic!("{}: out of integer registers at var '{}'", self.name, name.concat())
        });
        let serial = self.declare(name);
        self.ivars.push((serial, reg));
        self.eval_i(&init, Some(reg));
        self.reset_temps();
        IVar(serial)
    }

    fn alloc_fvar(&mut self, name: &[&str]) -> (FVar, FReg) {
        let reg = self.fp_pool.pop_back().unwrap_or_else(|| {
            panic!("{}: out of fp registers at var '{}'", self.name, name.concat())
        });
        let serial = self.declare(name);
        self.fvars.push((serial, reg));
        (FVar(serial), reg)
    }

    /// The name variable `serial` was declared with.
    fn var_name(&self, serial: usize) -> &str {
        self.names.split('\0').nth(serial).expect("a declared variable")
    }

    fn ivar_reg(&self, serial: usize) -> Reg {
        match self.ivars.binary_search_by_key(&serial, |&(s, _)| s) {
            Ok(pos) => self.ivars[pos].1,
            Err(_) => {
                panic!("use of dead variable '{}' (out of scope)", self.var_name(serial))
            }
        }
    }

    fn fvar_reg(&self, serial: usize) -> FReg {
        match self.fvars.binary_search_by_key(&serial, |&(s, _)| s) {
            Ok(pos) => self.fvars[pos].1,
            Err(_) => {
                panic!("use of dead fp variable '{}' (out of scope)", self.var_name(serial))
            }
        }
    }

    fn temp_i(&mut self) -> Reg {
        let r = self.int_pool.pop_front().unwrap_or_else(|| {
            panic!("{}: out of integer registers (expression too deep)", self.name)
        });
        self.temps_i.push(r);
        r
    }

    fn temp_f(&mut self) -> FReg {
        let r = self
            .fp_pool
            .pop_front()
            .unwrap_or_else(|| panic!("{}: out of fp registers (expression too deep)", self.name));
        self.temps_f.push(r);
        r
    }

    /// Returns `reg` to the pool if it is a live temporary (operands of a
    /// finished operation are dead).
    fn free_if_temp_i(&mut self, reg: Reg) {
        if let Some(pos) = self.temps_i.iter().position(|&r| r == reg) {
            self.temps_i.swap_remove(pos);
            self.int_pool.push_back(reg);
        }
    }

    fn free_if_temp_f(&mut self, reg: FReg) {
        if let Some(pos) = self.temps_f.iter().position(|&r| r == reg) {
            self.temps_f.swap_remove(pos);
            self.fp_pool.push_back(reg);
        }
    }

    fn reset_temps(&mut self) {
        while let Some(r) = self.temps_i.pop() {
            self.int_pool.push_back(r);
        }
        while let Some(r) = self.temps_f.pop() {
            self.fp_pool.push_back(r);
        }
    }

    // ------------------------------------------------------------------
    // Internals: expression evaluation
    // ------------------------------------------------------------------

    fn dest_or_temp_i(&mut self, dest: Option<Reg>) -> Reg {
        dest.unwrap_or_else(|| self.temp_i())
    }

    fn dest_or_temp_f(&mut self, dest: Option<FReg>) -> FReg {
        dest.unwrap_or_else(|| self.temp_f())
    }

    /// Evaluates `e` into `dest` (or a fresh temp), returning the register
    /// holding the value.
    fn eval_i(&mut self, e: &IExpr, dest: Option<Reg>) -> Reg {
        match e {
            IExpr::Const(0) if dest.is_none() => Reg::ZERO,
            IExpr::Const(v) => {
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::AluI { op: AluOp::Add, rd, rs: Reg::ZERO, imm: *v });
                rd
            }
            IExpr::Var(idx) => {
                let src = self.ivar_reg(*idx);
                self.move_i(src, dest)
            }
            IExpr::Tid => self.move_i(Reg::TID, dest),
            IExpr::NThreads => self.move_i(Reg::NTHREADS, dest),
            IExpr::Bin(op, lhs, rhs) => {
                // Fold a constant right operand into an immediate form,
                // strength-reducing multiplication by a power of two into a
                // shift (as `-O2` would).
                if let IExpr::Const(imm) = **rhs {
                    let rs = self.eval_i(lhs, None);
                    let rd = self.dest_or_temp_i(dest);
                    if *op == AluOp::Mul && imm > 0 && (imm as u64).is_power_of_two() {
                        let sh = imm.trailing_zeros() as i64;
                        self.insts.push(Inst::AluI { op: AluOp::Sll, rd, rs, imm: sh });
                    } else {
                        self.insts.push(Inst::AluI { op: *op, rd, rs, imm });
                    }
                    self.free_if_temp_i(rs);
                    rd
                } else {
                    let rs = self.eval_i(lhs, None);
                    let rt = self.eval_i(rhs, None);
                    let rd = self.dest_or_temp_i(dest);
                    self.insts.push(Inst::Alu { op: *op, rd, rs, rt });
                    self.free_if_temp_i(rs);
                    self.free_if_temp_i(rt);
                    rd
                }
            }
            IExpr::LoadLocal(addr) => {
                let (base, offset) = self.eval_addr(addr);
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::Load {
                    space: Space::Local,
                    rd,
                    base,
                    offset,
                    hint: AccessHint::Data,
                });
                self.free_if_temp_i(base);
                rd
            }
            IExpr::LoadShared(addr, hint) => {
                let (base, offset) = self.eval_addr(addr);
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::Load { space: Space::Shared, rd, base, offset, hint: *hint });
                self.free_if_temp_i(base);
                rd
            }
            IExpr::FetchAdd(addr, inc, hint) => {
                let rs = self.eval_i(inc, None);
                let (base, offset) = self.eval_addr(addr);
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::FetchAdd { rd, rs, base, offset, hint: *hint });
                self.free_if_temp_i(rs);
                self.free_if_temp_i(base);
                rd
            }
            IExpr::FromF(f) => {
                let fs = self.eval_f(f, None);
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::CvtFI { rd, fs });
                self.free_if_temp_f(fs);
                rd
            }
            IExpr::CmpF(op, a, b) => {
                let fs = self.eval_f(a, None);
                let ft = self.eval_f(b, None);
                let rd = self.dest_or_temp_i(dest);
                self.insts.push(Inst::FpuCmp { op: *op, rd, fs, ft });
                self.free_if_temp_f(fs);
                self.free_if_temp_f(ft);
                rd
            }
        }
    }

    fn move_i(&mut self, src: Reg, dest: Option<Reg>) -> Reg {
        match dest {
            Some(d) if d != src => {
                self.insts.push(Inst::Alu { op: AluOp::Add, rd: d, rs: src, rt: Reg::ZERO });
                d
            }
            Some(d) => d,
            None => src,
        }
    }

    fn eval_f(&mut self, e: &FExpr, dest: Option<FReg>) -> FReg {
        match e {
            FExpr::Const(v) => {
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::FLi { fd, val: *v });
                fd
            }
            FExpr::Var(idx) => {
                let src = self.fvar_reg(*idx);
                match dest {
                    Some(d) if d != src => {
                        // fmov via fadd with 0 would perturb cost; use a
                        // dedicated move through the FPU add unit.
                        self.insts.push(Inst::Fpu {
                            op: mtsim_isa::FpuOp::Max,
                            fd: d,
                            fs: src,
                            ft: src,
                        });
                        d
                    }
                    Some(d) => d,
                    None => src,
                }
            }
            FExpr::Bin(op, lhs, rhs) => {
                let fs = self.eval_f(lhs, None);
                let ft = self.eval_f(rhs, None);
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::Fpu { op: *op, fd, fs, ft });
                self.free_if_temp_f(fs);
                self.free_if_temp_f(ft);
                fd
            }
            FExpr::LoadLocal(addr) => {
                let (base, offset) = self.eval_addr(addr);
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::FLoad { space: Space::Local, fd, base, offset });
                self.free_if_temp_i(base);
                fd
            }
            FExpr::LoadShared(addr) => {
                let (base, offset) = self.eval_addr(addr);
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::FLoad { space: Space::Shared, fd, base, offset });
                self.free_if_temp_i(base);
                fd
            }
            FExpr::FromI(i) => {
                let rs = self.eval_i(i, None);
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::CvtIF { fd, rs });
                self.free_if_temp_i(rs);
                fd
            }
            FExpr::Sqrt(e) => {
                let fs = self.eval_f(e, None);
                let fd = self.dest_or_temp_f(dest);
                self.insts.push(Inst::FSqrt { fd, fs });
                self.free_if_temp_f(fs);
                fd
            }
        }
    }

    /// Evaluates an address's register part, returning the instruction's
    /// `(base, offset)` fields.
    fn eval_addr(&mut self, addr: &Addr) -> (Reg, i64) {
        let (base, offset) = addr.parts();
        (base.map_or(Reg::ZERO, |b| self.eval_i(b, None)), offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::Inst;

    #[test]
    fn straight_line_codegen() {
        let mut b = ProgramBuilder::new("t");
        let x = b.def_i("x", 5);
        let y = b.def_i("y", x.get() + 3);
        b.store_local(b.const_i(0), y.get());
        let p = b.finish();
        // li x; addi y; store; halt
        assert!(matches!(p.inst(0), Inst::AluI { imm: 5, .. }));
        assert!(matches!(p.inst(1), Inst::AluI { imm: 3, .. }));
        assert!(matches!(p.inst(2), Inst::Store { space: Space::Local, .. }));
        assert!(matches!(p.inst(3), Inst::Halt));
    }

    #[test]
    fn shared_load_folds_offset() {
        let mut b = ProgramBuilder::new("t");
        let i = b.def_i("i", 2);
        let v = b.load_shared(i.get() + 100);
        let _x = b.def_i("x", v);
        let p = b.finish();
        let has_folded = p
            .insts()
            .iter()
            .any(|ins| matches!(ins, Inst::Load { space: Space::Shared, offset: 100, .. }));
        assert!(has_folded, "{}", p.listing());
    }

    #[test]
    fn registers_are_recycled_by_scopes() {
        let mut b = ProgramBuilder::new("t");
        for round in 0..50 {
            // Each iteration declares scoped vars; pools must not exhaust.
            b.if_(b.tid().eq(round), |b| {
                let a = b.def_i("a", 1);
                let c = b.def_i("c", a.get() + 1);
                b.store_local(b.const_i(0), c.get());
            });
        }
        let p = b.finish();
        assert!(p.len() > 100);
    }

    #[test]
    fn expression_temps_are_recycled() {
        let mut b = ProgramBuilder::new("t");
        // A 30-term sum would exhaust the 20-register pool without eager
        // operand recycling.
        let mut e = b.const_i(0);
        for k in 0..30 {
            e = e + b.load_shared(b.const_i(k));
        }
        let s = b.def_i("s", e);
        b.store_shared(b.const_i(1000), s.get());
        let p = b.finish();
        assert_eq!(p.shared_access_count(), 31);
    }

    #[test]
    fn while_loop_shape() {
        let mut b = ProgramBuilder::new("t");
        let i = b.def_i("i", 0);
        b.while_(i.get().lt(10), |b| {
            b.assign(i, i.get() + 1);
        });
        let p = b.finish();
        // One backwards jump and one forward conditional branch.
        let jumps = p.insts().iter().filter(|i| matches!(i, Inst::Jump { .. })).count();
        let branches = p.insts().iter().filter(|i| matches!(i, Inst::Branch { .. })).count();
        assert_eq!(jumps, 1);
        assert_eq!(branches, 1);
    }

    #[test]
    fn for_range_counts() {
        let mut b = ProgramBuilder::new("t");
        b.for_range("i", 0, 4, |b, i| {
            b.store_local(i.get(), i.get());
        });
        let p = b.finish();
        assert!(p.len() > 5);
    }

    #[test]
    #[should_panic(expected = "out of scope")]
    fn use_after_scope_panics() {
        let mut b = ProgramBuilder::new("t");
        let mut escaped = None;
        b.if_(b.tid().eq(0), |b| {
            escaped = Some(b.def_i("dead", 1));
        });
        let v = escaped.unwrap();
        b.store_local(b.const_i(0), v.get());
    }

    #[test]
    #[should_panic(expected = "use of dead variable 'dead' (out of scope)")]
    fn a_dead_handle_stays_dead_when_its_register_is_reused() {
        let mut b = ProgramBuilder::new("t");
        let mut escaped = None;
        b.if_(b.tid().eq(0), |b| {
            escaped = Some(b.def_i("dead", 1));
        });
        // Takes the register the dead variable held.
        let live = b.def_i("live", 2);
        b.store_local(b.const_i(0), live.get());
        b.store_local(b.const_i(1), escaped.unwrap().get());
    }

    #[test]
    #[should_panic(expected = "use of dead fp variable 'pos.1' (out of scope)")]
    fn a_dead_pair_half_is_named() {
        let mut b = ProgramBuilder::new("t");
        let mut escaped = None;
        b.scoped(|b| {
            escaped = Some(b.load_pair_shared_f("pos", b.const_i(40)).1);
        });
        b.store_shared_f(b.const_i(50), escaped.unwrap().get());
    }

    #[test]
    fn fetch_add_discard_writes_r0() {
        let mut b = ProgramBuilder::new("t");
        b.fetch_add_discard(b.const_i(7), b.const_i(1), AccessHint::Data);
        let p = b.finish();
        assert!(p.insts().iter().any(|i| matches!(i, Inst::FetchAdd { rd, .. } if rd.is_zero())));
    }

    #[test]
    fn load_pair_defines_two_vars() {
        let mut b = ProgramBuilder::new("t");
        let (x, y) = b.load_pair_shared_f("pos", b.const_i(40));
        let s = b.def_f("s", x.get() + y.get());
        b.store_shared_f(b.const_i(50), s.get());
        let p = b.finish();
        assert!(p.insts().iter().any(|i| matches!(i, Inst::LoadPair { .. })));
    }

    #[test]
    fn if_else_both_arms() {
        let mut b = ProgramBuilder::new("t");
        let x = b.def_i("x", 0);
        b.if_else(b.tid().eq(0), |b| b.assign(x, 1), |b| b.assign(x, 2));
        b.store_local(b.const_i(0), x.get());
        let p = b.finish();
        assert!(p.len() >= 7);
    }
}
