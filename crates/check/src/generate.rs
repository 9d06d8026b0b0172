//! Seeded random program generator over the `mtsim-asm` builder DSL.
//!
//! Generated programs are **race-free by construction** so their final
//! architectural state is independent of thread interleaving — the
//! property that makes oracle-vs-engine differential testing sound:
//!
//! * the *input* region is read-only (seeded before the run, never
//!   stored to);
//! * the *accumulator* cells receive only commutative updates
//!   (fire-and-forget fetch-and-adds, or lock-protected `+=`);
//! * the *output* region is partitioned per thread — thread `t` touches
//!   only its own `out_slots` words;
//! * local memory and builder variables hold only values derived from the
//!   above, so per-thread register files are deterministic too — except
//!   where a synchronization primitive materializes an arrival order in a
//!   register (ticket numbers, barrier generations), which
//!   [`TestProgram::regs_comparable`] accounts for.
//!
//! The statement/expression AST here is deliberately its own small tree
//! (not `mtsim_asm::IExpr` directly) so the shrinking minimizer in
//! [`crate::shrink`] can enumerate structural reductions.

use mtsim_asm::{FExpr, FVar, IExpr, IVar, Program, ProgramBuilder, SharedLayout};
use mtsim_isa::{AccessHint, AluOp, BCond, CmpOp, FpuOp};
use mtsim_mem::SharedMemory;
use mtsim_rng::Rng;
use mtsim_rt::{Barrier, TicketLock};

/// Integer builder variables available to generated code.
pub const NIVARS: usize = 3;
/// Floating-point builder variables available to generated code.
pub const NFVARS: usize = 2;

/// A generator-level integer expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IE {
    /// Immediate constant.
    Const(i64),
    /// Thread id.
    Tid,
    /// Total thread count.
    NThreads,
    /// Builder variable `0..NIVARS`.
    Var(usize),
    /// Binary ALU operation.
    Bin(AluOp, Box<IE>, Box<IE>),
    /// Load from the read-only input region (index is masked in-range).
    LoadIn(Box<IE>),
    /// Load from this thread's private output slot.
    LoadOut(u64),
    /// Load from local scratch (constant in-range address).
    LoadLocal(u64),
    /// Fetch-and-add on this thread's private output slot (single writer,
    /// so the returned old value is deterministic).
    FetchAddOut(u64, i64),
    /// Truncating conversion from float.
    FromF(Box<FE>),
    /// Float comparison yielding 0/1.
    CmpF(CmpOp, Box<FE>, Box<FE>),
}

/// A generator-level floating-point expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FE {
    /// Immediate constant.
    Const(f64),
    /// Builder FP variable `0..NFVARS`.
    Var(usize),
    /// Binary FP operation.
    Bin(FpuOp, Box<FE>, Box<FE>),
    /// Float load from the read-only input region (masked index).
    LoadIn(Box<IE>),
    /// Float load from local scratch.
    LoadLocal(u64),
    /// Conversion from integer.
    FromI(Box<IE>),
    /// Square root.
    Sqrt(Box<FE>),
}

/// A comparison between two integer expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Cnd {
    /// Branch condition.
    pub op: BCond,
    /// Left operand.
    pub a: IE,
    /// Right operand.
    pub b: IE,
}

/// A generator-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `ivar[i] = e`.
    AssignI(usize, IE),
    /// `fvar[i] = e`.
    AssignF(usize, FE),
    /// Shared store to this thread's private output slot.
    StoreOut(u64, IE),
    /// Float shared store to a private output slot.
    StoreOutF(u64, FE),
    /// Local store (constant in-range address).
    StoreLocal(u64, IE),
    /// Float local store.
    StoreLocalF(u64, FE),
    /// Fire-and-forget fetch-and-add into an accumulator cell.
    FaaAcc(u64, IE),
    /// Two-sided conditional.
    If(Cnd, Vec<Stmt>, Vec<Stmt>),
    /// Counted loop with a constant trip count.
    For(u8, Vec<Stmt>),
    /// Lock-protected `cs[cell] += k` (read-modify-write under the ticket
    /// lock). Critical sections get their own cell region, disjoint from
    /// the fetch-and-add accumulators: an RMW store is atomic only
    /// against other lock holders, so mixing it with lock-free
    /// fetch-and-adds on one cell would be a genuine race (the fuzzer
    /// found exactly that in an early version of this generator).
    Critical(u64, i64),
    /// Full-machine barrier (emitted only at top level so every thread
    /// reaches the same barrier sequence).
    Barrier,
}

/// One generated test case: sizing parameters plus the statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct TestProgram {
    /// Total threads the case runs with.
    pub nthreads: usize,
    /// Read-only input words (power of two; loads are masked into range).
    pub in_words: u64,
    /// Commutative accumulator cells.
    pub acc_cells: u64,
    /// Private output words per thread.
    pub out_slots: u64,
    /// Local scratch words per thread.
    pub local_words: u64,
    /// Seed for the initial input-region image.
    pub input_seed: u64,
    /// The program body.
    pub stmts: Vec<Stmt>,
}

/// A fully emitted, runnable case.
pub struct EmittedCase {
    /// The program image.
    pub program: Program,
    /// Initialized shared memory (inputs seeded, everything else zero).
    pub shared: SharedMemory,
    /// Threads the case was emitted for.
    pub nthreads: usize,
    /// True when per-thread register files and locals are
    /// interleaving-independent and may be compared against the oracle.
    pub regs_comparable: bool,
}

impl TestProgram {
    /// The same case re-targeted at a different thread count.
    pub fn with_nthreads(&self, nthreads: usize) -> TestProgram {
        TestProgram { nthreads, ..self.clone() }
    }

    /// Whether any statement (recursively) uses the ticket lock.
    pub fn uses_lock(&self) -> bool {
        fn scan(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Critical(..) => true,
                Stmt::If(_, a, b) => scan(a) || scan(b),
                Stmt::For(_, b) => scan(b),
                _ => false,
            })
        }
        scan(&self.stmts)
    }

    /// Whether the top level contains a barrier.
    pub fn uses_barrier(&self) -> bool {
        self.stmts.iter().any(|s| matches!(s, Stmt::Barrier))
    }

    /// True when the final register files are interleaving-independent:
    /// single-threaded runs always are; multithreaded runs are unless a
    /// synchronization primitive materialized an arrival order (ticket
    /// number, barrier generation) in a register.
    pub fn regs_comparable(&self) -> bool {
        self.nthreads == 1 || (!self.uses_lock() && !self.uses_barrier())
    }

    /// Emits the case: program plus initialized shared memory.
    pub fn emit(&self) -> EmittedCase {
        let mut layout = SharedLayout::new();
        let in_base = layout.alloc("in", self.in_words);
        let acc_base = layout.alloc("acc", self.acc_cells);
        let cs_base = layout.alloc("cs", self.acc_cells);
        let lock = self.uses_lock().then(|| TicketLock::alloc(&mut layout, "lock"));
        let barrier =
            self.uses_barrier().then(|| Barrier::alloc(&mut layout, "bar", self.nthreads as i64));
        let out_base = layout.alloc("out", self.nthreads as u64 * self.out_slots);

        let mut b = ProgramBuilder::new("fuzz");
        b.local_alloc(self.local_words);
        let ivars: Vec<IVar> = (0..NIVARS).map(|i| b.def_i(&format!("gi{i}"), i as i64)).collect();
        let fvars: Vec<FVar> = (0..NFVARS).map(|i| b.def_f(&format!("gf{i}"), i as f64)).collect();
        let ctx = EmitCtx {
            in_base,
            acc_base,
            cs_base,
            out_base,
            out_slots: self.out_slots,
            in_mask: self.in_words - 1,
            ivars,
            fvars,
            lock,
            barrier,
        };
        for s in &self.stmts {
            emit_stmt(&mut b, s, &ctx);
        }
        let program = b.finish();

        let mut shared = SharedMemory::new(layout.size().max(1));
        let mut rng = Rng::derive(self.input_seed, "check-inputs");
        for i in 0..self.in_words {
            if rng.chance(0.5) {
                shared.write_i64(in_base + i, rng.range_i64(-64, 64));
            } else {
                shared.write_f64(in_base + i, rng.range_f64(-8.0, 8.0));
            }
        }
        EmittedCase {
            program,
            shared,
            nthreads: self.nthreads,
            regs_comparable: self.regs_comparable(),
        }
    }
}

struct EmitCtx {
    in_base: u64,
    acc_base: u64,
    cs_base: u64,
    out_base: u64,
    out_slots: u64,
    in_mask: u64,
    ivars: Vec<IVar>,
    fvars: Vec<FVar>,
    lock: Option<TicketLock>,
    barrier: Option<Barrier>,
}

impl EmitCtx {
    /// Address expression for this thread's private output slot.
    fn out_addr(&self, slot: u64) -> IExpr {
        IExpr::Tid * self.out_slots as i64 + (self.out_base + slot % self.out_slots.max(1)) as i64
    }

    /// Address expression for a masked input-region index.
    fn in_addr(&self, idx: &IE) -> IExpr {
        (lower_ie(idx, self) & self.in_mask as i64) + self.in_base as i64
    }
}

fn lower_ie(e: &IE, ctx: &EmitCtx) -> IExpr {
    match e {
        IE::Const(v) => IExpr::Const(*v),
        IE::Tid => IExpr::Tid,
        IE::NThreads => IExpr::NThreads,
        IE::Var(i) => ctx.ivars[i % NIVARS].get(),
        IE::Bin(op, a, b) => {
            IExpr::Bin(*op, Box::new(lower_ie(a, ctx)), Box::new(lower_ie(b, ctx)))
        }
        IE::LoadIn(idx) => IExpr::LoadShared(ctx.in_addr(idx).into(), AccessHint::Data),
        IE::LoadOut(slot) => IExpr::LoadShared(ctx.out_addr(*slot).into(), AccessHint::Data),
        IE::LoadLocal(a) => IExpr::LoadLocal(IExpr::Const(*a as i64).into()),
        IE::FetchAddOut(slot, k) => IExpr::FetchAdd(
            ctx.out_addr(*slot).into(),
            Box::new(IExpr::Const(*k)),
            AccessHint::Data,
        ),
        IE::FromF(f) => IExpr::FromF(Box::new(lower_fe(f, ctx))),
        IE::CmpF(op, a, b) => {
            IExpr::CmpF(*op, Box::new(lower_fe(a, ctx)), Box::new(lower_fe(b, ctx)))
        }
    }
}

fn lower_fe(e: &FE, ctx: &EmitCtx) -> FExpr {
    match e {
        FE::Const(v) => FExpr::Const(*v),
        FE::Var(i) => ctx.fvars[i % NFVARS].get(),
        FE::Bin(op, a, b) => {
            FExpr::Bin(*op, Box::new(lower_fe(a, ctx)), Box::new(lower_fe(b, ctx)))
        }
        FE::LoadIn(idx) => FExpr::LoadShared(ctx.in_addr(idx).into()),
        FE::LoadLocal(a) => FExpr::LoadLocal(IExpr::Const(*a as i64).into()),
        FE::FromI(i) => FExpr::FromI(Box::new(lower_ie(i, ctx))),
        FE::Sqrt(f) => FExpr::Sqrt(Box::new(lower_fe(f, ctx))),
    }
}

fn lower_cnd(c: &Cnd, ctx: &EmitCtx) -> mtsim_asm::Cond {
    mtsim_asm::Cond { lhs: lower_ie(&c.a, ctx), op: c.op, rhs: lower_ie(&c.b, ctx) }
}

fn emit_stmt(b: &mut ProgramBuilder, s: &Stmt, ctx: &EmitCtx) {
    match s {
        Stmt::AssignI(v, e) => {
            let e = lower_ie(e, ctx);
            b.assign(ctx.ivars[v % NIVARS], e);
        }
        Stmt::AssignF(v, e) => {
            let e = lower_fe(e, ctx);
            b.assign_f(ctx.fvars[v % NFVARS], e);
        }
        Stmt::StoreOut(slot, e) => {
            let (a, e) = (ctx.out_addr(*slot), lower_ie(e, ctx));
            b.store_shared(a, e);
        }
        Stmt::StoreOutF(slot, e) => {
            let (a, e) = (ctx.out_addr(*slot), lower_fe(e, ctx));
            b.store_shared_f(a, e);
        }
        Stmt::StoreLocal(a, e) => {
            let e = lower_ie(e, ctx);
            b.store_local(b.const_i(*a as i64), e);
        }
        Stmt::StoreLocalF(a, e) => {
            let e = lower_fe(e, ctx);
            b.store_local_f(b.const_i(*a as i64), e);
        }
        Stmt::FaaAcc(cell, e) => {
            let addr = b.const_i((ctx.acc_base + cell) as i64);
            let e = lower_ie(e, ctx);
            b.fetch_add_discard(addr, e, AccessHint::Data);
        }
        Stmt::If(c, then, els) => {
            let c = lower_cnd(c, ctx);
            if els.is_empty() {
                b.if_(c, |b| {
                    for s in then {
                        emit_stmt(b, s, ctx);
                    }
                });
            } else {
                b.if_else(
                    c,
                    |b| {
                        for s in then {
                            emit_stmt(b, s, ctx);
                        }
                    },
                    |b| {
                        for s in els {
                            emit_stmt(b, s, ctx);
                        }
                    },
                );
            }
        }
        Stmt::For(trips, body) => {
            b.for_range("gl", 0, *trips as i64, |b, _| {
                for s in body {
                    emit_stmt(b, s, ctx);
                }
            });
        }
        Stmt::Critical(cell, k) => {
            let lock = ctx.lock.expect("lock allocated for Critical");
            let addr = (ctx.cs_base + cell) as i64;
            b.scoped(|b| {
                let ticket = lock.emit_acquire(b);
                let v = b.def_i("_cs", b.load_shared(b.const_i(addr)));
                b.store_shared(b.const_i(addr), v.get() + *k);
                lock.emit_release(b, ticket);
            });
        }
        Stmt::Barrier => {
            let bar = ctx.barrier.expect("barrier allocated");
            b.scoped(|b| bar.emit_wait(b));
        }
    }
}

// ---------------------------------------------------------------------
// Random generation
// ---------------------------------------------------------------------

/// Generates one random test case from a seed. The same seed always
/// produces the same case.
pub fn generate(seed: u64) -> TestProgram {
    let mut rng = Rng::derive(seed, "check-gen");
    let nthreads = *pick(&mut rng, &[1usize, 2, 4, 6]);
    let in_words = *pick(&mut rng, &[8u64, 16]);
    let acc_cells = *pick(&mut rng, &[1u64, 2, 4]);
    let out_slots = *pick(&mut rng, &[1u64, 2, 4]);
    let local_words = *pick(&mut rng, &[4u64, 8]);
    let allow_lock = rng.chance(0.35);
    let allow_barrier = nthreads > 1 && rng.chance(0.35);

    let mut g = Gen { rng, acc_cells, out_slots, local_words, allow_lock };
    let n = g.rng.range_u64(3, 10) as usize;
    let mut stmts = Vec::with_capacity(n);
    for _ in 0..n {
        if allow_barrier && g.rng.chance(0.15) {
            stmts.push(Stmt::Barrier);
        } else {
            let s = g.stmt(0);
            stmts.push(s);
        }
    }
    TestProgram { nthreads, in_words, acc_cells, out_slots, local_words, input_seed: seed, stmts }
}

fn pick<'a, T>(rng: &mut Rng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

struct Gen {
    rng: Rng,
    acc_cells: u64,
    out_slots: u64,
    local_words: u64,
    allow_lock: bool,
}

impl Gen {
    fn stmt(&mut self, depth: usize) -> Stmt {
        let roll = self.rng.below(100);
        match roll {
            0..=24 => Stmt::AssignI(self.rng.below(NIVARS as u64) as usize, self.ie(2)),
            25..=34 => Stmt::AssignF(self.rng.below(NFVARS as u64) as usize, self.fe(2)),
            35..=49 => Stmt::StoreOut(self.rng.below(self.out_slots), self.ie(2)),
            50..=56 => Stmt::StoreOutF(self.rng.below(self.out_slots), self.fe(2)),
            57..=66 => Stmt::StoreLocal(self.rng.below(self.local_words), self.ie(2)),
            67..=71 => Stmt::StoreLocalF(self.rng.below(self.local_words), self.fe(1)),
            72..=81 => Stmt::FaaAcc(self.rng.below(self.acc_cells), self.ie(1)),
            82..=89 if depth < 2 => {
                let c = self.cnd();
                let then = self.block(depth + 1);
                let els = if self.rng.chance(0.4) { self.block(depth + 1) } else { Vec::new() };
                Stmt::If(c, then, els)
            }
            90..=95 if depth < 2 => {
                let trips = self.rng.range_u64(1, 5) as u8;
                Stmt::For(trips, self.block(depth + 1))
            }
            96..=99 if self.allow_lock => {
                Stmt::Critical(self.rng.below(self.acc_cells), self.rng.range_i64(1, 8))
            }
            _ => Stmt::AssignI(self.rng.below(NIVARS as u64) as usize, self.ie(2)),
        }
    }

    fn block(&mut self, depth: usize) -> Vec<Stmt> {
        let n = self.rng.range_u64(1, 4) as usize;
        (0..n).map(|_| self.stmt(depth)).collect()
    }

    fn cnd(&mut self) -> Cnd {
        let op = *pick(
            &mut self.rng,
            &[BCond::Eq, BCond::Ne, BCond::Lt, BCond::Le, BCond::Gt, BCond::Ge],
        );
        Cnd { op, a: self.ie(1), b: self.ie(1) }
    }

    fn ie(&mut self, depth: usize) -> IE {
        if depth == 0 {
            return match self.rng.below(7) {
                0 => IE::Const(self.rng.range_i64(-16, 17)),
                1 => IE::Tid,
                2 => IE::NThreads,
                3 => IE::Var(self.rng.below(NIVARS as u64) as usize),
                4 => IE::LoadOut(self.rng.below(self.out_slots)),
                5 => IE::LoadLocal(self.rng.below(self.local_words)),
                _ => IE::Const(self.rng.range_i64(0, 8)),
            };
        }
        match self.rng.below(12) {
            0..=4 => {
                let op = *pick(
                    &mut self.rng,
                    &[
                        AluOp::Add,
                        AluOp::Sub,
                        AluOp::Mul,
                        AluOp::Div,
                        AluOp::Rem,
                        AluOp::And,
                        AluOp::Or,
                        AluOp::Xor,
                        AluOp::Sll,
                        AluOp::Srl,
                        AluOp::Sra,
                        AluOp::Slt,
                        AluOp::Sle,
                        AluOp::Seq,
                        AluOp::Sne,
                    ],
                );
                IE::Bin(op, Box::new(self.ie(depth - 1)), Box::new(self.ie(depth - 1)))
            }
            5..=6 => IE::LoadIn(Box::new(self.ie(depth - 1))),
            7 => IE::FetchAddOut(self.rng.below(self.out_slots), self.rng.range_i64(1, 5)),
            8 => IE::FromF(Box::new(self.fe(depth - 1))),
            9 => {
                let op = *pick(&mut self.rng, &[CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne]);
                IE::CmpF(op, Box::new(self.fe(depth - 1)), Box::new(self.fe(depth - 1)))
            }
            _ => self.ie(0),
        }
    }

    fn fe(&mut self, depth: usize) -> FE {
        if depth == 0 {
            return match self.rng.below(4) {
                0 => FE::Const(self.rng.range_f64(-4.0, 4.0)),
                1 => FE::Var(self.rng.below(NFVARS as u64) as usize),
                2 => FE::LoadLocal(self.rng.below(self.local_words)),
                _ => FE::Const(1.5),
            };
        }
        match self.rng.below(8) {
            0..=3 => {
                let op = *pick(
                    &mut self.rng,
                    &[FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div, FpuOp::Min, FpuOp::Max],
                );
                FE::Bin(op, Box::new(self.fe(depth - 1)), Box::new(self.fe(depth - 1)))
            }
            4 => FE::LoadIn(Box::new(self.ie(depth - 1))),
            5 => FE::FromI(Box::new(self.ie(depth - 1))),
            6 => FE::Sqrt(Box::new(self.fe(depth - 1))),
            _ => self.fe(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a, b);
        let c = generate(43);
        assert_ne!(a, c, "different seeds should give different cases");
    }

    #[test]
    fn emitted_programs_are_well_formed() {
        for seed in 0..40 {
            let tp = generate(seed);
            let case = tp.emit();
            assert!(case.program.len() > 1, "seed {seed}: empty program");
            assert_eq!(
                case.program.switch_count(),
                0,
                "seed {seed}: generator must not emit Switch (grouping pass requirement)"
            );
        }
    }

    #[test]
    fn single_thread_retarget_keeps_body() {
        let tp = generate(7);
        let one = tp.with_nthreads(1);
        assert_eq!(one.stmts, tp.stmts);
        assert_eq!(one.nthreads, 1);
        assert!(one.regs_comparable());
    }
}
