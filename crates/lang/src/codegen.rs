//! Type checking and code generation through `mtsim-asm`'s builder.

use crate::ast::{BinOp, Expr, Item, LValue, Stmt, Ty};
use crate::parser::Unit;
use crate::{CompileError, MAX_LOCAL_WORDS, MAX_SHARED_WORDS};
use mtsim_asm::{FExpr, IExpr, Program, ProgramBuilder, SharedLayout};
use mtsim_isa::{AccessHint, AluOp, CmpOp};
use mtsim_rt::{Barrier, TicketLock};
use std::collections::HashMap;

/// The output of a successful compile: a runnable program plus the layout
/// of its shared declarations (for host-side initialization and result
/// inspection via [`SharedLayout::base`]).
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The compiled (ungrouped) program; run it through
    /// `mtsim_opt::group_shared_loads` for the explicit-switch models.
    pub program: Program,
    /// Shared-memory layout: one named region per `shared` declaration.
    pub layout: SharedLayout,
}

impl CompiledUnit {
    /// Words of shared memory the program needs.
    pub fn shared_words(&self) -> u64 {
        self.layout.size().max(1)
    }
}

#[derive(Debug, Clone)]
enum Sym {
    SharedScalar { ty: Ty, addr: i64 },
    SharedArray { ty: Ty, addr: i64, len: u64 },
    VarInt(mtsim_asm::IVar),
    VarFloat(mtsim_asm::FVar),
    LocalArray { ty: Ty, base: i64, len: u64 },
    Lock { lock: TicketLock, ticket_slot: i64 },
    Bar(Barrier),
}

enum TV {
    I(IExpr),
    F(FExpr),
}

impl TV {
    fn ty(&self) -> Ty {
        match self {
            TV::I(_) => Ty::Int,
            TV::F(_) => Ty::Float,
        }
    }
}

fn err(line: usize, col: usize, message: impl Into<String>) -> CompileError {
    CompileError { line, col, message: message.into() }
}

/// Refuses `words` more words of `what` memory when they would take
/// `total` past `cap`.
fn reserve(
    total: u64,
    words: u64,
    cap: u64,
    what: &str,
    line: usize,
    col: usize,
) -> Result<(), CompileError> {
    match total.checked_add(words) {
        Some(n) if n <= cap => Ok(()),
        _ => Err(err(line, col, format!("{what} memory would exceed the cap of {cap} words"))),
    }
}

struct Cg {
    scopes: Vec<HashMap<String, Sym>>,
}

impl Cg {
    fn lookup(&self, name: &str) -> Option<&Sym> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn declare(
        &mut self,
        name: &str,
        sym: Sym,
        line: usize,
        col: usize,
    ) -> Result<(), CompileError> {
        let scope = self.scopes.last_mut().expect("scope");
        if scope.contains_key(name) {
            return Err(err(line, col, format!("'{name}' is already declared in this scope")));
        }
        scope.insert(name.to_string(), sym);
        Ok(())
    }
}

/// Generates the program for a parsed unit.
pub(crate) fn generate(
    name: &str,
    unit: &Unit,
    nthreads: i64,
) -> Result<CompiledUnit, CompileError> {
    let mut layout = SharedLayout::new();
    let mut b = ProgramBuilder::new(name);
    let mut cg = Cg { scopes: vec![HashMap::new()] };

    let mut main_body: Option<&[Stmt]> = None;
    for item in &unit.items {
        match item {
            Item::Shared { ty, name, len, line, col } => {
                let words = len.unwrap_or(1);
                if words == 0 {
                    return Err(err(*line, *col, "zero-length shared array"));
                }
                reserve(layout.size(), words, MAX_SHARED_WORDS, "shared", *line, *col)?;
                let addr = layout.alloc(name.clone(), words) as i64;
                let sym = match len {
                    Some(n) => Sym::SharedArray { ty: *ty, addr, len: *n },
                    None => Sym::SharedScalar { ty: *ty, addr },
                };
                cg.declare(name, sym, *line, *col)?;
            }
            Item::Lock { name, line, col } => {
                let lock = TicketLock::alloc(&mut layout, name);
                let ticket_slot = b.local_alloc(1);
                cg.declare(name, Sym::Lock { lock, ticket_slot }, *line, *col)?;
            }
            Item::Barrier { name, line, col } => {
                let bar = Barrier::alloc(&mut layout, name, nthreads);
                cg.declare(name, Sym::Bar(bar), *line, *col)?;
            }
            Item::Main { body } => main_body = Some(body),
        }
    }

    let body = main_body.expect("parser guarantees main");
    gen_block(&mut cg, &mut b, body)?;

    Ok(CompiledUnit { program: b.finish(), layout })
}

fn gen_block(cg: &mut Cg, b: &mut ProgramBuilder, stmts: &[Stmt]) -> Result<(), CompileError> {
    cg.scopes.push(HashMap::new());
    let mut result = Ok(());
    for s in stmts {
        result = gen_stmt(cg, b, s);
        if result.is_err() {
            break;
        }
    }
    cg.scopes.pop();
    result
}

fn gen_stmt(cg: &mut Cg, b: &mut ProgramBuilder, stmt: &Stmt) -> Result<(), CompileError> {
    match stmt {
        Stmt::Decl { ty, name, init, line, col } => {
            let v = gen_expr(cg, b, init)?;
            if v.ty() != *ty {
                return Err(err(
                    *line,
                    *col,
                    format!("initializer of '{name}' has type {}, expected {ty}", v.ty()),
                ));
            }
            let sym = match v {
                TV::I(e) => Sym::VarInt(b.def_i(name, e)),
                TV::F(e) => Sym::VarFloat(b.def_f(name, e)),
            };
            cg.declare(name, sym, *line, *col)
        }
        Stmt::LocalArray { ty, name, len, line, col } => {
            if *len == 0 {
                return Err(err(*line, *col, "zero-length local array"));
            }
            reserve(b.local_words(), *len, MAX_LOCAL_WORDS, "local", *line, *col)?;
            let base = b.local_alloc(*len);
            cg.declare(name, Sym::LocalArray { ty: *ty, base, len: *len }, *line, *col)
        }
        Stmt::Assign { lv, value } => {
            let v = gen_expr(cg, b, value)?;
            gen_store(cg, b, lv, v)
        }
        Stmt::FaaStmt { lv, amount, line, col } => {
            let addr = faa_addr(cg, b, lv)?;
            let amt = gen_expr(cg, b, amount)?;
            let TV::I(amt) = amt else {
                return Err(err(*line, *col, "faa amount must be int"));
            };
            b.fetch_add_discard(addr, amt, AccessHint::Data);
            Ok(())
        }
        Stmt::If { cond, then, otherwise } => {
            let c = gen_cond(cg, b, cond)?;
            let mut res = Ok(());
            if otherwise.is_empty() {
                b.if_(c, |b| res = gen_block(cg, b, then));
                res
            } else {
                // Emit the arms sequentially (both closures need `cg`).
                let else_l = b.fresh_label();
                let end = b.fresh_label();
                b.branch_unless(c, else_l);
                b.scoped(|b| res = gen_block(cg, b, then));
                b.jump(end);
                b.place_label(else_l);
                let mut res2 = Ok(());
                b.scoped(|b| res2 = gen_block(cg, b, otherwise));
                b.place_label(end);
                res.and(res2)
            }
        }
        Stmt::While { cond, body } => {
            let c = gen_cond(cg, b, cond)?;
            let mut res = Ok(());
            b.while_(c, |b| res = gen_block(cg, b, body));
            res
        }
        Stmt::BarrierWait { name, line, col } => match cg.lookup(name).cloned() {
            Some(Sym::Bar(bar)) => {
                bar.emit_wait(b);
                Ok(())
            }
            _ => Err(err(*line, *col, format!("'{name}' is not a barrier"))),
        },
        Stmt::Acquire { name, line, col } => match cg.lookup(name).cloned() {
            Some(Sym::Lock { lock, ticket_slot }) => {
                b.scoped(|b| {
                    let ticket = lock.emit_acquire(b);
                    b.store_local(b.const_i(ticket_slot), ticket.get());
                });
                Ok(())
            }
            _ => Err(err(*line, *col, format!("'{name}' is not a lock"))),
        },
        Stmt::Release { name, line, col } => match cg.lookup(name).cloned() {
            Some(Sym::Lock { lock, ticket_slot }) => {
                let ticket = b.load_local(ticket_slot);
                b.store_shared(b.const_i(lock.serving_addr()), ticket + 1);
                b.set_priority(0);
                Ok(())
            }
            _ => Err(err(*line, *col, format!("'{name}' is not a lock"))),
        },
        Stmt::Block(stmts) => {
            let mut res = Ok(());
            b.scoped(|b| res = gen_block(cg, b, stmts));
            res
        }
    }
}

/// Address expression for an int shared lvalue (faa target).
fn faa_addr(cg: &mut Cg, b: &mut ProgramBuilder, lv: &LValue) -> Result<IExpr, CompileError> {
    match lv {
        LValue::Name(name, line, col) => match cg.lookup(name) {
            Some(Sym::SharedScalar { ty: Ty::Int, addr }) => Ok(IExpr::Const(*addr)),
            Some(_) => Err(err(*line, *col, format!("faa target '{name}' must be a shared int"))),
            None => Err(err(*line, *col, format!("unknown name '{name}'"))),
        },
        LValue::Index(name, idx, line, col) => {
            let sym = cg
                .lookup(name)
                .cloned()
                .ok_or_else(|| err(*line, *col, format!("unknown name '{name}'")))?;
            match sym {
                Sym::SharedArray { ty: Ty::Int, addr, len } => {
                    check_bounds(idx, len, name)?;
                    let i = gen_expr(cg, b, idx)?;
                    let TV::I(i) = i else {
                        return Err(err(*line, *col, "array index must be int"));
                    };
                    Ok(i + addr)
                }
                _ => {
                    Err(err(*line, *col, format!("faa target '{name}' must be a shared int array")))
                }
            }
        }
    }
}

fn gen_store(cg: &mut Cg, b: &mut ProgramBuilder, lv: &LValue, v: TV) -> Result<(), CompileError> {
    match lv {
        LValue::Name(name, line, col) => {
            let sym = cg
                .lookup(name)
                .cloned()
                .ok_or_else(|| err(*line, *col, format!("unknown name '{name}'")))?;
            match (sym, v) {
                (Sym::VarInt(var), TV::I(e)) => {
                    b.assign(var, e);
                    Ok(())
                }
                (Sym::VarFloat(var), TV::F(e)) => {
                    b.assign_f(var, e);
                    Ok(())
                }
                (Sym::SharedScalar { ty: Ty::Int, addr }, TV::I(e)) => {
                    b.store_shared(b.const_i(addr), e);
                    Ok(())
                }
                (Sym::SharedScalar { ty: Ty::Float, addr }, TV::F(e)) => {
                    b.store_shared_f(b.const_i(addr), e);
                    Ok(())
                }
                (Sym::SharedScalar { ty, .. }, got) => Err(err(
                    *line,
                    *col,
                    format!("cannot assign {} to shared {ty} '{name}'", got.ty()),
                )),
                (Sym::VarInt(_), got) | (Sym::VarFloat(_), got) => Err(err(
                    *line,
                    *col,
                    format!("type mismatch assigning {} to '{name}'", got.ty()),
                )),
                _ => Err(err(*line, *col, format!("'{name}' is not assignable"))),
            }
        }
        LValue::Index(name, idx, line, col) => {
            let sym = cg
                .lookup(name)
                .cloned()
                .ok_or_else(|| err(*line, *col, format!("unknown name '{name}'")))?;
            let i = gen_expr(cg, b, idx)?;
            let TV::I(i) = i else {
                return Err(err(*line, *col, "array index must be int"));
            };
            match (sym, v) {
                (Sym::SharedArray { ty: Ty::Int, addr, len }, TV::I(e)) => {
                    check_bounds(idx, len, name)?;
                    b.store_shared(i + addr, e);
                    Ok(())
                }
                (Sym::SharedArray { ty: Ty::Float, addr, len }, TV::F(e)) => {
                    check_bounds(idx, len, name)?;
                    b.store_shared_f(i + addr, e);
                    Ok(())
                }
                (Sym::LocalArray { ty: Ty::Int, base, len }, TV::I(e)) => {
                    check_bounds(idx, len, name)?;
                    b.store_local(i + base, e);
                    Ok(())
                }
                (Sym::LocalArray { ty: Ty::Float, base, len }, TV::F(e)) => {
                    check_bounds(idx, len, name)?;
                    b.store_local_f(i + base, e);
                    Ok(())
                }
                (Sym::SharedArray { ty, .. }, got) | (Sym::LocalArray { ty, .. }, got) => Err(err(
                    *line,
                    *col,
                    format!("cannot store {} into {ty} array '{name}'", got.ty()),
                )),
                _ => Err(err(*line, *col, format!("'{name}' is not an array"))),
            }
        }
    }
}

/// Lowers a condition, branching directly on top-level comparisons.
fn gen_cond(
    cg: &mut Cg,
    b: &mut ProgramBuilder,
    e: &Expr,
) -> Result<mtsim_asm::Cond, CompileError> {
    if let Expr::Bin { op, lhs, rhs, line, col } = e {
        if let Some(direct) = cmp_cond(op) {
            let l = gen_expr(cg, b, lhs)?;
            let r = gen_expr(cg, b, rhs)?;
            return match (l, r) {
                (TV::I(l), TV::I(r)) => Ok(match direct {
                    BinOp::Eq => l.eq(r),
                    BinOp::Ne => l.ne(r),
                    BinOp::Lt => l.lt(r),
                    BinOp::Le => l.le(r),
                    BinOp::Gt => l.gt(r),
                    _ => l.ge(r),
                }),
                (TV::F(l), TV::F(r)) => Ok(match direct {
                    BinOp::Eq => l.feq(r),
                    BinOp::Ne => l.fne(r),
                    BinOp::Lt => l.flt(r),
                    BinOp::Le => l.fle(r),
                    BinOp::Gt => r.flt(l),
                    _ => r.fle(l),
                }),
                _ => Err(err(*line, *col, "comparison operands must have the same type")),
            };
        }
    }
    let v = gen_expr(cg, b, e)?;
    let (line, col) = e.pos();
    match v {
        TV::I(i) => Ok(i.ne(0)),
        TV::F(_) => Err(err(line, col, "condition must be int (use a comparison)")),
    }
}

fn cmp_cond(op: &BinOp) -> Option<BinOp> {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
        .then_some(*op)
}

/// Compile-time bounds check for constant indices.
fn check_bounds(idx: &Expr, len: u64, name: &str) -> Result<(), CompileError> {
    if let Expr::IntLit(v, line, col) = idx {
        if *v < 0 || *v as u64 >= len {
            return Err(err(
                *line,
                *col,
                format!("index {v} out of bounds for '{name}' (length {len})"),
            ));
        }
    }
    Ok(())
}

fn gen_expr(cg: &mut Cg, b: &mut ProgramBuilder, e: &Expr) -> Result<TV, CompileError> {
    match e {
        Expr::IntLit(v, ..) => Ok(TV::I(IExpr::Const(*v))),
        Expr::FloatLit(v, ..) => Ok(TV::F(FExpr::Const(*v))),
        Expr::Tid(..) => Ok(TV::I(b.tid())),
        Expr::Nthreads(..) => Ok(TV::I(b.nthreads())),
        Expr::Name(name, line, col) => match cg.lookup(name) {
            Some(Sym::VarInt(v)) => Ok(TV::I(v.get())),
            Some(Sym::VarFloat(v)) => Ok(TV::F(v.get())),
            Some(Sym::SharedScalar { ty: Ty::Int, addr }) => Ok(TV::I(b.load_shared(*addr))),
            Some(Sym::SharedScalar { ty: Ty::Float, addr }) => Ok(TV::F(b.load_shared_f(*addr))),
            Some(_) => Err(err(*line, *col, format!("'{name}' is not a scalar value"))),
            None => Err(err(*line, *col, format!("unknown name '{name}'"))),
        },
        Expr::Index(name, idx, line, col) => {
            let sym = cg
                .lookup(name)
                .cloned()
                .ok_or_else(|| err(*line, *col, format!("unknown name '{name}'")))?;
            let i = gen_expr(cg, b, idx)?;
            let TV::I(i) = i else {
                return Err(err(*line, *col, "array index must be int"));
            };
            match sym {
                Sym::SharedArray { ty: Ty::Int, addr, len } => {
                    check_bounds(idx, len, name)?;
                    Ok(TV::I(b.load_shared(i + addr)))
                }
                Sym::SharedArray { ty: Ty::Float, addr, len } => {
                    check_bounds(idx, len, name)?;
                    Ok(TV::F(b.load_shared_f(i + addr)))
                }
                Sym::LocalArray { ty: Ty::Int, base, len } => {
                    check_bounds(idx, len, name)?;
                    Ok(TV::I(b.load_local(i + base)))
                }
                Sym::LocalArray { ty: Ty::Float, base, len } => {
                    check_bounds(idx, len, name)?;
                    Ok(TV::F(b.load_local_f(i + base)))
                }
                _ => Err(err(*line, *col, format!("'{name}' is not an array"))),
            }
        }
        Expr::Neg(inner, ..) => {
            let v = gen_expr(cg, b, inner)?;
            Ok(match v {
                TV::I(e) => TV::I(IExpr::Const(0) - e),
                TV::F(e) => TV::F(FExpr::Const(0.0) - e),
            })
        }
        Expr::Bin { op, lhs, rhs, line, col } => {
            let l = gen_expr(cg, b, lhs)?;
            let r = gen_expr(cg, b, rhs)?;
            gen_bin(*op, l, r, *line, *col)
        }
        Expr::Faa { lv, amount, line, col } => {
            let addr = faa_addr(cg, b, lv)?;
            let a = gen_expr(cg, b, amount)?;
            let TV::I(a) = a else {
                return Err(err(*line, *col, "faa amount must be int"));
            };
            Ok(TV::I(b.fetch_add(addr, a)))
        }
        Expr::Sqrt(inner, line, col) => {
            let v = gen_expr(cg, b, inner)?;
            match v {
                TV::F(e) => Ok(TV::F(e.sqrt())),
                TV::I(_) => Err(err(*line, *col, "sqrt takes a float")),
            }
        }
        Expr::MinMax { is_min, a, b: rhs, line, col } => {
            let av = gen_expr(cg, b, a)?;
            let bv = gen_expr(cg, b, rhs)?;
            match (av, bv) {
                (TV::F(x), TV::F(y)) => Ok(TV::F(if *is_min { x.min(y) } else { x.max(y) })),
                _ => Err(err(*line, *col, "min/max take floats")),
            }
        }
        Expr::ToFloat(inner, line, col) => {
            let v = gen_expr(cg, b, inner)?;
            match v {
                TV::I(e) => Ok(TV::F(e.to_f())),
                TV::F(_) => Err(err(*line, *col, "float() takes an int")),
            }
        }
        Expr::ToInt(inner, line, col) => {
            let v = gen_expr(cg, b, inner)?;
            match v {
                TV::F(e) => Ok(TV::I(e.to_i())),
                TV::I(_) => Err(err(*line, *col, "int() takes a float")),
            }
        }
    }
}

fn gen_bin(op: BinOp, l: TV, r: TV, line: usize, col: usize) -> Result<TV, CompileError> {
    match (l, r) {
        (TV::I(l), TV::I(r)) => {
            let e = match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
                BinOp::Rem => l % r,
                BinOp::And => l & r,
                BinOp::Shl => l << r,
                BinOp::Shr => l >> r,
                BinOp::Eq => IExpr::Bin(AluOp::Seq, Box::new(l), Box::new(r)),
                BinOp::Ne => IExpr::Bin(AluOp::Sne, Box::new(l), Box::new(r)),
                BinOp::Lt => IExpr::Bin(AluOp::Slt, Box::new(l), Box::new(r)),
                BinOp::Le => IExpr::Bin(AluOp::Sle, Box::new(l), Box::new(r)),
                BinOp::Gt => IExpr::Bin(AluOp::Slt, Box::new(r), Box::new(l)),
                BinOp::Ge => IExpr::Bin(AluOp::Sle, Box::new(r), Box::new(l)),
            };
            Ok(TV::I(e))
        }
        (TV::F(l), TV::F(r)) => {
            let e = match op {
                BinOp::Add => return Ok(TV::F(l + r)),
                BinOp::Sub => return Ok(TV::F(l - r)),
                BinOp::Mul => return Ok(TV::F(l * r)),
                BinOp::Div => return Ok(TV::F(l / r)),
                BinOp::Eq => IExpr::CmpF(CmpOp::Eq, Box::new(l), Box::new(r)),
                BinOp::Ne => IExpr::CmpF(CmpOp::Ne, Box::new(l), Box::new(r)),
                BinOp::Lt => IExpr::CmpF(CmpOp::Lt, Box::new(l), Box::new(r)),
                BinOp::Le => IExpr::CmpF(CmpOp::Le, Box::new(l), Box::new(r)),
                BinOp::Gt => IExpr::CmpF(CmpOp::Lt, Box::new(r), Box::new(l)),
                BinOp::Ge => IExpr::CmpF(CmpOp::Le, Box::new(r), Box::new(l)),
                _ => {
                    return Err(err(line, col, format!("operator {op:?} is not defined for float")))
                }
            };
            Ok(TV::I(e))
        }
        (l, r) => Err(err(
            line,
            col,
            format!("operand types differ: {} vs {} (convert explicitly)", l.ty(), r.ty()),
        )),
    }
}
