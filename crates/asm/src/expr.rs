//! Expression trees consumed by the builder's code generator.
//!
//! Integer expressions ([`IExpr`]) and floating-point expressions
//! ([`FExpr`]) support the usual operators via `std::ops` overloads, plus
//! explicit loads from the two memory spaces and fetch-and-add, each at an
//! [`Addr`]. Conditions
//! ([`Cond`]) compare two integer expressions with a branch condition and
//! are consumed by `if_`/`while_`.

use mtsim_isa::{AccessHint, AluOp, BCond, CmpOp, FpuOp};

/// An integer expression tree (64-bit signed values).
#[derive(Debug, Clone, PartialEq)]
pub enum IExpr {
    /// Immediate constant.
    Const(i64),
    /// A builder variable (by table index).
    Var(usize),
    /// The thread id (ABI register `r1`).
    Tid,
    /// The total thread count (ABI register `r2`).
    NThreads,
    /// Binary ALU operation.
    Bin(AluOp, Box<IExpr>, Box<IExpr>),
    /// Load from local (private) memory at the given word address.
    LoadLocal(Addr),
    /// Load from shared memory at the given word address.
    LoadShared(Addr, AccessHint),
    /// Atomic fetch-and-add at a shared word address: yields the old value.
    FetchAdd(Addr, Box<IExpr>, AccessHint),
    /// Truncating conversion from a float expression.
    FromF(Box<FExpr>),
    /// Floating-point comparison yielding 0 or 1.
    CmpF(CmpOp, Box<FExpr>, Box<FExpr>),
}

/// A floating-point expression tree (`f64` values).
#[derive(Debug, Clone, PartialEq)]
pub enum FExpr {
    /// Immediate constant.
    Const(f64),
    /// A builder FP variable (by table index).
    Var(usize),
    /// Binary FP operation.
    Bin(FpuOp, Box<FExpr>, Box<FExpr>),
    /// Load from local memory.
    LoadLocal(Addr),
    /// Load from shared memory.
    LoadShared(Addr),
    /// Conversion from an integer expression.
    FromI(Box<IExpr>),
    /// Square root.
    Sqrt(Box<FExpr>),
}

/// A word address, `base + offset`: the address expression with its
/// constant part folded into the offset field when the expression is
/// built, the way a load or store instruction encodes it. A constant
/// address holds no heap node.
#[derive(Debug, Clone, PartialEq)]
pub struct Addr {
    /// The register part; `None` for a constant address (base `r0`).
    base: Option<Box<IExpr>>,
    offset: i64,
}

impl Addr {
    /// The register part of the address and its constant offset.
    pub(crate) fn parts(&self) -> (Option<&IExpr>, i64) {
        (self.base.as_deref(), self.offset)
    }
}

impl From<IExpr> for Addr {
    /// Folds a constant address, or a trailing constant of a sum or
    /// difference, into the offset.
    fn from(e: IExpr) -> Addr {
        let (base, offset) = match e {
            IExpr::Const(v) => (None, v),
            IExpr::Bin(AluOp::Add, a, b) => {
                if let IExpr::Const(k) = *b {
                    (Some(a), k)
                } else if let IExpr::Const(k) = *a {
                    (Some(b), k)
                } else {
                    (Some(Box::new(IExpr::Bin(AluOp::Add, a, b))), 0)
                }
            }
            IExpr::Bin(AluOp::Sub, a, b) => {
                if let IExpr::Const(k) = *b {
                    (Some(a), -k)
                } else {
                    (Some(Box::new(IExpr::Bin(AluOp::Sub, a, b))), 0)
                }
            }
            e => (Some(Box::new(e)), 0),
        };
        Addr { base, offset }
    }
}

/// A branch condition: `lhs op rhs` over integer expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: IExpr,
    /// Comparison.
    pub op: BCond,
    /// Right-hand side.
    pub rhs: IExpr,
}

impl Cond {
    /// The negated condition (used to branch around `if` bodies).
    pub fn negate(self) -> Cond {
        let op = match self.op {
            BCond::Eq => BCond::Ne,
            BCond::Ne => BCond::Eq,
            BCond::Lt => BCond::Ge,
            BCond::Le => BCond::Gt,
            BCond::Gt => BCond::Le,
            BCond::Ge => BCond::Lt,
        };
        Cond { lhs: self.lhs, op, rhs: self.rhs }
    }
}

impl From<i64> for IExpr {
    fn from(v: i64) -> IExpr {
        IExpr::Const(v)
    }
}

impl From<f64> for FExpr {
    fn from(v: f64) -> FExpr {
        FExpr::Const(v)
    }
}

macro_rules! ibin {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<IExpr>> std::ops::$trait<R> for IExpr {
            type Output = IExpr;
            fn $method(self, rhs: R) -> IExpr {
                IExpr::Bin($op, Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

ibin!(Add, add, AluOp::Add);
ibin!(Sub, sub, AluOp::Sub);
ibin!(Mul, mul, AluOp::Mul);
ibin!(Div, div, AluOp::Div);
ibin!(Rem, rem, AluOp::Rem);
ibin!(BitAnd, bitand, AluOp::And);
ibin!(BitOr, bitor, AluOp::Or);
ibin!(BitXor, bitxor, AluOp::Xor);
ibin!(Shl, shl, AluOp::Sll);
ibin!(Shr, shr, AluOp::Srl);

macro_rules! fbin {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<FExpr>> std::ops::$trait<R> for FExpr {
            type Output = FExpr;
            fn $method(self, rhs: R) -> FExpr {
                FExpr::Bin($op, Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

fbin!(Add, add, FpuOp::Add);
fbin!(Sub, sub, FpuOp::Sub);
fbin!(Mul, mul, FpuOp::Mul);
fbin!(Div, div, FpuOp::Div);

macro_rules! icmp {
    ($method:ident, $op:expr) => {
        /// Builds a [`Cond`] comparing `self` with `rhs`.
        pub fn $method(self, rhs: impl Into<IExpr>) -> Cond {
            Cond { lhs: self, op: $op, rhs: rhs.into() }
        }
    };
}

impl IExpr {
    icmp!(eq, BCond::Eq);
    icmp!(ne, BCond::Ne);
    icmp!(lt, BCond::Lt);
    icmp!(le, BCond::Le);
    icmp!(gt, BCond::Gt);
    icmp!(ge, BCond::Ge);

    /// Truncating conversion to float.
    pub fn to_f(self) -> FExpr {
        FExpr::FromI(Box::new(self))
    }

    /// `Slt`-style materialized comparison: `(self < rhs) as i64`.
    pub fn lt_val(self, rhs: impl Into<IExpr>) -> IExpr {
        IExpr::Bin(AluOp::Slt, Box::new(self), Box::new(rhs.into()))
    }
}

macro_rules! fcmp {
    ($method:ident, $op:expr) => {
        /// Builds a [`Cond`] that is true when the FP comparison holds.
        pub fn $method(self, rhs: impl Into<FExpr>) -> Cond {
            IExpr::CmpF($op, Box::new(self), Box::new(rhs.into())).ne(0)
        }
    };
}

impl FExpr {
    fcmp!(flt, CmpOp::Lt);
    fcmp!(fle, CmpOp::Le);
    fcmp!(feq, CmpOp::Eq);
    fcmp!(fne, CmpOp::Ne);

    /// Truncating conversion to integer.
    pub fn to_i(self) -> IExpr {
        IExpr::FromF(Box::new(self))
    }

    /// Square root.
    pub fn sqrt(self) -> FExpr {
        FExpr::Sqrt(Box::new(self))
    }

    /// Element-wise minimum.
    pub fn min(self, rhs: impl Into<FExpr>) -> FExpr {
        FExpr::Bin(FpuOp::Min, Box::new(self), Box::new(rhs.into()))
    }

    /// Element-wise maximum.
    pub fn max(self, rhs: impl Into<FExpr>) -> FExpr {
        FExpr::Bin(FpuOp::Max, Box::new(self), Box::new(rhs.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_build_trees() {
        let e = (IExpr::Const(1) + 2) * 3;
        match e {
            IExpr::Bin(AluOp::Mul, lhs, _) => match *lhs {
                IExpr::Bin(AluOp::Add, ..) => {}
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cond_negation_roundtrip() {
        for op in [BCond::Eq, BCond::Ne, BCond::Lt, BCond::Le, BCond::Gt, BCond::Ge] {
            let c = Cond { lhs: IExpr::Const(0), op, rhs: IExpr::Const(1) };
            assert_eq!(c.clone().negate().negate(), c);
        }
    }

    #[test]
    fn float_comparison_lowers_to_int_cond() {
        let c = FExpr::Const(1.0).flt(2.0);
        assert_eq!(c.op, BCond::Ne);
        assert!(matches!(c.lhs, IExpr::CmpF(CmpOp::Lt, ..)));
        assert_eq!(c.rhs, IExpr::Const(0));
    }

    #[test]
    fn conversions() {
        assert!(matches!(IExpr::Const(1).to_f(), FExpr::FromI(_)));
        assert!(matches!(FExpr::Const(1.0).to_i(), IExpr::FromF(_)));
    }
}
