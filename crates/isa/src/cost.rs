//! Per-instruction cycle costs.
//!
//! The paper uses "the instruction set and timings of the MIPS R3000". The
//! table below follows the R3000/R3010 latencies for the operations the
//! applications use. These are *occupancy* costs charged to the issuing
//! processor; the network round-trip latency of shared accesses is modeled
//! separately by the engine (`mtsim-core`) and is **not** part of these
//! numbers.

use crate::{AluOp, FpuOp, Inst};

/// Cycles for an integer multiply (R3000 `mult`).
pub const MUL_CYCLES: u32 = 12;
/// Cycles for an integer divide/remainder (R3000 `div`).
pub const DIV_CYCLES: u32 = 35;
/// Cycles for FP add/sub/min/max/compare/convert (R3010 double precision).
pub const FP_ADD_CYCLES: u32 = 2;
/// Cycles for FP multiply.
pub const FP_MUL_CYCLES: u32 = 5;
/// Cycles for FP divide.
pub const FP_DIV_CYCLES: u32 = 19;
/// Cycles for FP square root (software-assisted).
pub const FP_SQRT_CYCLES: u32 = 30;

/// Occupancy cost in cycles of one instruction.
///
/// Loads, stores, branches, `Switch`, `FetchAdd` and simple ALU operations
/// all occupy the pipeline for a single cycle; the long-latency arithmetic
/// units use the constants above.
pub fn cycles(inst: &Inst) -> u32 {
    match inst {
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => alu_cycles(*op),
        Inst::Fpu { op, .. } => fpu_cycles(*op),
        Inst::FpuCmp { .. } | Inst::CvtIF { .. } | Inst::CvtFI { .. } => FP_ADD_CYCLES,
        Inst::FSqrt { .. } => FP_SQRT_CYCLES,
        _ => 1,
    }
}

/// Occupancy cost of an integer ALU operation (either operand form).
#[inline]
pub fn alu_cycles(op: AluOp) -> u32 {
    match op {
        AluOp::Mul => MUL_CYCLES,
        AluOp::Div | AluOp::Rem => DIV_CYCLES,
        _ => 1,
    }
}

/// Occupancy cost of an FP arithmetic operation.
#[inline]
pub fn fpu_cycles(op: FpuOp) -> u32 {
    match op {
        FpuOp::Add | FpuOp::Sub | FpuOp::Min | FpuOp::Max => FP_ADD_CYCLES,
        FpuOp::Mul => FP_MUL_CYCLES,
        FpuOp::Div => FP_DIV_CYCLES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FReg, Reg};

    #[test]
    fn simple_ops_are_one_cycle() {
        let i = Inst::AluI { op: AluOp::Add, rd: Reg::R8, rs: Reg::ZERO, imm: 1 };
        assert_eq!(cycles(&i), 1);
        assert_eq!(cycles(&Inst::Switch), 1);
        assert_eq!(cycles(&Inst::Nop), 1);
        assert_eq!(cycles(&Inst::Halt), 1);
    }

    #[test]
    fn long_latency_ops() {
        let mul = Inst::Alu { op: AluOp::Mul, rd: Reg::R8, rs: Reg::R8, rt: Reg::R8 };
        assert_eq!(cycles(&mul), MUL_CYCLES);
        let div = Inst::AluI { op: AluOp::Div, rd: Reg::R8, rs: Reg::R8, imm: 3 };
        assert_eq!(cycles(&div), DIV_CYCLES);
        let f = FReg::F0;
        assert_eq!(cycles(&Inst::Fpu { op: FpuOp::Mul, fd: f, fs: f, ft: f }), FP_MUL_CYCLES);
        assert_eq!(cycles(&Inst::Fpu { op: FpuOp::Div, fd: f, fs: f, ft: f }), FP_DIV_CYCLES);
        assert_eq!(cycles(&Inst::Fpu { op: FpuOp::Add, fd: f, fs: f, ft: f }), FP_ADD_CYCLES);
    }
}
