//! Small instruction-class helpers shared by the optimizer passes.
//! Register sets are the ISA's 64-bit masks (`Inst::use_mask`,
//! `Inst::def_mask`).

use mtsim_isa::Inst;

/// True for register-only compute instructions: no memory access, no
/// control transfer, no scheduling side effects. These are the only
/// instructions the inter-block passes will duplicate or reorder across
/// iteration boundaries.
pub(crate) fn is_pure_alu(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Alu { .. }
            | Inst::AluI { .. }
            | Inst::Fpu { .. }
            | Inst::FpuCmp { .. }
            | Inst::FLi { .. }
            | Inst::CvtIF { .. }
            | Inst::CvtFI { .. }
            | Inst::MovIF { .. }
            | Inst::MovFI { .. }
            | Inst::FSqrt { .. }
            | Inst::Nop
    )
}

/// True for memory operations that behave like stores to shared memory
/// under the paper's pessimistic aliasing (footnote 1): stores and
/// fetch-and-adds. No pass ever moves a load across one of these.
pub(crate) fn is_shared_storelike(inst: &Inst) -> bool {
    inst.is_shared_write() || matches!(inst, Inst::FetchAdd { .. })
}
