//! Loop-aware software pipelining (DESIGN.md §21).
//!
//! Rotates simple counted loops so that the *next* iteration's shared
//! loads are issued before the back-edge switch, giving them a whole loop
//! body of latency tolerance instead of arriving just-in-time:
//!
//! ```text
//! original                    pipelined
//!   H:  test; exit -> E         G:   test; exit -> E      (zero-trip guard)
//!   B:  S; LD; Y; inc;          P0:  S(0); LD'(0)         (prologue issue)
//!       jump H                  T:   D <- D'; X; test; exit -> EPI
//!                               T2:  S(k+1); LD'(k+1); Y(k); jump T
//!                               EPI: Y(last); zero scratch; jump E
//! ```
//!
//! where `LD` are independent blocking shared loads, `S` their pure-ALU
//! address slices, `X` the pure-ALU backward closure feeding the loop test
//! and the slices (the induction update), and `Y` everything else. The
//! loads are redirected at fresh *shadow* registers `D'` and copied into
//! their architectural destinations at the top of the next iteration, so
//! iteration `k`'s consumers still read iteration `k`'s values while
//! iteration `k+1`'s loads are already in flight. After the (later)
//! intra-block grouping pass closes `T2` with a switch, the switch covers
//! `Y` *plus* the network round trip instead of sitting between issue and
//! use.
//!
//! ## Legality (all checked, loop skipped otherwise)
//!
//! The engine's differential oracle compares **full register files**, so
//! the rotation must be exact, not merely observably equivalent:
//!
//! * the loop is two blocks `{H, B}`: pure-ALU header ending in the exit
//!   branch, single body block whose only predecessor is `H`, back edge a
//!   plain jump (this shape is what `for_range` emits; spin loops fail the
//!   pure-ALU header test);
//! * `LD` are plain blocking data loads whose DAG ancestors are all
//!   pure-ALU and whose destinations are written exactly once per
//!   iteration; fetch-and-adds and spin/barrier accesses disqualify;
//! * `X` must be pure ALU; `Y` must contain no shared stores or
//!   fetch-and-adds (pessimistic aliasing — a store in `Y` could feed the
//!   early loads) and no spin/barrier accesses;
//! * `X`, `Y`, the slices, the loop test, and the load bases are pairwise
//!   register-independent exactly as far as the rotation reorders them
//!   (checked with use/def masks; DAG ancestry already orders everything
//!   that feeds a load before it);
//! * enough never-used registers exist to shadow every load destination
//!   (plus one integer bounce register for FP copies, which round-trip
//!   through `MovFI`/`MovIF` to stay bit-exact); shadows are zeroed in the
//!   epilogue so the final register file matches the unrotated program's.

use crate::cfg::Cfg;
use crate::dag::Dag;
use crate::regs::{is_pure_alu, is_shared_storelike};
use mtsim_asm::Program;
use mtsim_isa::{AccessHint, AluOp, FReg, Inst, Pc, Reg, Space, Target};

/// Outcome of [`pipeline_loops`].
pub struct PipelineResult {
    /// The rewritten program (identical to the input when nothing matched).
    pub program: Program,
    /// Shared loads now issued one iteration ahead.
    pub pipelined_loads: usize,
    /// Loops rotated.
    pub pipelined_loops: usize,
}

/// True for loads this pass will issue a full iteration early.
fn is_pipelinable_load(inst: &Inst) -> bool {
    match inst {
        Inst::Load { space: Space::Shared, rd, hint: AccessHint::Data, .. } => !rd.is_zero(),
        Inst::FLoad { space: Space::Shared, .. } => true,
        _ => false,
    }
}

/// True for accesses that participate in spin/barrier synchronization:
/// reordering across them would break acquire ordering.
fn is_sync_hinted(inst: &Inst) -> bool {
    match inst {
        Inst::Load { hint, .. } | Inst::Store { hint, .. } | Inst::FetchAdd { hint, .. } => {
            !matches!(hint, AccessHint::Data)
        }
        _ => false,
    }
}

/// One rotated loop, ready to splice into the rebuilt program.
struct LoopPlan {
    head: usize,
    tail: usize,
    /// Instructions of the five new segments, in emission order. Branch
    /// and jump targets that point *inside* the rotation are emitted as
    /// `Target::Pc(u32::MAX)` and fixed up via `patches`.
    insts: Vec<Inst>,
    /// (offset within `insts`, kind) — kind 0: T's exit branch -> EPI,
    /// kind 1: T2's back jump -> T.
    patches: Vec<(usize, u8)>,
    /// Offsets of T and EPI within `insts`.
    t_off: usize,
    epi_off: usize,
    loads: usize,
}

fn build_plan(
    prog: &Program,
    cfg: &Cfg,
    head: usize,
    tail: usize,
    used_regs: &mut u64,
) -> Option<LoopPlan> {
    let h_range = &cfg.blocks[head];
    let b_range = &cfg.blocks[tail];
    let h_insts = &prog.insts()[h_range.clone()];
    let b_insts = &prog.insts()[b_range.clone()];

    // Shape: header is pure ALU ending in the exit branch; body's only
    // predecessor is the header's fallthrough; back edge is a plain jump.
    if tail != head + 1 || cfg.preds[tail] != [head] {
        return None;
    }
    let exit_branch = match h_insts.last() {
        Some(b @ Inst::Branch { target: Target::Pc(t), .. }) => {
            let e = cfg.block_of(*t as usize);
            if e == head || e == tail {
                return None;
            }
            *b
        }
        _ => return None,
    };
    if !h_insts[..h_insts.len() - 1].iter().all(is_pure_alu) {
        return None;
    }
    let body = match b_insts.last() {
        Some(Inst::Jump { target: Target::Pc(t) }) if *t as usize == h_range.start => {
            &b_insts[..b_insts.len() - 1]
        }
        _ => return None,
    };
    if body.iter().chain(h_insts.iter()).any(is_sync_hinted) {
        return None;
    }

    // DAG ancestors per body instruction (indices are body positions).
    let n = body.len();
    let dag = Dag::build(body);
    let mut anc: Vec<Vec<bool>> = vec![vec![false; n]; n];
    for j in 0..n {
        // Edges always point forward, so anc[j] is final here.
        let (head, rest) = anc.split_at_mut(j + 1);
        let aj = &head[j];
        for e in &dag.succs[j] {
            let at = &mut rest[e.to - j - 1];
            for (dst, &src) in at.iter_mut().zip(aj) {
                *dst |= src;
            }
            at[j] = true;
        }
    }

    // Pick the loads: independent (pure-ALU ancestry), destination written
    // exactly once in the body, destinations pairwise distinct.
    let mut claimed_dests = 0u64;
    let mut ld = vec![false; n];
    for (i, inst) in body.iter().enumerate() {
        if !is_pipelinable_load(inst) {
            continue;
        }
        if (0..n).any(|k| anc[i][k] && !is_pure_alu(&body[k])) {
            continue;
        }
        let dests = inst.def_mask();
        let defined_elsewhere =
            body.iter().enumerate().any(|(k, other)| k != i && other.def_mask() & dests != 0);
        if defined_elsewhere || claimed_dests & dests != 0 {
            continue;
        }
        claimed_dests |= dests;
        ld[i] = true;
    }
    if !ld.iter().any(|&x| x) {
        return None;
    }

    // Slices: union of the kept loads' ancestors (all pure ALU by
    // construction). The rest splits into X (backward closure feeding the
    // test, the slices, and the load bases) and Y (everything else).
    let mut in_s = vec![false; n];
    for i in 0..n {
        if ld[i] {
            for k in 0..n {
                if anc[i][k] {
                    in_s[k] = true;
                }
            }
        }
    }
    let mask_of = |sel: &dyn Fn(usize) -> bool, f: &dyn Fn(&Inst) -> u64| -> u64 {
        (0..n).filter(|&i| sel(i)).map(|i| f(&body[i])).fold(0, |a, b| a | b)
    };
    let u_c: u64 = h_insts.iter().map(Inst::use_mask).fold(0, |a, b| a | b);
    let d_c: u64 = h_insts.iter().map(Inst::def_mask).fold(0, |a, b| a | b);
    let u_s = mask_of(&|i| in_s[i], &Inst::use_mask);
    let d_s = mask_of(&|i| in_s[i], &Inst::def_mask);
    let u_ld = mask_of(&|i| ld[i], &Inst::use_mask);
    let dd = mask_of(&|i| ld[i], &Inst::def_mask);

    let in_r = |i: usize, in_x: &[bool]| !ld[i] && !in_s[i] && !in_x[i];
    let mut in_x = vec![false; n];
    let mut needed = u_c | u_s | u_ld;
    loop {
        let mut grew = false;
        for i in 0..n {
            if in_r(i, &in_x) && body[i].def_mask() & needed != 0 {
                in_x[i] = true;
                needed |= body[i].use_mask();
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    if (0..n).any(|i| in_x[i] && !is_pure_alu(&body[i])) {
        return None;
    }
    let in_y: Vec<bool> = (0..n).map(|i| !ld[i] && !in_s[i] && !in_x[i]).collect();
    if (0..n).any(|i| in_y[i] && is_shared_storelike(&body[i])) {
        return None;
    }

    let u_x = mask_of(&|i| in_x[i], &Inst::use_mask);
    let d_x = mask_of(&|i| in_x[i], &Inst::def_mask);
    let u_y = mask_of(&|i| in_y[i], &Inst::use_mask);
    let d_y = mask_of(&|i| in_y[i], &Inst::def_mask);

    // The rotation moves X and the test above Y, and the next iteration's
    // slices and loads above Y: every pair it reorders must be register
    // independent. Y may *read* the load destinations (that is the whole
    // point — the copies feed it) but nothing else may touch them.
    let legal = d_x & (u_y | d_y) == 0
        && u_x & d_y == 0
        && (u_s | u_ld) & d_y == 0
        && d_s & (u_y | d_y) == 0
        && u_c & d_y == 0
        && d_c & (u_y | d_y) == 0
        && dd & d_y == 0
        && dd & (u_x | d_x | u_c | d_c | u_s | d_s | u_ld) == 0;
    if !legal {
        return None;
    }

    // Shadow registers: one never-used register per destination, plus an
    // integer bounce register when any destination is FP.
    let loads: Vec<usize> = (0..n).filter(|&i| ld[i]).collect();
    let int_dests: Vec<Reg> = loads.iter().filter_map(|&i| body[i].int_def()).collect();
    let fp_dests: Vec<FReg> = loads
        .iter()
        .filter_map(|&i| match body[i] {
            Inst::FLoad { fd, .. } => Some(fd),
            _ => None,
        })
        .collect();
    let mut free_int = (1u8..32).filter(|&r| *used_regs & (1 << r) == 0);
    let mut free_fp = (0u8..32).filter(|&f| *used_regs & (1 << (32 + f)) == 0);
    let mut alloc = *used_regs;
    let mut shadow_int: Vec<(Reg, Reg)> = Vec::new();
    let mut shadow_fp: Vec<(FReg, FReg)> = Vec::new();
    for &d in &int_dests {
        let s = free_int.next()?;
        alloc |= 1 << s;
        shadow_int.push((d, Reg::new(s)));
    }
    for &d in &fp_dests {
        let s = free_fp.next()?;
        alloc |= 1 << (32 + s);
        shadow_fp.push((d, FReg::new(s)));
    }
    let bounce = if fp_dests.is_empty() {
        None
    } else {
        let b = free_int.next()?;
        alloc |= 1 << b;
        Some(Reg::new(b))
    };
    *used_regs = alloc;

    let shadowed = |i: usize| -> Inst {
        let mut inst = body[i];
        match &mut inst {
            Inst::Load { rd, .. } => {
                *rd = shadow_int.iter().find(|(d, _)| d == rd).expect("shadowed int dest").1;
            }
            Inst::FLoad { fd, .. } => {
                *fd = shadow_fp.iter().find(|(d, _)| d == fd).expect("shadowed fp dest").1;
            }
            _ => unreachable!("pipelinable load"),
        }
        inst
    };

    // Emit the five segments.
    let mut insts = Vec::new();
    let mut patches = Vec::new();
    let sentinel = Target::Pc(u32::MAX);

    // G: zero-trip guard (the original header, verbatim).
    insts.extend_from_slice(h_insts);

    // P0: prologue — first iteration's slices and shadowed loads.
    for &i in (0..n).collect::<Vec<_>>().iter().filter(|&&i| in_s[i]) {
        insts.push(body[i]);
    }
    for &i in &loads {
        insts.push(shadowed(i));
    }

    // T: copies, X, test, exit -> EPI.
    let t_off = insts.len();
    for &(d, s) in &shadow_int {
        insts.push(Inst::AluI { op: AluOp::Add, rd: d, rs: s, imm: 0 });
    }
    for &(d, s) in &shadow_fp {
        let b = bounce.expect("bounce exists with fp dests");
        insts.push(Inst::MovFI { rd: b, fs: s });
        insts.push(Inst::MovIF { fd: d, rs: b });
    }
    for i in 0..n {
        if in_x[i] {
            insts.push(body[i]);
        }
    }
    insts.extend_from_slice(&h_insts[..h_insts.len() - 1]);
    let mut t_branch = exit_branch;
    t_branch.set_target(sentinel);
    patches.push((insts.len(), 0u8));
    insts.push(t_branch);

    // T2: next iteration's slices and loads, then this iteration's Y.
    for i in 0..n {
        if in_s[i] {
            insts.push(body[i]);
        }
    }
    for &i in &loads {
        insts.push(shadowed(i));
    }
    for i in 0..n {
        if in_y[i] {
            insts.push(body[i]);
        }
    }
    patches.push((insts.len(), 1u8));
    insts.push(Inst::Jump { target: sentinel });

    // EPI: last iteration's Y, zero the shadows, rejoin at E.
    let epi_off = insts.len();
    for i in 0..n {
        if in_y[i] {
            insts.push(body[i]);
        }
    }
    for &(_, s) in &shadow_int {
        insts.push(Inst::AluI { op: AluOp::Add, rd: s, rs: Reg::ZERO, imm: 0 });
    }
    if let Some(b) = bounce {
        insts.push(Inst::AluI { op: AluOp::Add, rd: b, rs: Reg::ZERO, imm: 0 });
    }
    for &(_, s) in &shadow_fp {
        insts.push(Inst::MovIF { fd: s, rs: Reg::ZERO });
    }
    insts.push(Inst::Jump { target: exit_branch.target().expect("branch has target") });

    Some(LoopPlan { head, tail, insts, patches, t_off, epi_off, loads: loads.len() })
}

/// Rotates every legal two-block counted loop so next-iteration shared
/// loads issue before the back edge. Expects a switch-free program; run
/// before [`group_shared_loads`](crate::group_shared_loads).
pub fn pipeline_loops(prog: &Program) -> PipelineResult {
    assert_eq!(prog.switch_count(), 0, "pipeline_loops expects a switch-free input program");

    let cfg = Cfg::build(prog);
    let mut used_regs = 0u64;
    for inst in prog.insts() {
        used_regs |= inst.use_mask() | inst.def_mask();
    }
    used_regs |= 1; // r0 is hardwired, never a shadow
                    // r1/r2 are runtime-seeded (tid, nthreads) before the first
                    // instruction: even a program that never touches them finishes with
                    // those values live, so shadowing one — and zeroing it in the
                    // epilogue — would change the final register file. (Found by the
                    // fuzz wall: oracle r2 = nthreads vs engine r2 = 0.)
    used_regs |= (1 << Reg::TID.index()) | (1 << Reg::NTHREADS.index());

    let mut claimed = vec![false; cfg.blocks.len()];
    let mut plans: Vec<LoopPlan> = Vec::new();
    for l in &cfg.loops {
        if l.body.len() != 2 || l.head == l.tail || claimed[l.head] || claimed[l.tail] {
            continue;
        }
        if let Some(plan) = build_plan(prog, &cfg, l.head, l.tail, &mut used_regs) {
            claimed[plan.head] = true;
            claimed[plan.tail] = true;
            plans.push(plan);
        }
    }
    if plans.is_empty() {
        return PipelineResult { program: prog.clone(), pipelined_loads: 0, pipelined_loops: 0 };
    }

    let pipelined_loads = plans.iter().map(|p| p.loads).sum();
    let pipelined_loops = plans.len();

    // Rebuild: splice each plan in place of its [H][B] pair, remap every
    // old-leader target, then patch the rotation-internal targets.
    let mut out: Vec<Inst> = Vec::with_capacity(prog.len() + plans.len() * 8);
    let mut leader_map: Vec<(Pc, Pc)> = Vec::new();
    let mut patched: Vec<(usize, Pc)> = Vec::new();
    let mut skip = vec![false; cfg.blocks.len()];
    for p in &plans {
        skip[p.tail] = true;
    }
    let plan_at = |b: usize| plans.iter().find(|p| p.head == b);
    for (b, range) in cfg.blocks.iter().enumerate() {
        if skip[b] {
            continue;
        }
        if let Some(p) = plan_at(b) {
            let base = out.len();
            leader_map.push((range.start as Pc, base as Pc));
            for &(off, kind) in &p.patches {
                let target = if kind == 0 { p.epi_off } else { p.t_off };
                patched.push((base + off, (base + target) as Pc));
            }
            out.extend_from_slice(&p.insts);
        } else {
            leader_map.push((range.start as Pc, out.len() as Pc));
            out.extend_from_slice(&prog.insts()[range.clone()]);
        }
    }
    for (i, inst) in out.iter_mut().enumerate() {
        if let Some((_, new)) = patched.iter().find(|&&(at, _)| at == i) {
            inst.set_target(Target::Pc(*new));
            continue;
        }
        if let Some(Target::Pc(old)) = inst.target() {
            let new = leader_map
                .iter()
                .find(|&&(o, _)| o == old)
                .map(|&(_, n)| n)
                .unwrap_or_else(|| panic!("branch target @{old} is not a block leader"));
            inst.set_target(Target::Pc(new));
        }
    }

    PipelineResult {
        program: Program::from_raw_parts(prog.name().to_string(), out)
            .with_local_words(prog.local_words()),
        pipelined_loads,
        pipelined_loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::basic_blocks;
    use mtsim_asm::ProgramBuilder;

    /// The canonical target: a reduction over a shared array.
    #[test]
    fn reduction_loop_is_pipelined() {
        let mut b = ProgramBuilder::new("reduce");
        let acc = b.def_i("acc", 0);
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared(i.get());
            b.assign(acc, acc.get() + v);
        });
        b.store_local(b.const_i(0), acc.get());
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 1, "{}", r.program.listing());
        assert_eq!(r.pipelined_loads, 1, "{}", r.program.listing());
        // The load is now duplicated (prologue + steady state) and every
        // target still lands on a block leader.
        let shared_loads = r.program.insts().iter().filter(|i| is_pipelinable_load(i)).count();
        assert_eq!(shared_loads, 2, "{}", r.program.listing());
        let blocks = basic_blocks(&r.program);
        for inst in r.program.insts() {
            if let Some(Target::Pc(t)) = inst.target() {
                assert!(
                    blocks.iter().any(|r| r.start == t as usize),
                    "target @{t} not a leader:\n{}",
                    r.program.listing()
                );
            }
        }
    }

    /// A shared store in the body defeats pipelining (the early loads
    /// would cross it — pessimistic aliasing).
    #[test]
    fn loop_with_shared_store_is_not_pipelined() {
        let mut b = ProgramBuilder::new("copy");
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared(i.get());
            b.store_shared(i.get() + 100, v);
        });
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 0, "{}", r.program.listing());
        assert_eq!(r.program.listing(), p.listing());
    }

    /// The rest of the body reading the induction variable blocks the
    /// rotation (the update would run before it).
    #[test]
    fn body_reading_induction_var_is_not_pipelined() {
        let mut b = ProgramBuilder::new("scatter");
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared(i.get());
            b.store_local(i.get(), v);
        });
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 0, "{}", r.program.listing());
    }

    /// r1 (tid) and r2 (nthreads) are seeded by the runtime before the
    /// first instruction, so they are live at exit in *every* program
    /// and must never be allocated as shadows (the epilogue zeroes
    /// shadows). Regression for a fuzz-wall find.
    #[test]
    fn runtime_seeded_registers_are_never_shadows() {
        let mut b = ProgramBuilder::new("seeded");
        let acc = b.def_i("acc", 0);
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared(i.get());
            b.assign(acc, acc.get() + v);
        });
        b.store_local(b.const_i(0), acc.get());
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 1, "{}", r.program.listing());
        let seeded = (1u64 << Reg::TID.index()) | (1 << Reg::NTHREADS.index());
        for inst in r.program.insts() {
            assert_eq!(
                inst.def_mask() & seeded,
                0,
                "seeded register used as a shadow:\n{}",
                r.program.listing()
            );
        }
    }

    #[test]
    fn straight_line_program_is_untouched() {
        let mut b = ProgramBuilder::new("straight");
        let x = b.def_i("x", 0);
        let v = b.load_shared(b.const_i(5));
        b.assign(x, v);
        b.store_local(b.const_i(0), x.get());
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 0);
        assert_eq!(r.program.listing(), p.listing());
    }

    /// FP loads round-trip through the bounce register bit-exactly.
    #[test]
    fn fp_reduction_loop_is_pipelined() {
        let mut b = ProgramBuilder::new("freduce");
        let acc = b.def_f("acc", 0.0);
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared_f(i.get());
            b.assign_f(acc, acc.get() + v);
        });
        b.store_local_f(b.const_i(0), acc.get());
        let p = b.finish();

        let r = pipeline_loops(&p);
        assert_eq!(r.pipelined_loops, 1, "{}", r.program.listing());
        assert_eq!(r.pipelined_loads, 1, "{}", r.program.listing());
        // The copy uses the bit-exact MovFI/MovIF round trip.
        assert!(
            r.program.insts().iter().any(|i| matches!(i, Inst::MovFI { .. }))
                && r.program.insts().iter().any(|i| matches!(i, Inst::MovIF { .. })),
            "{}",
            r.program.listing()
        );
    }
}
