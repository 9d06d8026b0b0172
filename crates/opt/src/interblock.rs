//! Inter-block shared-load hoisting (DESIGN.md §21).
//!
//! The paper's post-processor groups shared loads strictly within basic
//! blocks; §5.1 only *estimates* the inter-block potential with a one-line
//! cache experiment. This pass measures it for real: it hoists independent
//! shared loads from a block `b` into its immediate dominator `D`, so that
//! loads accumulate at merge points and the (later) intra-block grouping
//! pass can cover them with fewer switches.
//!
//! ## Legality
//!
//! A load `l` in block `b` may move to the end of `D = idom(b)` only when
//! executing it at `D` is *count- and value-equivalent* — never
//! speculative, because the engine's shared memory is bounded (a hoisted
//! load on a path that never reached `b` could fault) and the differential
//! oracle compares full register files:
//!
//! 1. `b` postdominates `D`: every execution of `D` eventually executes
//!    `b` (no path exits, or spins forever, in between).
//! 2. Executions of `D` and `b` alternate strictly: no path `D -> ... ->
//!    D` avoiding `b`, and no path `b -> ... -> b` avoiding `D`. Together
//!    with (1) and `D dom b` this pins "once per `D`" == "once per `b`".
//! 3. Let `R` be the blocks strictly between `D` and `b` (reachable from
//!    `succs(D)` without passing through `b`). `R` must be acyclic — a
//!    loop in `R` is a spin/synchronization wait, and reading shared data
//!    *before* the wait would break acquire ordering. `R` must contain no
//!    shared stores or fetch-and-adds (the paper's pessimistic aliasing:
//!    any shared store may conflict with any shared load), must not write
//!    `l`'s base register, and must not touch `l`'s destination(s).
//! 4. The prefix of `b` before `l` obeys the same rules, and `D`'s
//!    terminator must not read `l`'s destination.
//!
//! Only plain blocking data loads move (`Load`/`FLoad`/`LoadPair` with
//! [`AccessHint::Data`]); fetch-and-adds are read-modify-writes and spin
//! loads are synchronization, so both stay put. Sweeps repeat to a
//! fixpoint, letting loads bubble up several dominator levels; because a
//! hoist never changes control structure, one CFG serves all sweeps.

use crate::cfg::Cfg;
use crate::regs::is_shared_storelike;
use mtsim_asm::Program;
use mtsim_isa::{AccessHint, Inst, Pc, Space, Target};

/// Outcome of [`hoist_shared_loads`].
pub struct HoistResult {
    /// The rewritten program (identical to the input when nothing moved).
    pub program: Program,
    /// Number of shared loads moved into a dominating block, counting each
    /// dominator-level step once.
    pub hoisted_loads: usize,
}

/// True for the loads this pass is willing to move.
fn is_hoistable_load(inst: &Inst) -> bool {
    match inst {
        Inst::Load { space: Space::Shared, rd, hint: AccessHint::Data, .. } => !rd.is_zero(),
        Inst::FLoad { space: Space::Shared, .. } => true,
        Inst::LoadPair { space: Space::Shared, .. } => true,
        _ => false,
    }
}

/// Per-(block, idom) path legality, independent of block contents.
struct HoistPath {
    /// Blocks strictly between `D` and `b`.
    between: Vec<usize>,
}

/// Checks conditions 1–3's control-flow half for hoisting out of `b` into
/// `d`, returning the set of in-between blocks when the shape is legal.
fn path_legal(cfg: &Cfg, b: usize, d: usize) -> Option<HoistPath> {
    if !cfg.postdominates(b, d) {
        return None;
    }
    let n = cfg.blocks.len();

    // Forward: reachable from succs(d) without passing through b. Must not
    // re-reach d (else d can run twice per b).
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = cfg.succs[d].iter().copied().filter(|&s| s != b).collect();
    while let Some(v) = stack.pop() {
        if v == d {
            return None;
        }
        if !std::mem::replace(&mut seen[v], true) {
            stack.extend(cfg.succs[v].iter().copied().filter(|&s| s != b && !seen[s]));
        }
    }
    let between: Vec<usize> = (0..n).filter(|&v| seen[v]).collect();

    // Backward: no path b -> ... -> b avoiding d (else b runs twice per d).
    let mut seen_b = vec![false; n];
    let mut stack: Vec<usize> = cfg.succs[b].iter().copied().filter(|&s| s != d).collect();
    while let Some(v) = stack.pop() {
        if v == b {
            return None;
        }
        if !std::mem::replace(&mut seen_b[v], true) {
            stack.extend(cfg.succs[v].iter().copied().filter(|&s| s != d && !seen_b[s]));
        }
    }

    // The in-between region must be acyclic: a cycle there is a spin or
    // retry loop, i.e. synchronization the load must not cross.
    let in_between = |v: usize| seen[v];
    let mut indeg = vec![0usize; n];
    for &v in &between {
        for &s in &cfg.succs[v] {
            if in_between(s) {
                indeg[s] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = between.iter().copied().filter(|&v| indeg[v] == 0).collect();
    let mut removed = 0;
    while let Some(v) = ready.pop() {
        removed += 1;
        for &s in &cfg.succs[v] {
            if in_between(s) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
    }
    if removed != between.len() {
        return None;
    }

    Some(HoistPath { between })
}

/// Hoists independent shared loads into immediate dominators, iterating to
/// a fixpoint so loads climb as many dominator levels as legality allows.
///
/// Expects a switch-free input program (like the intra-block pass, which
/// normally runs after this one).
pub fn hoist_shared_loads(prog: &Program) -> HoistResult {
    assert_eq!(prog.switch_count(), 0, "hoist_shared_loads expects a switch-free input program");

    let cfg = Cfg::build(prog);
    let n = cfg.blocks.len();
    let mut bodies: Vec<Vec<Inst>> =
        cfg.blocks.iter().map(|r| prog.insts()[r.clone()].to_vec()).collect();

    // Path legality depends only on control flow, which hoisting never
    // changes: compute it once per block.
    let paths: Vec<Option<HoistPath>> =
        (0..n).map(|b| cfg.idom[b].and_then(|d| path_legal(&cfg, b, d))).collect();

    let mut hoisted = 0usize;
    let mut changed = true;
    let mut sweeps = 0;
    while changed && sweeps < 256 {
        changed = false;
        sweeps += 1;
        for b in 0..n {
            let (Some(d), Some(path)) = (cfg.idom[b], paths[b].as_ref()) else { continue };

            // Content constraints over the in-between region (recomputed
            // per sweep: earlier hoists may have moved loads through it —
            // loads are harmless, but masks must stay current).
            let mut between_defs = 0u64;
            let mut between_touch = 0u64;
            let mut between_storelike = false;
            for &r in &path.between {
                for inst in &bodies[r] {
                    between_storelike |= is_shared_storelike(inst);
                    between_defs |= inst.def_mask();
                    between_touch |= inst.use_mask() | inst.def_mask();
                }
            }
            if between_storelike {
                continue;
            }
            let term_uses = match bodies[d].last() {
                Some(t) if t.is_control() => t.use_mask(),
                _ => 0,
            };

            let mut i = 0;
            let mut prefix_defs = 0u64;
            let mut prefix_touch = 0u64;
            let mut prefix_storelike = false;
            while i < bodies[b].len() {
                let inst = bodies[b][i];
                let last = i == bodies[b].len() - 1;
                if !(last && inst.is_control()) && is_hoistable_load(&inst) {
                    let bases = inst.use_mask();
                    let dests = inst.def_mask();
                    let legal = !prefix_storelike
                        && prefix_defs & bases == 0
                        && prefix_touch & dests == 0
                        && between_defs & bases == 0
                        && between_touch & dests == 0
                        && term_uses & dests == 0;
                    if legal {
                        bodies[b].remove(i);
                        let at = match bodies[d].last() {
                            Some(t) if t.is_control() => bodies[d].len() - 1,
                            _ => bodies[d].len(),
                        };
                        bodies[d].insert(at, inst);
                        hoisted += 1;
                        changed = true;
                        continue; // same index now holds the next inst
                    }
                }
                prefix_storelike |= is_shared_storelike(&inst);
                prefix_defs |= inst.def_mask();
                prefix_touch |= inst.use_mask() | inst.def_mask();
                i += 1;
            }
        }
    }

    if hoisted == 0 {
        return HoistResult { program: prog.clone(), hoisted_loads: 0 };
    }

    // Re-emit in block order and remap branch targets to the new leaders.
    let mut out: Vec<Inst> = Vec::with_capacity(prog.len());
    let mut leader_map: Vec<(Pc, Pc)> = Vec::with_capacity(n);
    for (i, body) in bodies.iter().enumerate() {
        leader_map.push((cfg.blocks[i].start as Pc, out.len() as Pc));
        out.extend_from_slice(body);
    }
    for inst in &mut out {
        if let Some(Target::Pc(old)) = inst.target() {
            let new = leader_map
                .iter()
                .find(|&&(o, _)| o == old)
                .map(|&(_, n)| n)
                .unwrap_or_else(|| panic!("branch target @{old} is not a block leader"));
            inst.set_target(Target::Pc(new));
        }
    }

    HoistResult {
        program: Program::from_raw_parts(prog.name().to_string(), out)
            .with_local_words(prog.local_words()),
        hoisted_loads: hoisted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::basic_blocks;
    use mtsim_asm::ProgramBuilder;

    fn count_shared_loads(insts: &[Inst]) -> usize {
        insts.iter().filter(|i| is_hoistable_load(i)).count()
    }

    /// Loads *after* an if/else merge hoist above the whole diamond into
    /// the condition block (the paper's §5.1 marquee case): the merge
    /// postdominates the condition, so the loads are never speculative.
    #[test]
    fn merge_loads_hoist_above_the_diamond() {
        let mut b = ProgramBuilder::new("diamond");
        let a1 = b.def_i("a1", 10);
        let a2 = b.def_i("a2", 11);
        let x = b.def_i("x", 0);
        b.if_else(b.tid().eq(0), |b| b.assign(x, 1), |b| b.assign(x, 2));
        let v = b.load_shared(a1.get());
        let w = b.load_shared(a2.get());
        let y = b.def_i("y", v);
        let z = b.def_i("z", w);
        b.store_local(b.const_i(0), x.get() + y.get() + z.get());
        let p = b.finish();

        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 2, "{}", r.program.listing());
        // Both loads now live in the entry block, before the branch.
        let blocks = basic_blocks(&r.program);
        let entry = &r.program.insts()[blocks[0].clone()];
        assert_eq!(count_shared_loads(entry), 2, "{}", r.program.listing());
    }

    /// Loads inside a conditional arm never hoist — the arm does not
    /// postdominate the condition, so the load would be speculative.
    #[test]
    fn conditional_arm_loads_do_not_hoist() {
        let mut b = ProgramBuilder::new("arm");
        let a = b.def_i("a", 10);
        let x = b.def_i("x", 0);
        b.if_else(
            b.tid().eq(0),
            |b| {
                let v = b.load_shared(a.get());
                b.assign(x, v);
            },
            |b| b.assign(x, 2),
        );
        b.store_local(b.const_i(0), x.get());
        let p = b.finish();

        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 0, "{}", r.program.listing());
        assert_eq!(r.program.listing(), p.listing());
    }

    /// A shared store in one arm blocks hoisting a merge load above the
    /// diamond (pessimistic aliasing: any store may feed any load).
    #[test]
    fn shared_store_in_between_blocks_hoist() {
        let mut b = ProgramBuilder::new("store-arm");
        let a = b.def_i("a", 21);
        let x = b.def_i("x", 0);
        b.if_else(
            b.tid().eq(0),
            |b| b.store_shared(b.const_i(20), b.const_i(7)),
            |b| b.assign(x, 2),
        );
        let v = b.load_shared(a.get());
        let y = b.def_i("y", v);
        b.store_local(b.const_i(0), x.get() + y.get());
        let p = b.finish();

        let r = hoist_shared_loads(&p);
        // The merge load must NOT move above the then-arm's store.
        assert_eq!(r.hoisted_loads, 0, "{}", r.program.listing());
        assert_eq!(r.program.listing(), p.listing());
    }

    /// Loads never hoist out of a loop body into the preheader (that would
    /// change how many times they execute).
    #[test]
    fn loop_body_loads_stay_in_the_loop() {
        let mut b = ProgramBuilder::new("loop");
        let acc = b.def_i("acc", 0);
        b.for_range("i", 0, 8, |b, i| {
            let v = b.load_shared(i.get());
            b.assign(acc, acc.get() + v);
        });
        b.store_local(b.const_i(0), acc.get());
        let p = b.finish();

        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 0, "{}", r.program.listing());
    }

    /// The oracle compares full register files, so a hoisted load must not
    /// clobber a register the skipped-over region reads or writes.
    #[test]
    fn hoist_respects_register_interference() {
        // Build by hand: entry branches over a block that writes the same
        // register the later load targets.
        use mtsim_isa::{AluOp, BCond, Reg};
        let insts = vec![
            // b0: branch to b2 if r1 == r0
            Inst::Branch { cond: BCond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: Target::Pc(2) },
            // b1: r2 = r2 + 1  (touches the load's destination)
            Inst::AluI { op: AluOp::Add, rd: Reg::new(2), rs: Reg::new(2), imm: 1 },
            // b2: r2 = shared[r3 + 0]; halt
            Inst::Load {
                space: Space::Shared,
                rd: Reg::new(2),
                base: Reg::new(3),
                offset: 0,
                hint: AccessHint::Data,
            },
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("interfere", insts);
        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 0, "{}", r.program.listing());
    }

    /// Same shape but with an unrelated register in between: the load may
    /// climb into the entry block.
    #[test]
    fn hoist_climbs_over_independent_code() {
        use mtsim_isa::{AluOp, BCond, Reg};
        let insts = vec![
            Inst::Branch { cond: BCond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: Target::Pc(2) },
            Inst::AluI { op: AluOp::Add, rd: Reg::new(4), rs: Reg::new(4), imm: 1 },
            Inst::Load {
                space: Space::Shared,
                rd: Reg::new(2),
                base: Reg::new(3),
                offset: 0,
                hint: AccessHint::Data,
            },
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("independent", insts);
        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 1, "{}", r.program.listing());
        // The load is now the first instruction (before the branch).
        assert!(is_hoistable_load(&r.program.insts()[0]), "{}", r.program.listing());
    }

    #[test]
    fn fetch_add_and_spin_loads_never_move() {
        use mtsim_isa::{BCond, Reg};
        let insts = vec![
            Inst::Branch { cond: BCond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: Target::Pc(2) },
            Inst::Nop,
            Inst::FetchAdd {
                rd: Reg::new(2),
                rs: Reg::new(5),
                base: Reg::new(3),
                offset: 0,
                hint: AccessHint::Data,
            },
            Inst::Load {
                space: Space::Shared,
                rd: Reg::new(6),
                base: Reg::new(3),
                offset: 1,
                hint: AccessHint::Spin,
            },
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("sync", insts);
        let r = hoist_shared_loads(&p);
        assert_eq!(r.hoisted_loads, 0);
        assert_eq!(r.program.listing(), p.listing());
    }
}
