//! The [`Program`] container: a resolved, immutable instruction sequence.

use std::hash::{Hash, Hasher};

use mtsim_isa::{Inst, LabelId, Pc, Target};

/// A finished program: instructions with all branch targets resolved to
/// absolute program counters.
///
/// Produced by [`crate::ProgramBuilder::finish`] or by
/// [`Program::from_raw_parts`] (used by the optimizer, which rewrites
/// instruction sequences).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    local_words: u64,
}

impl Program {
    /// Builds a program from a name and an already-resolved instruction
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if any branch target is still an unresolved label or points
    /// outside the program, or if the program does not end with a reachable
    /// `Halt` (every well-formed thread must terminate explicitly).
    pub fn from_raw_parts(name: impl Into<String>, insts: Vec<Inst>) -> Program {
        let name = name.into();
        assert!(!insts.is_empty(), "program {name} is empty");
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                match t {
                    Target::Label(l) => panic!("program {name}: unresolved label L{l} at pc {pc}"),
                    Target::Pc(p) => assert!(
                        (p as usize) < insts.len(),
                        "program {name}: branch target @{p} out of range at pc {pc}"
                    ),
                }
            }
        }
        assert!(insts.iter().any(|i| matches!(i, Inst::Halt)), "program {name} contains no Halt");
        Program { name, insts, local_words: 0 }
    }

    /// Resolves labels against a label table (`labels[id] = pc`) and builds
    /// the program. Used by the builder.
    pub(crate) fn resolve(name: String, mut insts: Vec<Inst>, labels: &[Option<Pc>]) -> Program {
        for inst in &mut insts {
            if let Some(Target::Label(l)) = inst.target() {
                let pc = labels
                    .get(l as usize)
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| panic!("label L{l} was never placed"));
                inst.set_target(Target::Pc(pc));
            }
        }
        Program::from_raw_parts(name, insts)
    }

    /// The program's name (used in listings and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Words of per-thread local memory the program requires (recorded by
    /// the builder's local allocator; preserved across the grouping pass).
    pub fn local_words(&self) -> u64 {
        self.local_words
    }

    /// Sets the local-memory requirement (used by the builder and by
    /// passes that rebuild the instruction vector).
    pub fn with_local_words(mut self, words: u64) -> Program {
        self.local_words = words;
        self
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn inst(&self, pc: Pc) -> &Inst {
        &self.insts[pc as usize]
    }

    /// All instructions in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions (never true for a validated
    /// program, but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of static shared-memory access instructions.
    pub fn shared_access_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_shared_access()).count()
    }

    /// Number of static `Switch` instructions.
    pub fn switch_count(&self) -> usize {
        self.insts.iter().filter(|i| matches!(i, Inst::Switch)).count()
    }

    /// A structural content key: a hash of every instruction's fields
    /// (`FLi` values by bit pattern) and of [`Program::local_words`], but
    /// not of the name, so programs that differ only in name share a key.
    /// The hasher is fixed, so the key is the same in every process; it is
    /// an in-memory cache key and is never written out.
    pub fn content_key(&self) -> u64 {
        let mut h = ContentHasher(0xcbf2_9ce4_8422_2325);
        self.insts.hash(&mut h);
        self.local_words.hash(&mut h);
        h.finish()
    }

    /// A human-readable listing, one instruction per line with pc prefixes.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}:  {inst}");
        }
        s
    }
}

/// FNV-1a's xor-then-multiply step taken once per integer written rather
/// than once per byte: every field of an instruction is one step.
struct ContentHasher(u64);

impl Hasher for ContentHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A label-placement table used during building.
#[derive(Debug, Default)]
pub(crate) struct LabelTable {
    placed: Vec<Option<Pc>>,
}

impl LabelTable {
    pub(crate) fn fresh(&mut self) -> LabelId {
        self.placed.push(None);
        (self.placed.len() - 1) as LabelId
    }

    pub(crate) fn place(&mut self, id: LabelId, pc: Pc) {
        let slot = &mut self.placed[id as usize];
        assert!(slot.is_none(), "label L{id} placed twice");
        *slot = Some(pc);
    }

    pub(crate) fn slots(&self) -> &[Option<Pc>] {
        &self.placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_isa::{AluOp, FReg, Reg};

    fn nop() -> Inst {
        Inst::Nop
    }

    #[test]
    fn program_is_send_and_sync() {
        // The sweep engine shares one built `Program` across worker threads
        // behind an `Arc`; this must not regress to interior mutability.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }

    #[test]
    fn from_raw_parts_validates_targets() {
        let p =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Pc(1) }, Inst::Halt]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(), "t");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        let _ =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Pc(9) }, Inst::Halt]);
    }

    #[test]
    #[should_panic(expected = "unresolved label")]
    fn rejects_unresolved_label() {
        let _ =
            Program::from_raw_parts("t", vec![Inst::Jump { target: Target::Label(0) }, Inst::Halt]);
    }

    #[test]
    #[should_panic(expected = "no Halt")]
    fn rejects_missing_halt() {
        let _ = Program::from_raw_parts("t", vec![nop()]);
    }

    #[test]
    fn counts_and_listing() {
        let insts = vec![
            Inst::AluI { op: AluOp::Add, rd: Reg::R8, rs: Reg::ZERO, imm: 5 },
            Inst::Switch,
            Inst::Halt,
        ];
        let p = Program::from_raw_parts("c", insts);
        assert_eq!(p.switch_count(), 1);
        assert_eq!(p.shared_access_count(), 0);
        let l = p.listing();
        assert!(l.contains("switch"));
        assert!(l.lines().count() == 3);
    }

    #[test]
    fn content_key_ignores_the_name_and_covers_local_words_and_fp_bits() {
        let insts = |val: f64| vec![Inst::FLi { fd: FReg::new(2), val }, Inst::Halt];
        let p = Program::from_raw_parts("a", insts(1.5));
        assert_eq!(p.content_key(), Program::from_raw_parts("b", insts(1.5)).content_key());
        assert_ne!(p.content_key(), Program::from_raw_parts("a", insts(2.5)).content_key());

        // Programs differing only in local words: same listing, new key.
        let wide = p.clone().with_local_words(8);
        assert_eq!(wide.listing(), p.listing());
        assert_ne!(wide.content_key(), p.content_key());
        assert_eq!(wide.content_key(), p.clone().with_local_words(8).content_key());

        // Programs differing only in an `FLi` NaN payload: same listing
        // ("NaN"), new key.
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let (q, r) = (
            Program::from_raw_parts("n", insts(f64::NAN)),
            Program::from_raw_parts("n", insts(payload)),
        );
        assert_eq!(q.listing(), r.listing());
        assert_ne!(q.content_key(), r.content_key());
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn label_double_place_panics() {
        let mut t = LabelTable::default();
        let l = t.fresh();
        t.place(l, 0);
        t.place(l, 1);
    }
}
