//! Trace → program compilation (see the crate docs for the scheme).

use mtsim_asm::{IVar, Program, ProgramBuilder};
use mtsim_isa::{AccessHint, FReg, Inst, Reg, Space};
use mtsim_mem::{SharedMemory, TraceEvent, TraceKind};

/// Reads of one kind a thread issues before it reuses a destination
/// register. A read's value is never used, but a sink reused sooner gives
/// the grouping pass a write-after-write completion edge on an in-flight
/// load, which closes the group (DESIGN.md §22). Measured at 4, 8 and 16
/// (EXPERIMENTS.md "Replay grouping"): 8 takes most of 16's cut in
/// simulated cycles at less engine host time, which grows with the loads
/// in flight. It may not exceed 16, since a pair read holds two of the
/// 32 fp registers.
const SINK_WINDOW: usize = 8;
const _: () = assert!(SINK_WINDOW <= 16);

/// Upper bound on the word address a trace may touch. Trace addresses are
/// used directly as shared-memory word addresses (no remapping — pair
/// accesses need their two words adjacent), so the image size is
/// `max addr + 1` words; this cap keeps a stray huge address from
/// allocating gigabytes.
pub const MAX_ADDR_WORDS: u64 = 1 << 20;

/// Upper bound on the events a caller should ask [`crate::synthesize`]
/// for when the size comes from untrusted input (a few bytes of flags
/// would otherwise size an unbounded allocation). Recorded traces are
/// bounded by their own file size and are not checked against it. It
/// sits above the largest in-tree synthetic trace, 4000 events per
/// thread at [`MAX_THREADS`] threads.
pub const MAX_SYNTH_EVENTS: usize = 1 << 22;

/// Upper bound on distinct thread ids in a trace. Ids are mapped densely
/// (gaps are fine, `u32::MAX` is fine), but each becomes a simulated
/// thread with its own register file.
pub const MAX_THREADS: usize = 1024;

/// A trace the compiler cannot turn into a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// An event touches a word at or beyond [`MAX_ADDR_WORDS`].
    AddressTooLarge {
        /// The offending word address (the second word for pair kinds).
        addr: u64,
        /// The cap it violated.
        max: u64,
    },
    /// The trace names more distinct threads than [`MAX_THREADS`].
    TooManyThreads {
        /// Distinct thread ids found.
        count: usize,
        /// The cap.
        max: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::AddressTooLarge { addr, max } => {
                write!(f, "trace address {addr} exceeds the replay cap of {max} words")
            }
            ReplayError::TooManyThreads { count, max } => {
                write!(f, "trace names {count} threads, replay supports at most {max}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A compiled trace: the program, the zeroed input image it expects, and
/// the host-side prediction of the final image.
#[derive(Debug, Clone)]
pub struct TraceProgram {
    /// The compiled program (one `tid`-selected block per trace thread).
    pub program: Program,
    /// Threads the program was built for — the number of *distinct*
    /// thread ids in the trace (ids are mapped densely in sorted order).
    pub nthreads: usize,
    /// Shared-memory words the program touches (`max addr + 1`, ≥ 1).
    pub shared_words: u64,
    /// Events compiled.
    pub events: usize,
    expected: Vec<u64>,
}

impl TraceProgram {
    /// The zeroed input image the program expects.
    pub fn shared(&self) -> SharedMemory {
        SharedMemory::new(self.shared_words)
    }

    /// The schedule-independent final image: per-address sums of the
    /// deterministic fetch-and-add addends.
    pub fn expected(&self) -> &[u64] {
        &self.expected
    }

    /// Checks a final shared-memory image against [`TraceProgram::expected`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching word.
    pub fn verify(&self, mem: &SharedMemory) -> Result<(), String> {
        if mem.len() < self.shared_words {
            return Err(format!(
                "image has {} words, replay needs {}",
                mem.len(),
                self.shared_words
            ));
        }
        for (addr, &want) in self.expected.iter().enumerate() {
            let got = mem.read(addr as u64);
            if got != want {
                return Err(format!("shared[{addr}] = {got}, trace replay expects {want}"));
            }
        }
        Ok(())
    }
}

/// Words an event touches beyond its base address (1 for pair kinds).
fn span(kind: TraceKind) -> u64 {
    match kind {
        TraceKind::ReadPair | TraceKind::WritePair => 1,
        TraceKind::Read | TraceKind::Write | TraceKind::FetchAdd => 0,
    }
}

/// One race-free update: a fetch-and-add whose reply is discarded, with
/// the deterministic addend `1 + n mod 7` (`n` counts updates in
/// compilation order so repeated updates of one word don't all add the
/// same constant). The same addend feeds the expected image.
fn emit_update(b: &mut ProgramBuilder, addr: u64, n: &mut u64, expected: &mut [u64]) {
    let k = 1 + (*n % 7);
    *n += 1;
    b.fetch_add_discard(b.const_i(addr as i64), b.const_i(k as i64), AccessHint::Data);
    expected[addr as usize] = expected[addr as usize].wrapping_add(k);
}

/// One thread's read destinations: integer reads rotate through
/// [`SINK_WINDOW`] variables that stay live for the whole thread block,
/// and pair reads through as many fp register pairs. Any two reads that
/// share a register are at least [`SINK_WINDOW`] reads apart.
///
/// Pair reads are emitted directly into fixed registers because the
/// builder can only load a pair into fresh variables; the replay program
/// uses no other fp register, so nothing else allocates them.
#[derive(Default)]
struct Sinks {
    ints: [Option<IVar>; SINK_WINDOW],
    int_reads: usize,
    pair_reads: usize,
}

impl Sinks {
    fn read(&mut self, b: &mut ProgramBuilder, addr: u64) {
        let load = b.load_shared(b.const_i(addr as i64));
        let slot = &mut self.ints[self.int_reads % SINK_WINDOW];
        match *slot {
            Some(var) => b.assign(var, load),
            None => *slot = Some(b.def_i("sink", load)),
        }
        self.int_reads += 1;
    }

    fn read_pair(&mut self, b: &mut ProgramBuilder, addr: u64) {
        let first = 2 * (self.pair_reads % SINK_WINDOW) as u8;
        b.emit(Inst::LoadPair {
            space: Space::Shared,
            fd1: FReg::new(first),
            fd2: FReg::new(first + 1),
            base: Reg::ZERO,
            offset: addr as i64,
        });
        self.pair_reads += 1;
    }
}

/// Compiles a trace into a runnable, self-verifying program.
///
/// Events are grouped by thread id (gaps allowed; ids map densely in
/// sorted order) and replayed in event-time order within each thread.
/// An empty trace compiles to a single-thread program that just halts.
///
/// # Errors
///
/// Returns [`ReplayError`] when the trace exceeds the address or thread
/// caps.
pub fn compile(events: &[TraceEvent]) -> Result<TraceProgram, ReplayError> {
    let mut max_word: u64 = 0;
    for e in events {
        let last = e.addr.saturating_add(span(e.kind));
        if last >= MAX_ADDR_WORDS {
            return Err(ReplayError::AddressTooLarge { addr: last, max: MAX_ADDR_WORDS });
        }
        max_word = max_word.max(last);
    }

    // Dense thread ids: the distinct ids in sorted order. A trace has few
    // threads, so a sorted list with binary search beats a map; the usual
    // ids `0..n` are found by indexing.
    let mut ids: Vec<u32> = Vec::new();
    for e in events {
        if ids.get(e.thread as usize) == Some(&e.thread) {
            continue;
        }
        if let Err(pos) = ids.binary_search(&e.thread) {
            if ids.len() == MAX_THREADS {
                let mut all: Vec<u32> = events.iter().map(|e| e.thread).collect();
                all.sort_unstable();
                all.dedup();
                return Err(ReplayError::TooManyThreads { count: all.len(), max: MAX_THREADS });
            }
            ids.insert(pos, e.thread);
        }
    }
    let ids_are_dense = ids.last().is_none_or(|&last| last as usize + 1 == ids.len());
    let dense = |e: &TraceEvent| {
        if ids_are_dense {
            e.thread as usize
        } else {
            ids.binary_search(&e.thread).expect("a collected id")
        }
    };
    // Bucket the event indices by dense thread, in input order (a
    // counting sort), then order each thread's events by time (traces are
    // usually globally time-sorted, but nothing guarantees it); ties keep
    // input order.
    let mut starts = vec![0usize; ids.len() + 1];
    for e in events {
        starts[dense(e) + 1] += 1;
    }
    for t in 0..ids.len() {
        starts[t + 1] += starts[t];
    }
    let mut order = vec![0usize; events.len()];
    let mut cursor = starts.clone();
    for (i, e) in events.iter().enumerate() {
        let slot = &mut cursor[dense(e)];
        order[*slot] = i;
        *slot += 1;
    }
    for w in starts.windows(2) {
        let idxs = &mut order[w[0]..w[1]];
        if !idxs.is_sorted_by_key(|&i| events[i].time) {
            idxs.sort_by_key(|&i| events[i].time);
        }
    }
    let threads: Vec<&[usize]> = starts.windows(2).map(|w| &order[w[0]..w[1]]).collect();

    let shared_words = max_word + 1;
    let mut expected = vec![0u64; shared_words as usize];
    let mut updates: u64 = 0;

    let mut b = ProgramBuilder::new("replay");
    for (dense, idxs) in threads.iter().enumerate() {
        b.if_(b.tid().eq(dense as i64), |b| {
            // Loads go into sink registers that are never stored: the
            // loaded value cannot reach memory, so racing updates of the
            // same word stay harmless.
            let mut sinks = Sinks::default();
            for &i in *idxs {
                let e = &events[i];
                match e.kind {
                    TraceKind::Read => sinks.read(b, e.addr),
                    TraceKind::ReadPair => sinks.read_pair(b, e.addr),
                    TraceKind::Write | TraceKind::FetchAdd => {
                        emit_update(b, e.addr, &mut updates, &mut expected);
                    }
                    TraceKind::WritePair => {
                        emit_update(b, e.addr, &mut updates, &mut expected);
                        emit_update(b, e.addr + 1, &mut updates, &mut expected);
                    }
                }
            }
            // Halt inside the block: a finished thread must not walk the
            // tid checks of every later block.
            b.emit(Inst::Halt);
        });
    }
    // The fall-through Halt: every block's skip label lands here (threads
    // with no events, or machine threads beyond the trace's count).
    // Emitted explicitly because `finish()` only appends a Halt when the
    // last instruction isn't one — and the last block ends in Halt, which
    // would leave the skip labels dangling past the end.
    b.emit(Inst::Halt);

    Ok(TraceProgram {
        program: b.finish(),
        nthreads: threads.len().max(1),
        shared_words,
        events: events.len(),
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SynthConfig};
    use mtsim_core::{Machine, MachineConfig, SwitchModel};
    use mtsim_mem::FaultConfig;
    use mtsim_opt::group_shared_loads;

    fn ev(thread: u32, time: u64, kind: TraceKind, addr: u64) -> TraceEvent {
        TraceEvent { time, proc: 0, thread, kind, addr, spin: false }
    }

    fn run(tp: &TraceProgram, model: SwitchModel, procs: usize, tpp: usize) -> SharedMemory {
        let cfg = MachineConfig::new(model, procs, tpp).with_latency(200);
        Machine::new(cfg, &tp.program, tp.shared()).run().expect("replay run").shared
    }

    #[test]
    fn empty_trace_compiles_to_a_halting_single_thread() {
        let tp = compile(&[]).unwrap();
        assert_eq!(tp.nthreads, 1);
        assert_eq!(tp.shared_words, 1);
        let fin = run(&tp, SwitchModel::Ideal, 1, 1);
        tp.verify(&fin).unwrap();
    }

    #[test]
    fn single_thread_updates_sum_deterministically() {
        let events = vec![
            ev(0, 0, TraceKind::Write, 3),
            ev(0, 1, TraceKind::FetchAdd, 3),
            ev(0, 2, TraceKind::Read, 3),
            ev(0, 3, TraceKind::WritePair, 6),
        ];
        let tp = compile(&events).unwrap();
        assert_eq!(tp.nthreads, 1);
        assert_eq!(tp.shared_words, 8);
        // Addends 1, 2 at word 3; 3 at word 6; 4 at word 7.
        assert_eq!(tp.expected()[3], 3);
        assert_eq!(tp.expected()[6], 3);
        assert_eq!(tp.expected()[7], 4);
        tp.verify(&run(&tp, SwitchModel::SwitchOnUse, 1, 1)).unwrap();
    }

    #[test]
    fn thread_id_gaps_map_densely() {
        let events = vec![
            ev(5, 0, TraceKind::Write, 0),
            ev(1000, 1, TraceKind::Write, 1),
            ev(u32::MAX, 2, TraceKind::Write, 2),
        ];
        let tp = compile(&events).unwrap();
        // Three distinct ids — three threads, whatever the ids were
        // (the PR-3 id-truncation regression: u32::MAX must not alias).
        assert_eq!(tp.nthreads, 3);
        for (procs, tpp) in [(1, 3), (3, 1)] {
            tp.verify(&run(&tp, SwitchModel::SwitchOnUseMiss, procs, tpp)).unwrap();
        }
    }

    #[test]
    fn out_of_thread_order_events_replay_by_time() {
        // Interleaved input; per-thread replay must sort by time.
        let events = vec![
            ev(1, 10, TraceKind::Write, 4),
            ev(0, 5, TraceKind::Write, 4),
            ev(1, 2, TraceKind::FetchAdd, 5),
            ev(0, 1, TraceKind::Read, 5),
        ];
        let tp = compile(&events).unwrap();
        assert_eq!(tp.nthreads, 2);
        tp.verify(&run(&tp, SwitchModel::SwitchEveryCycle, 2, 1)).unwrap();
    }

    #[test]
    fn huge_addresses_are_rejected_not_allocated() {
        let err = compile(&[ev(0, 0, TraceKind::Write, u64::MAX - 1)]).unwrap_err();
        assert!(matches!(err, ReplayError::AddressTooLarge { .. }), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // A pair whose *second* word crosses the cap is also rejected.
        let err = compile(&[ev(0, 0, TraceKind::WritePair, MAX_ADDR_WORDS - 1)]).unwrap_err();
        assert!(matches!(err, ReplayError::AddressTooLarge { .. }), "{err}");
    }

    #[test]
    fn too_many_threads_are_rejected() {
        let events: Vec<_> =
            (0..=MAX_THREADS as u32).map(|t| ev(t, 0, TraceKind::Read, 0)).collect();
        let err = compile(&events).unwrap_err();
        assert_eq!(err, ReplayError::TooManyThreads { count: MAX_THREADS + 1, max: MAX_THREADS });
    }

    #[test]
    fn replay_is_deterministic_under_faults_and_smt() {
        let events: Vec<_> = (0..40)
            .map(|i| {
                let kind = match i % 4 {
                    0 => TraceKind::Write,
                    1 => TraceKind::Read,
                    2 => TraceKind::FetchAdd,
                    _ => TraceKind::ReadPair,
                };
                ev(i % 3, i as u64, kind, (i as u64 * 13) % 64)
            })
            .collect();
        let tp = compile(&events).unwrap();
        let mk = |seed| {
            MachineConfig::new(SwitchModel::Smt, 1, 3).with_latency(200).with_faults(FaultConfig {
                seed,
                drop_rate: 0.05,
                delay_rate: 0.1,
                ..FaultConfig::default()
            })
        };
        for seed in [1, 99] {
            let a = Machine::new(mk(seed), &tp.program, tp.shared()).run().unwrap();
            let b = Machine::new(mk(seed), &tp.program, tp.shared()).run().unwrap();
            assert_eq!(a.result.cycles, b.result.cycles, "fault seed {seed} not deterministic");
            tp.verify(&a.shared).unwrap();
            tp.verify(&b.shared).unwrap();
        }
    }

    #[test]
    fn reads_within_the_sink_window_have_distinct_destinations() {
        let cfg = SynthConfig {
            seed: 11,
            threads: 6,
            events_per_thread: 400,
            pair_fraction: 0.4,
            ..SynthConfig::default()
        };
        let tp = compile(&synthesize(&cfg)).unwrap();
        let mut reads_seen = 0;
        // Each thread's block ends in its own Halt.
        for block in tp.program.insts().split(|i| matches!(i, Inst::Halt)) {
            let dests: Vec<u64> = block
                .iter()
                .filter(|i| {
                    matches!(
                        i,
                        Inst::Load { space: Space::Shared, .. }
                            | Inst::LoadPair { space: Space::Shared, .. }
                    )
                })
                .map(Inst::def_mask)
                .collect();
            reads_seen += dests.len();
            for (n, window) in dests.windows(SINK_WINDOW).enumerate() {
                let mut seen = 0u64;
                for (k, &d) in window.iter().enumerate() {
                    assert!(
                        d != 0 && seen & d == 0,
                        "read {} reuses a sink of the last {SINK_WINDOW}",
                        n + k
                    );
                    seen |= d;
                }
            }
        }
        assert!(reads_seen > 1000, "the trace must exercise the window ({reads_seen} reads)");
    }

    #[test]
    fn long_traces_group_at_least_four_loads_per_switch() {
        let cfg =
            SynthConfig { seed: 8, threads: 16, events_per_thread: 600, ..SynthConfig::default() };
        let stats = group_shared_loads(&compile(&synthesize(&cfg)).unwrap().program).stats;
        assert!(
            stats.grouping_factor() >= 4.0,
            "mean group {:.2} ({} loads over {} switches)",
            stats.grouping_factor(),
            stats.grouped_loads,
            stats.switches_inserted
        );
    }

    #[test]
    fn thousands_of_back_to_back_reads_fit_the_register_files() {
        let mut events: Vec<_> = (0..2000).map(|i| ev(0, i, TraceKind::ReadPair, 2 * i)).collect();
        events.extend((0..2000).map(|i| ev(1, i, TraceKind::Read, i)));
        let tp = compile(&events).unwrap();
        let grouped = group_shared_loads(&tp.program).program;
        let explicit = MachineConfig::new(SwitchModel::ExplicitSwitch, 1, 2).with_latency(200);
        let smt4 = MachineConfig::new(SwitchModel::Smt, 1, 2).with_latency(200).with_issue_width(4);
        for (cfg, program) in [(explicit, &grouped), (smt4, &tp.program)] {
            let fin = Machine::new(cfg, program, tp.shared()).run().expect("replay run").shared;
            tp.verify(&fin).unwrap();
        }
    }
}
