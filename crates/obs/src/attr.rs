//! Per-thread cycle attribution.
//!
//! Every simulated processor cycle is charged to exactly one category,
//! reproducing the paper's efficiency decomposition (§4–6) per thread:
//! the five waiting/working categories are charged to the thread that
//! caused them, and end-of-run slack (a processor finished, others still
//! running) is charged to the processor as idle. The conservation law
//! `Σ thread categories + Σ proc issue-idle + W × Σ proc idle ==
//! processors × W × run cycles` (where `W` is the issue width, 1 for
//! every model but SMT — reducing to the original
//! `Σ thread categories + Σ proc idle == processors × run cycles`) is
//! checked by [`AttrTable::conservation_error`].

/// Where a simulated cycle went. The first five are per-thread;
/// [`Cat::Idle`] and [`Cat::IssueIdle`] are per-processor (no thread
/// exists to charge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// Executing instructions.
    Busy,
    /// Context-switch overhead.
    SwitchOverhead,
    /// Waiting on a shared-memory reply (including fault-retry backoff:
    /// a request being resent is still a memory wait, never idle).
    MemoryStall,
    /// Spinning on a lock word.
    LockSpin,
    /// Waiting at a barrier.
    BarrierWait,
    /// No runnable thread and nothing outstanding (end-of-run slack).
    Idle,
    /// Issue slots no ready thread filled, per processor — only nonzero
    /// under the SMT model, where each of the `W` lanes accounts for one
    /// slot-cycle per cycle: `W × finish − Σ busy`.
    IssueIdle,
}

/// Number of per-thread categories (all but [`Cat::Idle`] and
/// [`Cat::IssueIdle`]).
pub const THREAD_CATS: usize = 5;

impl Cat {
    /// All categories in display order.
    pub const ALL: [Cat; 7] = [
        Cat::Busy,
        Cat::SwitchOverhead,
        Cat::MemoryStall,
        Cat::LockSpin,
        Cat::BarrierWait,
        Cat::Idle,
        Cat::IssueIdle,
    ];

    /// Short stable name (column headers, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Cat::Busy => "busy",
            Cat::SwitchOverhead => "switch-ovh",
            Cat::MemoryStall => "mem-stall",
            Cat::LockSpin => "lock-spin",
            Cat::BarrierWait => "barrier-wait",
            Cat::Idle => "idle",
            Cat::IssueIdle => "issue-idle",
        }
    }

    fn slot(self) -> usize {
        match self {
            Cat::Busy => 0,
            Cat::SwitchOverhead => 1,
            Cat::MemoryStall => 2,
            Cat::LockSpin => 3,
            Cat::BarrierWait => 4,
            Cat::Idle | Cat::IssueIdle => {
                panic!("{} is charged per processor, not per thread", self.name())
            }
        }
    }
}

/// The attribution table: one row of per-thread category counters per
/// thread, one idle counter per processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrTable {
    per_thread: Vec<[u64; THREAD_CATS]>,
    per_proc_idle: Vec<u64>,
    per_proc_issue_idle: Vec<u64>,
    /// Issue slots per cycle (1 for every model but SMT) — the `W` in the
    /// conservation law.
    issue_width: u64,
    /// Wall-clock run cycles, filled in when the run finishes.
    cycles: u64,
}

impl AttrTable {
    /// A zeroed table for `processors × total_threads`.
    pub fn new(processors: usize, total_threads: usize) -> AttrTable {
        AttrTable {
            per_thread: vec![[0; THREAD_CATS]; total_threads],
            per_proc_idle: vec![0; processors],
            per_proc_issue_idle: vec![0; processors],
            issue_width: 1,
            cycles: 0,
        }
    }

    /// Charges `cycles` on `thread` to `cat` (not [`Cat::Idle`]).
    #[inline]
    pub fn charge(&mut self, thread: usize, cat: Cat, cycles: u64) {
        self.per_thread[thread][cat.slot()] += cycles;
    }

    /// Charges `cycles` of idle to processor `proc`.
    #[inline]
    pub fn charge_idle(&mut self, proc: usize, cycles: u64) {
        self.per_proc_idle[proc] += cycles;
    }

    /// Charges `slots` unfilled issue slots to processor `proc`.
    #[inline]
    pub fn charge_issue_idle(&mut self, proc: usize, slots: u64) {
        self.per_proc_issue_idle[proc] += slots;
    }

    /// Records the issue width the run executed under.
    pub fn set_issue_width(&mut self, width: u64) {
        self.issue_width = width;
    }

    /// Issue slots per cycle (1 unless the run used the SMT model).
    pub fn issue_width(&self) -> u64 {
        self.issue_width
    }

    /// Records the run's wall-clock cycle count.
    pub fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Wall-clock run cycles (0 until the run finished).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.per_proc_idle.len()
    }

    /// Cycles charged to `thread` under `cat` (not [`Cat::Idle`]).
    pub fn thread_cat(&self, thread: usize, cat: Cat) -> u64 {
        self.per_thread[thread][cat.slot()]
    }

    /// Total cycles charged to `thread` across all categories.
    pub fn thread_total(&self, thread: usize) -> u64 {
        self.per_thread[thread].iter().sum()
    }

    /// Idle cycles charged to processor `proc`.
    pub fn proc_idle(&self, proc: usize) -> u64 {
        self.per_proc_idle[proc]
    }

    /// Unfilled issue slots charged to processor `proc`.
    pub fn proc_issue_idle(&self, proc: usize) -> u64 {
        self.per_proc_issue_idle[proc]
    }

    /// Sum of one category over all threads (or all processors for
    /// [`Cat::Idle`] and [`Cat::IssueIdle`]).
    pub fn total(&self, cat: Cat) -> u64 {
        match cat {
            Cat::Idle => self.per_proc_idle.iter().sum(),
            Cat::IssueIdle => self.per_proc_issue_idle.iter().sum(),
            _ => self.per_thread.iter().map(|row| row[cat.slot()]).sum(),
        }
    }

    /// The conservation law: every issue slot of every processor cycle is
    /// charged exactly once — thread categories and unfilled slots count
    /// one slot-cycle each, whole-processor idle counts `W` (all lanes
    /// sit empty) — so the table must sum to `processors × W × cycles`.
    /// With `W == 1` (every model but SMT, where `issue-idle` is zero)
    /// this is the original per-cycle law. Returns a description of the
    /// discrepancy, or `None` when it holds.
    pub fn conservation_error(&self, cycles: u64) -> Option<String> {
        let w = self.issue_width;
        let thread_cats: u64 = self.per_thread.iter().flatten().sum();
        let charged = thread_cats + self.total(Cat::IssueIdle) + w * self.total(Cat::Idle);
        let expect = cycles * self.per_proc_idle.len() as u64 * w;
        if charged == expect {
            None
        } else {
            Some(format!(
                "attribution leak: charged {charged} slot-cycles, machine ran {expect} \
                 ({} procs × {w} slots × {cycles} cycles)",
                self.per_proc_idle.len()
            ))
        }
    }

    /// Flattens into the `Copy` summary sweeps ship across threads.
    pub fn summary(&self) -> AttrSummary {
        AttrSummary {
            busy: self.total(Cat::Busy),
            switch_overhead: self.total(Cat::SwitchOverhead),
            memory_stall: self.total(Cat::MemoryStall),
            lock_spin: self.total(Cat::LockSpin),
            barrier_wait: self.total(Cat::BarrierWait),
            idle: self.total(Cat::Idle),
            issue_idle: self.total(Cat::IssueIdle),
        }
    }
}

/// Machine-wide attribution totals: flat and `Copy`, one per sweep point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrSummary {
    /// Cycles executing instructions.
    pub busy: u64,
    /// Context-switch overhead cycles.
    pub switch_overhead: u64,
    /// Memory-wait cycles (including fault-retry backoff).
    pub memory_stall: u64,
    /// Lock-spin cycles.
    pub lock_spin: u64,
    /// Barrier-wait cycles.
    pub barrier_wait: u64,
    /// End-of-run idle cycles.
    pub idle: u64,
    /// Unfilled issue slots (nonzero only under the SMT model).
    pub issue_idle: u64,
}

impl AttrSummary {
    /// Per-category totals in [`Cat::ALL`] order.
    pub fn by_cat(&self) -> [(Cat, u64); 7] {
        [
            (Cat::Busy, self.busy),
            (Cat::SwitchOverhead, self.switch_overhead),
            (Cat::MemoryStall, self.memory_stall),
            (Cat::LockSpin, self.lock_spin),
            (Cat::BarrierWait, self.barrier_wait),
            (Cat::Idle, self.idle),
            (Cat::IssueIdle, self.issue_idle),
        ]
    }

    /// The inverse of [`AttrSummary::by_cat`]: totals in [`Cat::ALL`]
    /// order.
    pub fn from_totals(
        [busy, switch_overhead, memory_stall, lock_spin, barrier_wait, idle, issue_idle]: [u64; 7],
    ) -> AttrSummary {
        AttrSummary {
            busy,
            switch_overhead,
            memory_stall,
            lock_spin,
            barrier_wait,
            idle,
            issue_idle,
        }
    }

    /// Sum over every category.
    pub fn total(&self) -> u64 {
        self.by_cat().iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_when_everything_is_charged() {
        let mut a = AttrTable::new(2, 4);
        a.charge(0, Cat::Busy, 60);
        a.charge(1, Cat::MemoryStall, 40);
        a.charge(2, Cat::LockSpin, 30);
        a.charge(3, Cat::BarrierWait, 50);
        a.charge_idle(0, 0);
        a.charge_idle(1, 20);
        assert_eq!(a.conservation_error(100), None);
        let s = a.summary();
        assert_eq!(s.total(), 200);
        assert_eq!(s.busy, 60);
        assert_eq!(s.idle, 20);
    }

    #[test]
    fn conservation_reports_a_leak() {
        let mut a = AttrTable::new(1, 1);
        a.charge(0, Cat::Busy, 99);
        let err = a.conservation_error(100).expect("one cycle missing");
        assert!(err.contains("99") && err.contains("100"), "{err}");
    }

    #[test]
    #[should_panic(expected = "per processor")]
    fn idle_cannot_be_charged_to_a_thread() {
        let mut a = AttrTable::new(1, 1);
        a.charge(0, Cat::Idle, 1);
    }

    #[test]
    #[should_panic(expected = "per processor")]
    fn issue_idle_cannot_be_charged_to_a_thread() {
        let mut a = AttrTable::new(1, 1);
        a.charge(0, Cat::IssueIdle, 1);
    }

    #[test]
    fn smt_conservation_scales_by_issue_width() {
        // 2 procs × 4 lanes × 100 cycles = 800 slot-cycles. Proc 0 runs
        // the whole time (finish 100): 130 busy + 270 unfilled slots.
        // Proc 1 finishes at 90: 200 busy + 160 unfilled, then idles 10
        // whole cycles (40 slot-cycles, scaled inside the law).
        let mut a = AttrTable::new(2, 4);
        a.set_issue_width(4);
        a.charge(0, Cat::Busy, 60);
        a.charge(1, Cat::Busy, 70);
        a.charge(2, Cat::Busy, 110);
        a.charge(3, Cat::Busy, 90);
        a.charge_issue_idle(0, 4 * 100 - 130);
        a.charge_issue_idle(1, 4 * 90 - 200);
        a.charge_idle(1, 10);
        assert_eq!(a.conservation_error(100), None);
        let s = a.summary();
        assert_eq!(s.issue_idle, 270 + 160);
        assert_eq!(s.by_cat().len(), Cat::ALL.len());
        // One busy slot-cycle short must be reported as a leak.
        a.charge_issue_idle(0, 1);
        let err = a.conservation_error(100).expect("leak");
        assert!(err.contains("4 slots"), "{err}");
    }
}
