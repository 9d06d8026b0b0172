//! The engine's discrete-event queue (DESIGN.md §20).
//!
//! Processors hand control back to the event loop whenever they cannot
//! make progress before another processor might touch shared memory; the
//! queue hands out the earliest-scheduled processor next, jumping the
//! global clock straight to that event time — idle gaps are *skipped*,
//! never ticked. Ordering is `(time, seq)`: ties in time are broken by
//! insertion sequence, which makes the interleaving of equal-time events
//! deterministic and independent of the queue's representation.
//!
//! The type exists (rather than an inline heap in the run loop) so its
//! contract is stated and enforced in one place:
//!
//! * **Monotone clock**: pop times never decrease (checked on every pop
//!   under `debug-invariants`, and by the property tests).
//! * **Conservation**: every pushed event is popped exactly once — no
//!   event skipped, none double-fired. [`EventQueue::assert_drained`]
//!   checks the ledger when the run completes.
//! * **Skip-ahead**: `pop` returns the event time so the caller can
//!   advance its clock discontinuously; the queue itself never ticks.
//!
//! The backing store is one `(time, seq)` slot per processor, because
//! the engine holds at most one live event per processor: a processor is
//! running, scheduled once, or finished. `push` writes the slot and
//! updates the cached head in O(1). `pop` empties the head's slot and
//! finds the next head in one scan over all slots, comparing each key as
//! one `u128` so that the scan has no data-dependent branches. That is
//! O(P) per pop: a handful of compares at the paper's four processors.
//! The sorted vector it replaced shifted O(P) entries per push, and the
//! binary heap before that spent over a tenth of wall time sifting. On a
//! machine with a thousand or more processors the scan is slower than
//! that shift was; blocked scans and a winner tree fixed that but cost
//! the paper's four-processor grid more than they saved (DESIGN.md §20). Sequence numbers are unique, so the
//! least `(time, seq)` is unambiguous and equal times pop in push order,
//! whatever the processor numbers. Under `debug-invariants` a second
//! live event for one processor panics.

/// An empty slot. No live event carries it: sequence numbers count
/// pushes, so a live slot's `seq` is below `u64::MAX`.
const EMPTY: (u64, u64) = (u64::MAX, u64::MAX);

/// Min-queue of `(time, seq, proc)` wake events, at most one per
/// processor, with deterministic tie-breaking and a push/pop
/// conservation ledger.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `slots[p]` is processor `p`'s scheduled `(time, seq)`, or
    /// [`EMPTY`]. Grows to the largest processor pushed.
    slots: Vec<(u64, u64)>,
    /// The slot holding the least `(time, seq)`; meaningful only while
    /// `live > 0`.
    head: usize,
    /// Scheduled (not yet fired) events.
    live: usize,
    /// Next insertion sequence number (also the lifetime push count).
    seq: u64,
    /// Events popped so far (the retire side of the conservation law).
    popped: u64,
    /// Latest popped time; pops are checked monotone against it under
    /// `debug-invariants`.
    last_time: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules processor `p` to run at `time`. Events pushed at equal
    /// times fire in push order. `p` must not already have a scheduled
    /// event (asserted under `debug-invariants`).
    #[inline]
    pub fn push(&mut self, time: u64, p: usize) {
        if p >= self.slots.len() {
            self.grow(p);
        }
        #[cfg(feature = "debug-invariants")]
        assert!(
            self.slots[p] == EMPTY,
            "processor {p} already has a live event at {:?}",
            self.slots[p]
        );
        let key = (time, self.seq);
        self.slots[p] = key;
        self.seq += 1;
        self.live += 1;
        if self.live == 1 || key < self.slots[self.head] {
            self.head = p;
        }
    }

    /// Makes room for processor `p`'s slot: once per processor, so out
    /// of the inlined push.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, p: usize) {
        self.slots.resize(p + 1, EMPTY);
    }

    /// Removes and returns the earliest `(time, proc)` event, or `None`
    /// when the queue is empty (the run is complete).
    ///
    /// Under `debug-invariants`, panics if the event clock would run
    /// backwards — the caller pushing an event earlier than one already
    /// popped is the bug this catches.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        if self.live == 0 {
            return None;
        }
        let p = self.head;
        let (t, _) = std::mem::replace(&mut self.slots[p], EMPTY);
        self.live -= 1;
        if self.live > 0 {
            // One `u128` compare per slot keeps the scan free of
            // data-dependent branches.
            let (mut head, mut least) = (0, u128::MAX);
            for (q, &(time, seq)) in self.slots.iter().enumerate() {
                let key = (u128::from(time) << 64) | u128::from(seq);
                let less = key < least;
                least = if less { key } else { least };
                head = if less { q } else { head };
            }
            self.head = head;
        }
        #[cfg(feature = "debug-invariants")]
        assert!(t >= self.last_time, "event clock ran backwards: {t} < {}", self.last_time);
        self.last_time = t;
        self.popped += 1;
        Some((t, p))
    }

    /// The earliest scheduled event time without removing it, or
    /// `u64::MAX` when nothing is scheduled — the value a running
    /// processor compares against to find its shared-access horizon.
    #[inline]
    pub fn peek_time(&self) -> u64 {
        if self.live == 0 {
            u64::MAX
        } else {
            self.slots[self.head].0
        }
    }

    /// Number of scheduled (not yet fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifetime push count.
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Lifetime pop count.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Asserts the conservation law at end of run: every event pushed was
    /// fired exactly once (`pushed == popped` and no slot is live).
    /// Called by the run loop after the queue drains; also the closing
    /// check of the property tests.
    #[track_caller]
    pub fn assert_drained(&self) {
        assert!(
            self.live == 0 && self.seq == self.popped,
            "event conservation broken: pushed {} != popped {} (+{} still queued)",
            self.seq,
            self.popped,
            self.live
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(5, 0);
        q.push(3, 1);
        q.push(5, 2);
        q.push(0, 3);
        assert_eq!(q.pop(), Some((0, 3)));
        assert_eq!(q.pop(), Some((3, 1)));
        // Equal times fire in push order: proc 0 before proc 2.
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), None);
        q.assert_drained();
    }

    #[test]
    fn equal_times_pop_in_push_order_not_processor_order() {
        let mut q = EventQueue::new();
        // Processors pushed in non-index order, all at one time: they
        // must come back in push order.
        for p in [5, 2, 7, 0, 3] {
            q.push(10, p);
        }
        q.push(4, 6);
        assert_eq!(q.pop(), Some((4, 6)));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [5, 2, 7, 0, 3]);
        // A processor re-pushed after firing queues behind the older
        // equal-time events again.
        q.push(20, 1);
        q.push(20, 0);
        q.push(20, 4);
        assert_eq!(q.pop(), Some((20, 1)));
        q.push(20, 1);
        assert_eq!(q.pop(), Some((20, 0)));
        assert_eq!(q.pop(), Some((20, 4)));
        assert_eq!(q.pop(), Some((20, 1)));
        q.assert_drained();
    }

    #[test]
    fn many_processors_pop_in_key_order() {
        // Processors pushed from the highest down (the first push sizes
        // the tree), times from a small generator so ties are common.
        let mut q = EventQueue::new();
        let mut x = 7u64;
        let mut want = Vec::new();
        for (order, p) in (0..1000usize).rev().enumerate() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = (x >> 33) % 50;
            q.push(t, p);
            want.push((t, order, p));
        }
        want.sort();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<(u64, usize)> = want.into_iter().map(|(t, _, p)| (t, p)).collect();
        assert_eq!(got, want);
        q.assert_drained();
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "already has a live event")]
    fn second_live_event_for_one_processor_panics() {
        let mut q = EventQueue::new();
        q.push(3, 1);
        q.push(5, 1);
    }

    #[test]
    fn peek_time_is_the_next_horizon() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), u64::MAX);
        q.push(7, 0);
        q.push(4, 1);
        assert_eq!(q.peek_time(), 4);
        q.pop();
        assert_eq!(q.peek_time(), 7);
    }

    #[test]
    fn ledger_counts_every_event() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(i, i as usize);
        }
        assert_eq!(q.pushed(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 10);
        q.assert_drained();
    }

    #[test]
    #[should_panic(expected = "event conservation broken")]
    fn undrained_queue_fails_the_conservation_check() {
        let mut q = EventQueue::new();
        q.push(1, 0);
        q.assert_drained();
    }

    /// Deterministic pseudo-random workload: interleaved pushes and pops
    /// must preserve monotonicity and conservation. (The shrinking fuzz
    /// version of this property lives in `mtsim-check`.)
    #[test]
    fn random_interleaving_stays_monotone_and_conserving() {
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut q = EventQueue::new();
        let mut clock = 0u64;
        // At most one live event per processor, as in the engine.
        let mut live = [false; 8];
        for _ in 0..10_000 {
            let p = (step() % 8) as usize;
            if q.is_empty() || (!live[p] && step() % 3 != 0) {
                if live[p] {
                    continue;
                }
                // New events may never be scheduled in the past.
                q.push(clock + step() % 100, p);
                live[p] = true;
            } else {
                let (t, p) = q.pop().expect("nonempty");
                assert!(t >= clock, "clock ran backwards");
                clock = t;
                live[p] = false;
            }
        }
        while let Some((t, _)) = q.pop() {
            assert!(t >= clock);
            clock = t;
        }
        q.assert_drained();
    }
}
