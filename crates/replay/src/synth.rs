//! Seeded synthetic traces with the locality/sharing knobs the
//! `mtsim-trace` characterization measures.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use mtsim_mem::{TraceEvent, TraceKind};
use mtsim_rng::Rng;

/// Knobs for [`synthesize`]. The locality and sharing fractions map
/// directly onto what `mtsim_trace::stride_histogram` and
/// `reuse_profile` measure: high `locality` yields unit strides (a
/// blkmat-like trace), low locality with high `sharing` yields the
/// scattered hot-word traffic of mp3d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Master seed; every thread's stream derives from it.
    pub seed: u64,
    /// Threads in the trace (ids `0..threads`).
    pub threads: usize,
    /// Events generated per thread.
    pub events_per_thread: usize,
    /// Address space in words (all addresses fall below this).
    pub addr_words: u64,
    /// Probability the next access continues at `prev + 1` (unit stride).
    pub locality: f64,
    /// Probability an access targets the shared hot region (the first 16
    /// words) instead of the thread's private walk.
    pub sharing: f64,
    /// Probability an access is a fetch-and-add.
    pub fa_fraction: f64,
    /// Probability an access is a pair (Load-Double/Store-Double).
    pub pair_fraction: f64,
    /// Probability a non-FA, non-pair access is a write (else a read).
    pub write_fraction: f64,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            seed: 0,
            threads: 4,
            events_per_thread: 64,
            addr_words: 4096,
            locality: 0.6,
            sharing: 0.2,
            fa_fraction: 0.15,
            pair_fraction: 0.1,
            write_fraction: 0.3,
        }
    }
}

/// Words in the shared hot region (clamped to the address space).
const HOT_WORDS: u64 = 16;

/// One thread's event stream: its own RNG, clock and last address, so
/// threads draw independently of how their events interleave.
struct Stream {
    rng: Rng,
    /// Time of the stream's next event.
    time: u64,
    prev: u64,
    left: usize,
}

impl Stream {
    fn new(cfg: &SynthConfig, t: usize, words: u64) -> Stream {
        let mut rng = Rng::derive(cfg.seed, &format!("replay-synth-{t}"));
        let time = rng.below(16);
        let prev = rng.below(words);
        Stream { rng, time, prev, left: cfg.events_per_thread }
    }

    /// Draws the stream's next event (thread `t`) and advances its clock.
    fn next(&mut self, cfg: &SynthConfig, t: u32, words: u64, hot: u64) -> TraceEvent {
        let rng = &mut self.rng;
        let addr = if rng.chance(cfg.sharing) {
            rng.below(hot)
        } else if rng.chance(cfg.locality) {
            (self.prev + 1) % words
        } else {
            rng.below(words)
        };
        self.prev = addr;
        let kind = if rng.chance(cfg.fa_fraction) {
            TraceKind::FetchAdd
        } else if rng.chance(cfg.pair_fraction) {
            if rng.chance(0.5) {
                TraceKind::ReadPair
            } else {
                TraceKind::WritePair
            }
        } else if rng.chance(cfg.write_fraction) {
            TraceKind::Write
        } else {
            TraceKind::Read
        };
        // Pairs touch addr+1; keep both words in range.
        let addr = match kind {
            TraceKind::ReadPair | TraceKind::WritePair => addr.min(words - 2),
            _ => addr,
        };
        let event = TraceEvent { time: self.time, proc: t, thread: t, kind, addr, spin: false };
        self.time += 1 + rng.below(40);
        self.left -= 1;
        event
    }
}

/// Generates a deterministic synthetic trace: per-thread streams with the
/// configured stride locality and hot-region sharing, merged in event-time
/// order. Same config → same trace, byte for byte.
pub fn synthesize(cfg: &SynthConfig) -> Vec<TraceEvent> {
    let words = cfg.addr_words.max(2);
    let hot = HOT_WORDS.min(words);
    let mut streams: Vec<Stream> = (0..cfg.threads).map(|t| Stream::new(cfg, t, words)).collect();
    // A realistic interchange trace is globally time-ordered; ties break
    // by thread id so the merge itself is deterministic. Each stream's
    // times strictly increase, so the (time, thread) keys are unique and
    // merging the streams by them gives the same order as sorting.
    let mut heads: BinaryHeap<Reverse<(u64, u32)>> = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| s.left > 0)
        .map(|(t, s)| Reverse((s.time, t as u32)))
        .collect();
    let mut events = Vec::with_capacity(cfg.threads * cfg.events_per_thread);
    while let Some(mut head) = heads.peek_mut() {
        let t = head.0 .1;
        let stream = &mut streams[t as usize];
        events.push(stream.next(cfg, t, words, hot));
        if stream.left == 0 {
            PeekMut::pop(head);
        } else {
            head.0 .0 = stream.time;
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let cfg = SynthConfig { seed: 7, ..SynthConfig::default() };
        assert_eq!(synthesize(&cfg), synthesize(&cfg));
        let other = SynthConfig { seed: 8, ..cfg };
        assert_ne!(synthesize(&cfg), synthesize(&other));
    }

    #[test]
    fn knobs_shape_the_trace() {
        let local = synthesize(&SynthConfig {
            seed: 1,
            locality: 1.0,
            sharing: 0.0,
            pair_fraction: 0.0,
            ..SynthConfig::default()
        });
        let h = mtsim_trace::stride_histogram(&local);
        assert!(h.local_fraction() > 0.95, "{h:?}");

        let scattered = synthesize(&SynthConfig {
            seed: 1,
            locality: 0.0,
            sharing: 0.0,
            pair_fraction: 0.0,
            ..SynthConfig::default()
        });
        let h = mtsim_trace::stride_histogram(&scattered);
        assert!(h.local_fraction() < 0.3, "{h:?}");

        // Full sharing concentrates traffic on the hot words.
        let shared = synthesize(&SynthConfig { seed: 1, sharing: 1.0, ..SynthConfig::default() });
        assert!(shared.iter().all(|e| e.addr < HOT_WORDS + 1));
    }

    #[test]
    fn trace_is_time_sorted_and_complete() {
        let cfg = SynthConfig { seed: 3, threads: 5, events_per_thread: 20, ..Default::default() };
        let events = synthesize(&cfg);
        assert_eq!(events.len(), 100);
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        for t in 0..5u32 {
            assert_eq!(events.iter().filter(|e| e.thread == t).count(), 20);
        }
    }

    #[test]
    fn synthetic_traces_compile_and_verify() {
        for seed in 0..4 {
            let cfg = SynthConfig { seed, threads: 3, events_per_thread: 30, ..Default::default() };
            let tp = crate::compile(&synthesize(&cfg)).unwrap();
            assert_eq!(tp.nthreads, 3);
            use mtsim_core::{Machine, MachineConfig, SwitchModel};
            let mcfg = MachineConfig::new(SwitchModel::Smt, 1, 3).with_latency(200);
            let fin = Machine::new(mcfg, &tp.program, tp.shared()).run().unwrap();
            tp.verify(&fin.shared).unwrap();
        }
    }
}
