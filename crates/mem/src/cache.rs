//! Per-processor shared-data caches with directory invalidation, and the
//! paper's §5.2 one-line grouping-estimator cache.

use mtsim_net::AddrMap;

/// Geometry of the per-processor shared-data cache.
///
/// The paper's §6 text does not fully specify the geometry (see DESIGN.md);
/// the default — 512 lines × 4 words (64-bit) = 16 KB, direct-mapped — lands
/// in the paper's reported regime and is a sweep parameter in the ablation
/// bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Number of direct-mapped lines (power of two).
    pub lines: usize,
    /// Words per line (power of two).
    pub line_words: u64,
}

impl Default for CacheParams {
    fn default() -> CacheParams {
        CacheParams { lines: 512, line_words: 4 }
    }
}

impl CacheParams {
    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero or not a power of two.
    pub fn validate(&self) {
        assert!(self.lines.is_power_of_two(), "cache lines must be a power of two");
        assert!(self.line_words.is_power_of_two(), "line words must be a power of two");
    }

    /// Cache capacity in 64-bit words.
    pub fn capacity_words(&self) -> u64 {
        self.lines as u64 * self.line_words
    }
}

/// Per-processor cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Load lookups that hit.
    pub hits: u64,
    /// Load lookups that missed (and filled the line).
    pub misses: u64,
    /// Lines invalidated here by remote stores.
    pub invalidations_received: u64,
    /// Lines evicted by conflicting fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all load lookups, `0.0` if there were none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another processor's stats into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations_received += other.invalidations_received;
        self.evictions += other.evictions;
    }
}

#[derive(Debug, Clone)]
struct Cache {
    /// `tags[index] = Some(line_addr)` when a line is resident.
    tags: Vec<Option<u64>>,
}

impl Cache {
    fn new(lines: usize) -> Cache {
        Cache { tags: vec![None; lines] }
    }

    fn index(&self, line: u64) -> usize {
        (line as usize) & (self.tags.len() - 1)
    }

    fn present(&self, line: u64) -> bool {
        self.tags[self.index(line)] == Some(line)
    }

    /// Fills `line`, returning the evicted line if a different one was
    /// resident.
    fn fill(&mut self, line: u64) -> Option<u64> {
        let idx = self.index(line);
        let evicted = self.tags[idx].filter(|&t| t != line);
        self.tags[idx] = Some(line);
        evicted
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let idx = self.index(line);
        if self.tags[idx] == Some(line) {
            self.tags[idx] = None;
            true
        } else {
            false
        }
    }
}

/// All processors' caches plus the full-map directory that keeps them
/// coherent.
///
/// Write policy: write-through, no-write-allocate. A store (or
/// fetch-and-add) invalidates every *other* processor's copy of the line —
/// those invalidation messages are what the paper's §6.1 counts as
/// coherency overhead. The storing processor's own copy stays resident
/// (write-through updates memory, and data values always come from
/// [`crate::SharedMemory`], so the cache never holds stale data — it only
/// models timing and traffic).
#[derive(Debug, Clone)]
pub struct CoherentCaches {
    params: CacheParams,
    /// `log2(line_words)`: the line of a word address is one shift away.
    line_shift: u32,
    caches: Vec<Cache>,
    stats: Vec<CacheStats>,
    /// Directory: for each resident line, the set of caching processors.
    sharers: AddrMap<u128>,
}

impl CoherentCaches {
    /// Creates caches for `processors` processors.
    ///
    /// # Panics
    ///
    /// Panics if `processors > 128` (the directory uses a 128-bit sharer
    /// mask) or the geometry is invalid.
    pub fn new(processors: usize, params: CacheParams) -> CoherentCaches {
        params.validate();
        assert!(processors <= 128, "directory supports at most 128 processors");
        CoherentCaches {
            params,
            line_shift: params.line_words.trailing_zeros(),
            caches: (0..processors).map(|_| Cache::new(params.lines)).collect(),
            stats: vec![CacheStats::default(); processors],
            sharers: AddrMap::default(),
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// The line holding word `addr` (`addr / line_words`; the line size
    /// is a power of two).
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Looks up a load at `addr` by processor `proc`; fills the line on a
    /// miss. Returns `true` on a hit.
    ///
    /// A miss evicts any conflicting resident line (updating the directory)
    /// and registers the processor as a sharer of the new line.
    pub fn load(&mut self, proc: usize, addr: u64) -> bool {
        let line = self.line_of(addr);
        if self.caches[proc].present(line) {
            self.stats[proc].hits += 1;
            return true;
        }
        self.stats[proc].misses += 1;
        if let Some(evicted) = self.caches[proc].fill(line) {
            self.stats[proc].evictions += 1;
            self.remove_sharer(evicted, proc);
        }
        *self.sharers.entry(line).or_insert(0) |= 1u128 << proc;
        false
    }

    /// Applies a store (or fetch-and-add) at `addr` by `proc`: invalidates
    /// every other sharer's copy and returns the number of invalidation
    /// messages sent.
    pub fn store(&mut self, proc: usize, addr: u64) -> u64 {
        let line = self.line_of(addr);
        let Some(mask) = self.sharers.get_mut(&line) else {
            return 0;
        };
        let others = *mask & !(1u128 << proc);
        let count = others.count_ones() as u64;
        if count > 0 {
            let mut m = others;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.caches[p].invalidate(line) {
                    self.stats[p].invalidations_received += 1;
                }
            }
            *mask &= !(others);
        }
        if *mask == 0 {
            self.sharers.remove(&line);
        }
        count
    }

    fn remove_sharer(&mut self, line: u64, proc: usize) {
        if let Some(mask) = self.sharers.get_mut(&line) {
            *mask &= !(1u128 << proc);
            if *mask == 0 {
                self.sharers.remove(&line);
            }
        }
    }

    /// Statistics for one processor's cache.
    pub fn stats(&self, proc: usize) -> CacheStats {
        self.stats[proc]
    }

    /// Aggregate statistics over all processors.
    pub fn total_stats(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }
}

/// The paper's §5.2 estimator: a single 32-word line per **thread**.
///
/// "We simulate a very small cache associated with each thread. The cache
/// has a line size of 32 words, but only one line. We assume that any loads
/// which hit in this cache are in the same structure or array as the
/// preceding reference and thus could have been grouped."
#[derive(Debug, Clone)]
pub struct OneLineCache {
    /// `log2` of the (power-of-two) line size in words.
    line_shift: u32,
    line: Option<u64>,
    hits: u64,
    accesses: u64,
}

impl Default for OneLineCache {
    fn default() -> OneLineCache {
        OneLineCache::new(32)
    }
}

impl OneLineCache {
    /// Creates the estimator with a given (power-of-two) line size; the
    /// paper uses 32 words.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` is not a power of two.
    pub fn new(line_words: u64) -> OneLineCache {
        assert!(line_words.is_power_of_two(), "line words must be a power of two");
        OneLineCache { line_shift: line_words.trailing_zeros(), line: None, hits: 0, accesses: 0 }
    }

    /// Records a shared-load access; returns `true` if it falls in the same
    /// aligned line as the previous access (i.e. could have been grouped).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let hit = self.line == Some(line);
        self.line = Some(line);
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate (`0.0` with no accesses) — the paper reports 42 % for ugray
    /// and 84 % for locus.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = CoherentCaches::new(2, CacheParams::default());
        assert!(!c.load(0, 100));
        assert!(c.load(0, 101)); // same 4-word line
        assert!(!c.load(1, 100)); // other processor misses separately
        assert_eq!(c.stats(0).hits, 1);
        assert_eq!(c.stats(0).misses, 1);
    }

    #[test]
    fn store_invalidates_other_sharers_only() {
        let mut c = CoherentCaches::new(3, CacheParams::default());
        c.load(0, 40);
        c.load(1, 40);
        c.load(2, 40);
        let inv = c.store(0, 40);
        assert_eq!(inv, 2);
        assert!(c.load(0, 40), "writer keeps its line");
        assert!(!c.load(1, 40), "sharer was invalidated");
        assert_eq!(c.stats(1).invalidations_received, 1);
    }

    #[test]
    fn store_to_uncached_line_sends_nothing() {
        let mut c = CoherentCaches::new(2, CacheParams::default());
        assert_eq!(c.store(0, 999), 0);
    }

    #[test]
    fn conflicting_fill_evicts_and_updates_directory() {
        let p = CacheParams { lines: 2, line_words: 1 };
        let mut c = CoherentCaches::new(2, p);
        c.load(0, 0); // line 0 -> index 0
        c.load(0, 2); // line 2 -> index 0, evicts line 0
        assert_eq!(c.stats(0).evictions, 1);
        // line 0 no longer cached anywhere: store sends no invalidations
        assert_eq!(c.store(1, 0), 0);
    }

    #[test]
    fn total_stats_aggregate() {
        let mut c = CoherentCaches::new(2, CacheParams::default());
        c.load(0, 0);
        c.load(1, 0);
        c.load(1, 1);
        let t = c.total_stats();
        assert_eq!(t.hits + t.misses, 3);
    }

    #[test]
    fn hit_rate_zero_when_empty() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn one_line_cache_tracks_preceding_reference() {
        let mut c = OneLineCache::default();
        assert!(!c.access(5));
        assert!(c.access(6)); // same 32-word line
        assert!(!c.access(64)); // different line
        assert!(!c.access(5)); // line was replaced
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.hits(), 1);
        assert!((c.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shift_line_math_equals_division() {
        let addrs = (0..300u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]);
        for shift in 0..=12u32 {
            let line_words = 1u64 << shift;
            let c = CoherentCaches::new(1, CacheParams { lines: 8, line_words });
            let mut one = OneLineCache::new(line_words);
            let mut prev: Option<u64> = None;
            for a in addrs.clone() {
                assert_eq!(c.line_of(a), a / line_words, "line_words {line_words}, addr {a}");
                // The estimator hits exactly when the quotient repeats.
                let hit = prev == Some(a / line_words);
                assert_eq!(one.access(a), hit, "one-line, line_words {line_words}, addr {a}");
                prev = Some(a / line_words);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn one_line_cache_validates() {
        let _ = OneLineCache::new(33);
    }
}
