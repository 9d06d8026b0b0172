//! Shared artifact cache: build each application image once per cache
//! lifetime.
//!
//! A grid point needs up to three artifacts: the built application
//! (program + initialized shared memory + verifier) keyed by `(app,
//! scale, nthreads)` — the program's *shape*, i.e. everything codegen
//! depends on; under the explicit/conditional switch models or a pinned
//! `intra` opt level, the grouped program produced by the load-grouping
//! pass together with its statistics; and the pre-decoded program the
//! engine runs. Two guarantees hold at any worker count:
//!
//! * **Each key builds exactly once.** Every key maps to a `OnceLock`
//!   slot; concurrent first lookups race to initialize it, the losers
//!   block until the winner finishes, and nobody builds a duplicate
//!   that gets thrown away. That also makes the hit/miss counters
//!   deterministic: misses ≡ distinct keys built, hits ≡ everything
//!   else.
//! * **Grouping and decoding are deduplicated by program content.** Some
//!   applications emit the same program at every thread count (only
//!   their input image differs), so grouped and decoded programs are
//!   keyed by the program's [`Program::content_key`] (its instructions
//!   and local-memory size, not its name) rather than the full `(app,
//!   scale, nthreads)` key — those apps pay for one grouping pass and
//!   one decode per sweep, not one per thread-count axis value. The key
//!   hashes the instructions directly, so a lookup never renders the
//!   program as text and a hit allocates nothing.
//!
//! * **Each host reference is computed once per `(app, scale)`.** The
//!   reference an app verifies against (its `host_*` computation) does
//!   not depend on the thread count, so builds of one `(app, scale)` at
//!   every thread count share one [`AppReference`] through a slot of the
//!   same `OnceLock` kind. Reference slots are a detail of building: they
//!   are not counted in the hit, miss or entry figures, and
//!   [`ArtifactCache::evict_to`] drops one once no built entry of its
//!   `(app, scale)` remains.
//!
//! The cache's lifetime is the caller's choice: `run_sweep` creates a
//! private one per sweep by default, while a long-running service
//! ([`SweepOpts::cache`](crate::SweepOpts)) shares one across requests
//! so programs compile once per *server* lifetime. For that second use
//! the cache supports bounded retention: every lookup stamps its entry
//! with a logical clock, and [`ArtifactCache::evict_to`] drops the
//! least-recently-used entries down to a cap — called between sweeps,
//! never during one, so in-flight `Arc`s stay valid and sweep-internal
//! counters stay deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mtsim_apps::{build_app_with, reference, AppKind, AppReference, BuiltApp, Scale};
use mtsim_asm::Program;
use mtsim_core::DecodedProgram;
use mtsim_opt::GroupStats;

type Key = (AppKind, Scale, usize);
/// A cached grouping-pass output: the rewritten image with its statistics.
type Grouped = (Arc<Program>, Arc<GroupStats>);
/// A host reference's slot; it carries no LRU stamp.
type RefSlot = Arc<OnceLock<Arc<AppReference>>>;

/// One cached slot plus the logical time of its most recent lookup.
struct Entry<T> {
    slot: Arc<OnceLock<T>>,
    stamp: u64,
}

impl<T> Entry<T> {
    fn new(stamp: u64) -> Entry<T> {
        Entry { slot: Arc::default(), stamp }
    }
}

/// Thread-safe cache of built applications, grouped programs and decoded
/// programs.
#[derive(Default)]
pub struct ArtifactCache {
    built: Mutex<HashMap<Key, Entry<Arc<BuiltApp>>>>,
    /// Host references by `(app, scale)`, shared by the builds of every
    /// thread count. Uncounted, and unstamped: they leave with the last
    /// built entry of their `(app, scale)`.
    references: Mutex<HashMap<(AppKind, Scale), RefSlot>>,
    /// Grouped programs keyed by the *content key* of the source
    /// program, so shape-invariant programs group once per sweep. The
    /// statistics ride along: they are a pure function of the same key.
    grouped: Mutex<HashMap<u64, Entry<Grouped>>>,
    /// Pre-decoded programs (DESIGN.md §20), also keyed by content
    /// key: the engine's dense decoded form is resolved once per
    /// distinct program per cache lifetime, never per grid point.
    decoded: Mutex<HashMap<u64, Entry<Arc<DecodedProgram>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock for LRU stamps; bumped on every lookup.
    clock: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// The built application for `(app, scale, nthreads)`, constructing
    /// it on first use. The boolean is true on a cache hit (this call
    /// did not perform the build — it may still have *waited* for a
    /// concurrent builder).
    pub fn built(&self, app: AppKind, scale: Scale, nthreads: usize) -> (Arc<BuiltApp>, bool) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut map = self.built.lock().unwrap();
            let entry = map.entry((app, scale, nthreads)).or_insert_with(|| Entry::new(stamp));
            entry.stamp = stamp;
            Arc::clone(&entry.slot)
        };
        // Build outside the map lock: codegen + input-image construction
        // is the expensive part and must not serialize unrelated keys.
        let mut built_here = false;
        let value = slot.get_or_init(|| {
            built_here = true;
            Arc::new(build_app_with(app, scale, nthreads, &self.reference(app, scale)))
        });
        self.count(built_here);
        (Arc::clone(value), !built_here)
    }

    /// The host reference of `(app, scale)`, computing it on first use.
    /// Racing builders of one `(app, scale)` wait for a single
    /// computation, as for every other slot, but the lookup is not
    /// counted.
    fn reference(&self, app: AppKind, scale: Scale) -> Arc<AppReference> {
        let slot = Arc::clone(self.references.lock().unwrap().entry((app, scale)).or_default());
        Arc::clone(slot.get_or_init(|| reference(app, scale)))
    }

    /// The grouped (explicit-switch) program for `(app, scale,
    /// nthreads)` and the grouping pass's statistics, deriving both from
    /// the built application on first use. The boolean is true on a
    /// cache hit.
    pub fn grouped(
        &self,
        app: AppKind,
        scale: Scale,
        nthreads: usize,
    ) -> (Arc<Program>, Arc<GroupStats>, bool) {
        let (base, _) = self.built(app, scale, nthreads);
        let content = base.program.content_key();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut map = self.grouped.lock().unwrap();
            let entry = map.entry(content).or_insert_with(|| Entry::new(stamp));
            entry.stamp = stamp;
            Arc::clone(&entry.slot)
        };
        let mut built_here = false;
        let (program, stats) = slot.get_or_init(|| {
            built_here = true;
            let (program, stats) = base.grouped();
            (Arc::new(program), Arc::new(stats))
        });
        self.count(built_here);
        (Arc::clone(program), Arc::clone(stats), !built_here)
    }

    /// The pre-decoded form of `program`, decoding it on first use. Like
    /// grouped programs, decoded programs are keyed by content key, so
    /// shape-invariant applications decode once per sweep regardless of
    /// the thread-count axis. The boolean is true on a cache hit.
    pub fn decoded(&self, program: &Program) -> (Arc<DecodedProgram>, bool) {
        let content = program.content_key();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut map = self.decoded.lock().unwrap();
            let entry = map.entry(content).or_insert_with(|| Entry::new(stamp));
            entry.stamp = stamp;
            Arc::clone(&entry.slot)
        };
        let mut built_here = false;
        let value = slot.get_or_init(|| {
            built_here = true;
            Arc::new(DecodedProgram::decode(program))
        });
        self.count(built_here);
        (Arc::clone(value), !built_here)
    }

    fn count(&self, built_here: bool) {
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cache hits so far. Deterministic for a fixed job set: total
    /// lookups minus [`ArtifactCache::misses`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses — i.e. builds actually performed — so far.
    /// Deterministic for a fixed job set: one per distinct artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by [`ArtifactCache::evict_to`] so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident (built apps + grouped programs +
    /// decoded programs).
    pub fn entries(&self) -> usize {
        self.built.lock().unwrap().len()
            + self.grouped.lock().unwrap().len()
            + self.decoded.lock().unwrap().len()
    }

    /// Evicts least-recently-used entries until at most `max_entries`
    /// remain across every map; returns how many were dropped. Meant to
    /// run *between* sweeps (a service calls it after each job): entries
    /// a running sweep already looked up stay alive through their
    /// `Arc`s regardless, but evicting mid-sweep would skew that sweep's
    /// deterministic hit/miss accounting.
    pub fn evict_to(&self, max_entries: usize) -> u64 {
        fn oldest<K: Copy + Eq + std::hash::Hash, T>(m: &HashMap<K, Entry<T>>) -> Option<(K, u64)> {
            m.iter().min_by_key(|(_, e)| e.stamp).map(|(k, e)| (*k, e.stamp))
        }
        let mut built = self.built.lock().unwrap();
        let mut grouped = self.grouped.lock().unwrap();
        let mut decoded = self.decoded.lock().unwrap();
        let mut dropped = 0u64;
        while built.len() + grouped.len() + decoded.len() > max_entries {
            let ob = oldest(&built);
            let og = oldest(&grouped);
            let od = oldest(&decoded);
            let sb = ob.map_or(u64::MAX, |(_, s)| s);
            let sg = og.map_or(u64::MAX, |(_, s)| s);
            let sd = od.map_or(u64::MAX, |(_, s)| s);
            let min = sb.min(sg).min(sd);
            if min == u64::MAX {
                break;
            }
            // Stamps are unique (a fetch_add'd clock), so exactly one map
            // holds the minimum.
            if sb == min {
                built.remove(&ob.unwrap().0);
            } else if sg == min {
                grouped.remove(&og.unwrap().0);
            } else {
                decoded.remove(&od.unwrap().0);
            }
            dropped += 1;
        }
        self.references
            .lock()
            .unwrap()
            .retain(|&(app, scale), _| built.keys().any(|&(a, s, _)| (a, s) == (app, scale)));
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_apps::build_app;

    /// The resident reference of `(app, scale)`, if any.
    fn resident(cache: &ArtifactCache, app: AppKind, scale: Scale) -> Option<Arc<AppReference>> {
        cache.references.lock().unwrap().get(&(app, scale)).and_then(|slot| slot.get().cloned())
    }

    #[test]
    fn thread_counts_share_one_uncounted_reference() {
        let cache = ArtifactCache::new();
        cache.built(AppKind::Ugray, Scale::Tiny, 1);
        let first = resident(&cache, AppKind::Ugray, Scale::Tiny).unwrap();
        let apps: Vec<_> =
            [2, 4, 8].into_iter().map(|t| cache.built(AppKind::Ugray, Scale::Tiny, t).0).collect();
        let last = resident(&cache, AppKind::Ugray, Scale::Tiny).unwrap();
        assert!(Arc::ptr_eq(&first, &last), "one reference per (app, scale)");
        // The map, the two handles above and the four verifiers hold it.
        assert_eq!(Arc::strong_count(&first), 3 + 4);
        drop(apps);
        // Counted as without the reference: four builds, four entries.
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (0, 4, 4));
        cache.built(AppKind::Ugray, Scale::Tiny, 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 4));

        assert_eq!(cache.evict_to(0), 4);
        assert!(cache.references.lock().unwrap().is_empty(), "no reference outlives its builds");
    }

    #[test]
    fn a_reference_leaves_with_the_last_build_of_its_app_and_scale() {
        let cache = ArtifactCache::new();
        cache.built(AppKind::Sieve, Scale::Tiny, 1);
        cache.built(AppKind::Sieve, Scale::Tiny, 2);
        cache.built(AppKind::Sor, Scale::Tiny, 1);
        assert_eq!(cache.evict_to(2), 1);
        assert!(resident(&cache, AppKind::Sieve, Scale::Tiny).is_some(), "sieve T=2 remains");
        assert_eq!(cache.evict_to(1), 1);
        assert!(resident(&cache, AppKind::Sieve, Scale::Tiny).is_none());
        assert!(resident(&cache, AppKind::Sor, Scale::Tiny).is_some());
    }

    #[test]
    fn racing_builders_compute_one_reference() {
        let cache = ArtifactCache::new();
        let apps: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = [1, 2, 4, 8]
                .into_iter()
                .map(|t| {
                    s.spawn({
                        let cache = &cache;
                        move || cache.built(AppKind::Mp3d, Scale::Tiny, t).0
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!((cache.hits(), cache.misses()), (0, 4));
        assert_eq!(cache.references.lock().unwrap().len(), 1);
        // Every verifier holds the one reference the map holds.
        let shared = resident(&cache, AppKind::Mp3d, Scale::Tiny).unwrap();
        assert_eq!(Arc::strong_count(&shared), 2 + apps.len());
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = ArtifactCache::new();
        let (a, hit_a) = cache.built(AppKind::Sieve, Scale::Tiny, 2);
        let (b, hit_b) = cache.built(AppKind::Sieve, Scale::Tiny, 2);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_thread_counts_are_distinct_entries() {
        let cache = ArtifactCache::new();
        let (_, h1) = cache.built(AppKind::Sieve, Scale::Tiny, 1);
        let (_, h2) = cache.built(AppKind::Sieve, Scale::Tiny, 2);
        assert!(!h1 && !h2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn grouped_program_matches_a_fresh_grouping() {
        let cache = ArtifactCache::new();
        let (grouped, stats, hit) = cache.grouped(AppKind::Sieve, Scale::Tiny, 2);
        assert!(!hit);
        let (fresh, fresh_stats) = build_app(AppKind::Sieve, Scale::Tiny, 2).grouped();
        assert_eq!(*grouped, fresh);
        assert_eq!(*stats, fresh_stats);
        let (again, again_stats, hit2) = cache.grouped(AppKind::Sieve, Scale::Tiny, 2);
        assert!(hit2);
        assert!(Arc::ptr_eq(&grouped, &again) && Arc::ptr_eq(&stats, &again_stats));
    }

    #[test]
    fn grouping_dedupes_shape_invariant_programs() {
        // Blkmat emits the same program at every thread count (only its
        // input image differs), so two thread counts share one grouping.
        let cache = ArtifactCache::new();
        let (g1, _, _) = cache.grouped(AppKind::Blkmat, Scale::Tiny, 1);
        let (g2, _, hit) = cache.grouped(AppKind::Blkmat, Scale::Tiny, 2);
        assert!(Arc::ptr_eq(&g1, &g2), "identical programs must share a grouping");
        assert!(hit);
        // Sieve's program depends on the thread count, so it must not.
        let (s1, _, _) = cache.grouped(AppKind::Sieve, Scale::Tiny, 1);
        let (s2, _, _) = cache.grouped(AppKind::Sieve, Scale::Tiny, 2);
        assert!(!Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn decoded_program_matches_a_fresh_decode_and_dedupes_by_content() {
        let cache = ArtifactCache::new();
        let (a1, _) = cache.built(AppKind::Blkmat, Scale::Tiny, 1);
        let (a2, _) = cache.built(AppKind::Blkmat, Scale::Tiny, 2);
        let (d1, hit1) = cache.decoded(&a1.program);
        assert!(!hit1);
        assert_eq!(d1.insts().len(), a1.program.len());
        let fresh = DecodedProgram::decode(&a1.program);
        assert_eq!(format!("{:?}", d1.insts()), format!("{:?}", fresh.insts()));
        // Blkmat's program is thread-count-invariant: one decode serves
        // both entries.
        let (d2, hit2) = cache.decoded(&a2.program);
        assert!(hit2);
        assert!(Arc::ptr_eq(&d1, &d2), "identical programs must share a decode");
    }

    #[test]
    fn concurrent_first_lookups_build_exactly_once() {
        let cache = ArtifactCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.built(AppKind::Sor, Scale::Tiny, 4));
            }
        });
        assert_eq!(cache.misses(), 1, "duplicate concurrent build");
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn eviction_drops_lru_first_and_a_reinserted_key_rebuilds() {
        let cache = ArtifactCache::new();
        cache.built(AppKind::Sieve, Scale::Tiny, 1);
        cache.built(AppKind::Sieve, Scale::Tiny, 2);
        // Touch the first entry again: it is now the most recent.
        cache.built(AppKind::Sieve, Scale::Tiny, 1);
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.evict_to(1), 1);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.evictions(), 1);
        // The survivor is the recently-touched key; looking it up hits.
        let (_, hit) = cache.built(AppKind::Sieve, Scale::Tiny, 1);
        assert!(hit, "the most-recently-used entry must survive eviction");
        // The evicted key rebuilds (a miss), proving it really left.
        let (_, hit) = cache.built(AppKind::Sieve, Scale::Tiny, 2);
        assert!(!hit, "an evicted entry must rebuild on next lookup");
        assert_eq!(cache.evict_to(0), 2);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn eviction_spans_both_maps_by_recency() {
        let cache = ArtifactCache::new();
        cache.grouped(AppKind::Sieve, Scale::Tiny, 1); // built + grouped entries
        cache.built(AppKind::Sor, Scale::Tiny, 1);
        assert_eq!(cache.entries(), 3);
        // Keep only the newest entry: the two older ones go, whichever
        // map they live in.
        assert_eq!(cache.evict_to(1), 2);
        let (_, hit) = cache.built(AppKind::Sor, Scale::Tiny, 1);
        assert!(hit, "newest entry must survive");
    }
}
