//! Host-independent work counters: heap allocations made by `compile`,
//! `group_shared_loads` and `DecodedProgram::decode` on the 600-event x
//! 16-thread synthetic trace, and by the artifact cache's warm lookups.
//!
//! Wall time on a shared host is too noisy to gate on; an allocation count
//! is exact. Each stage's bound grows with the trace's threads or the
//! program's basic blocks, never with its events or instructions, so a
//! per-event or per-instruction heap allocation fails the test. Only the
//! calling thread's allocations are counted, so tests running beside this
//! one in other threads do not disturb it.

use mtsim::apps::{AppKind, Scale};
use mtsim::core::DecodedProgram;
use mtsim::opt::group_shared_loads;
use mtsim::sweep::ArtifactCache;
use mtsim_replay::{compile, synthesize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod support;
use support::synth_cases;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations (and reallocations)
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Slack for the amortized growth of output and scratch vectors: a vector
/// that doubles to hold a million entries reallocates about 20 times, so
/// each stage may spend a few dozen allocations whatever its size.
const LOG_SLACK: u64 = 64;

#[test]
fn replay_pipeline_allocations_scale_with_threads_and_blocks() {
    let (_, cfg) = synth_cases()
        .into_iter()
        .find(|(name, _)| name == "synth-s8-600x16")
        .expect("the long-block synthetic case");
    let events = synthesize(&cfg);
    let threads = cfg.threads as u64;

    let (tp, compile_allocs) = counted(|| compile(&events).expect("within the replay caps"));
    let (grouped, group_allocs) = counted(|| group_shared_loads(&tp.program));
    let blocks = grouped.stats.blocks as u64;
    let (_, decode_allocs) = counted(|| DecodedProgram::decode(&grouped.program));

    let report = format!(
        "{} events, {threads} threads, {} insts, {blocks} blocks: compile {compile_allocs}, \
         group {group_allocs}, decode {decode_allocs} allocations",
        events.len(),
        tp.program.len(),
    );
    println!("{report}");
    // The work is per event and per instruction, so any per-item heap use
    // dwarfs these bounds.
    assert!(events.len() as u64 > 20 * (4 * threads + LOG_SLACK), "{report}");
    assert!(tp.program.len() as u64 > 20 * (4 * blocks + LOG_SLACK), "{report}");

    // compile: the thread table, the bucketed event order and the growth
    // of the program and name buffers; nothing per event.
    assert!(compile_allocs <= 4 * threads + LOG_SLACK, "compile: {report}");
    // Grouping: block discovery, the output, and scratch reused across
    // blocks; nothing per block beyond a constant.
    assert!(group_allocs <= 4 * blocks + LOG_SLACK, "group_shared_loads: {report}");
    // Decode: the shared table itself.
    assert!(decode_allocs <= 2, "decode: {report}");
}

#[test]
fn warm_artifact_cache_lookups_allocate_nothing() {
    // The lookups `run_one` makes for one switch-on-load point (built,
    // decoded) and one explicit-switch point (built, grouped, decoded of
    // the grouped image).
    let lookups = |cache: &ArtifactCache| {
        let (app, _) = cache.built(AppKind::Sor, Scale::Small, 4);
        cache.decoded(&app.program);
        cache.built(AppKind::Water, Scale::Small, 2);
        let (grouped, _, _) = cache.grouped(AppKind::Water, Scale::Small, 2);
        cache.decoded(&grouped);
    };
    let cache = ArtifactCache::new();
    lookups(&cache);
    let misses = cache.misses();
    let (_, allocs) = counted(|| lookups(&cache));
    assert_eq!(cache.misses(), misses, "the repeat must hit every entry");
    assert_eq!(allocs, 0, "warm lookups made {allocs} allocations");
}
