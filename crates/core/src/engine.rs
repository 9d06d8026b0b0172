//! The discrete-event multiprocessor engine.
//!
//! Each processor interleaves its resident threads in round-robin order.
//! Between shared accesses a processor executes private (local) code
//! directly — nothing another processor does can affect it — so the event
//! loop only needs to interleave processors at shared-access boundaries.
//! Shared operations are applied to memory in global time order (ties
//! broken deterministically by event sequence), which, under the paper's
//! constant-latency network, is identical to memory-arrival order.
//!
//! Hot-path structure (DESIGN.md §20): the engine executes a
//! [`DecodedProgram`] — per-instruction costs, def/use register masks,
//! and scheduling flags resolved once at build time — over [`Threads`]'
//! struct-of-arrays state, and interleaves processors through an
//! [`EventQueue`] whose pops *jump* the global clock over idle gaps
//! rather than ticking through them.
//!
//! Step context: a machine is its processors plus one [`Sys`] holding
//! everything else. Each processor step borrows the two halves —
//! `(&mut Sys, &mut Proc, p)` — and both scheduling policies (the
//! switching models' run-until-yield and SMT's per-cycle issue) share one
//! guard, fetch, deadlock and halt path and one [`exec`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::decode::{DInst, DecodedProgram};
use crate::events::EventQueue;
use crate::model::{MachineConfig, SwitchModel};
use crate::stats::{DeadlockWaiter, ProcStats, RunLengthHist, RunResult, SimError};
use crate::thread::{PendingReg, Thread, Threads};
use mtsim_asm::Program;
use mtsim_isa::{AccessHint, AluOp, BCond, CmpOp, FpuOp, Inst, Pc, Space};
use mtsim_mem::{
    message_bits, CoherentCaches, FaultPlan, MsgClass, Network, SharedMemory, TraceEvent,
    TraceKind, Traffic,
};
use mtsim_obs::{Cat, EventKind, Metric, NoopRecorder, Recorder, SwitchCause};

/// The engine's internal result: the error is boxed so that every step's
/// `Result` stays a word or two wide (a `SimError` is several words, and
/// `exec` and the steppers return one per simulated instruction). The
/// public API unboxes it once, when a run fails.
type Res<T> = Result<T, Box<SimError>>;

#[derive(Debug, Default)]
struct Counters {
    taken: u64,
    skipped: u64,
    forced: u64,
    reads: u64,
    stalls: u64,
    instructions: u64,
    /// Shared-memory mutations (stores, fetch-and-adds) applied so far;
    /// the deadlock detector's clock.
    mutations: u64,
    /// Set when a thread's spin loop was just proven periodic — tells
    /// the stepper to run the machine-wide deadlock scan.
    spin_confirm: bool,
}

#[derive(Debug)]
struct Proc {
    queue: VecDeque<usize>,
    current: Option<usize>,
    time: u64,
    stats: ProcStats,
    /// Round-robin cursor for the SMT issue loop: the resident offset the
    /// per-cycle ready scan starts from, advanced past the first issuer
    /// each cycle so no ready context can monopolize the lanes. Unused by
    /// the switching models (they rotate through `queue`).
    rr: usize,
}

/// Everything a processor step touches besides the processor itself —
/// the system half of the `tick(now, &mut System)` split.
#[derive(Debug)]
struct Sys {
    config: MachineConfig,
    /// The pre-decoded program the hot loop executes.
    decoded: DecodedProgram,
    shared: SharedMemory,
    threads: Threads,
    caches: Option<CoherentCaches>,
    traffic: Traffic,
    run_lengths: RunLengthHist,
    counters: Counters,
    trace: Option<Vec<TraceEvent>>,
    fault: Option<FaultPlan>,
    /// Present only when a contention topology (or combining) is
    /// configured; `None` leaves the paper's constant-latency path —
    /// and every existing golden number — untouched.
    net: Option<Network>,
    /// External cancel token, polled from the step loop. `None` (the
    /// default) costs one predictable branch per step; a supervisor that
    /// sets the flag turns the run into [`SimError::Cancelled`].
    cancel: Option<Arc<AtomicBool>>,
}

impl Sys {
    /// Base round-trip latency of a shared access: zero on the ideal
    /// machine, the configured constant otherwise.
    fn latency(&self) -> u64 {
        if self.config.model == SwitchModel::Ideal {
            0
        } else {
            self.config.latency
        }
    }
}

/// One shared access as the trace, network, fault and recorder paths
/// see it.
#[derive(Debug, Clone, Copy)]
struct Access {
    t0: u64,
    p: usize,
    tid: usize,
    pc: Pc,
    addr: u64,
    spin: bool,
}

enum Outcome {
    Continue,
    Yield { wake: u64, cause: SwitchCause },
    Halt,
}

enum StepOut {
    Reschedule(u64),
    Done,
}

/// A configured machine ready to run one program to completion.
///
/// # Example
///
/// ```
/// use mtsim_asm::ProgramBuilder;
/// use mtsim_core::{Machine, MachineConfig, SwitchModel};
/// use mtsim_mem::SharedMemory;
///
/// // Each thread adds its id into a shared counter.
/// let mut b = ProgramBuilder::new("count");
/// b.fetch_add_discard(b.const_i(0), b.tid() + 1, mtsim_isa::AccessHint::Data);
/// let prog = b.finish();
///
/// let config = MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 2);
/// let run = Machine::new(config, &prog, SharedMemory::new(1)).run().unwrap();
/// assert_eq!(run.shared.read_i64(0), 1 + 2 + 3 + 4);
/// ```
#[derive(Debug)]
pub struct Machine {
    sys: Sys,
    procs: Vec<Proc>,
}

/// A completed run: statistics plus the final shared-memory image (for
/// result verification).
#[derive(Debug)]
pub struct FinishedRun {
    /// Simulation statistics.
    pub result: RunResult,
    /// Shared memory at completion.
    pub shared: SharedMemory,
    /// Final architectural state of every thread, indexed by thread id
    /// (used by `mtsim-check` to compare runs against the reference
    /// interpreter).
    pub threads: Vec<ThreadImage>,
}

/// The architectural state a thread retires with: both register files
/// (floats as bit patterns, so NaNs compare exactly) and private memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadImage {
    /// Integer registers (`r0` always zero).
    pub regs: [i64; mtsim_isa::Reg::COUNT],
    /// FP registers as IEEE-754 bit patterns.
    pub fregs: [u64; mtsim_isa::FReg::COUNT],
    /// Local (private) memory words.
    pub local: Vec<u64>,
}

/// A completed run without the per-thread architectural images: the
/// variant [`Machine::run_reusing`] returns when the caller only needs
/// statistics plus the final shared memory (e.g. for result
/// verification) and wants the thread buffers recycled instead of
/// imaged.
#[derive(Debug)]
pub struct LeanRun {
    /// Simulation statistics.
    pub result: RunResult,
    /// Shared memory at completion.
    pub shared: SharedMemory,
}

/// Recyclable machine buffers: the per-thread state (dominated by each
/// thread's local memory vector) from a finished run, keyed by a
/// caller-chosen artifact identity. A worker thread that runs many
/// same-shaped grid points keeps one of these; consecutive
/// [`Machine::try_new_predecoded`] / [`Machine::run_reusing`] pairs with
/// a stable key then allocate no thread state. No program image is
/// parked: the caller supplies the decoded program on every build.
///
/// The scratch holds at most one parked machine — sweeps iterate grids
/// in axis order, so consecutive jobs on a worker overwhelmingly share
/// a shape and a deeper cache would mostly hold dead buffers.
#[derive(Debug, Default)]
pub struct MachineScratch {
    key: u64,
    threads: Threads,
}

impl MachineScratch {
    /// An empty scratch: the first build through it allocates fresh.
    pub fn new() -> MachineScratch {
        MachineScratch::default()
    }

    /// The key of the currently parked buffers (0 = empty).
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl Machine {
    /// Builds a machine running `program` on every thread over `shared`.
    ///
    /// Thread ids are assigned contiguously per processor: processor `p`
    /// hosts threads `p*T .. (p+1)*T`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]). [`Machine::try_new`] reports the
    /// problem as a [`SimError::Config`] instead.
    pub fn new(config: MachineConfig, program: &Program, shared: SharedMemory) -> Machine {
        Machine::try_new(config, program, shared).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine, rejecting an invalid configuration as
    /// [`SimError::Config`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when
    /// [`MachineConfig::try_validate`] fails.
    pub fn try_new(
        config: MachineConfig,
        program: &Program,
        shared: SharedMemory,
    ) -> Result<Machine, SimError> {
        let decoded = DecodedProgram::decode(program);
        let mut scratch = MachineScratch::new();
        Machine::try_new_predecoded(config, program, &decoded, shared, 0, &mut scratch)
            .map(|(m, _)| m)
    }

    /// Builds a machine like [`Machine::try_new`], with the program's
    /// decode supplied by the caller instead of recomputed — the
    /// artifact-cache path: `mtsim-sweep` decodes each built program
    /// once and every grid point that runs it clones the shared table
    /// (an `Arc` bump) rather than re-deriving it. `decoded` must be the
    /// decode of `program`; the pairing is the caller's contract,
    /// checked under `debug-invariants`.
    ///
    /// The build also recycles the per-thread buffers parked in
    /// `scratch` by a previous [`Machine::run_reusing`] call when the
    /// caller-chosen `key` matches, and returns whether it did. The key
    /// contract: **equal non-zero keys imply an identical program.**
    /// Shape (thread count, local words) is re-derived from
    /// `config`/`program` either way, so a colliding key costs
    /// allocations, never correctness. Key 0 never reuses, which is how
    /// [`Machine::try_new`] gets the allocate-fresh behavior.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when
    /// [`MachineConfig::try_validate`] fails.
    pub fn try_new_predecoded(
        config: MachineConfig,
        program: &Program,
        decoded: &DecodedProgram,
        shared: SharedMemory,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<(Machine, bool), SimError> {
        config.try_validate().map_err(|detail| SimError::Config { detail })?;
        #[cfg(feature = "debug-invariants")]
        assert_eq!(
            decoded.len(),
            program.len(),
            "decoded program does not match the program image"
        );
        let nthreads = config.total_threads();
        let local_words = config.local_mem_words.max(program.local_words());
        let reused = key != 0 && scratch.key == key;
        let mut threads = if reused {
            scratch.key = 0;
            std::mem::take(&mut scratch.threads)
        } else {
            Threads::new()
        };
        threads.reset(nthreads, local_words);
        let procs = (0..config.processors)
            .map(|p| Proc {
                queue: (p * config.threads_per_proc..(p + 1) * config.threads_per_proc).collect(),
                current: None,
                time: 0,
                stats: ProcStats::default(),
                rr: 0,
            })
            .collect();
        let caches =
            config.model.uses_cache().then(|| CoherentCaches::new(config.processors, config.cache));
        let collect_trace = config.collect_trace;
        let fault = config.fault.is_active().then(|| FaultPlan::new(config.fault));
        let net = config
            .net
            .is_active()
            .then(|| Network::new(config.net, config.processors, config.latency));
        let sys = Sys {
            config,
            decoded: decoded.clone(),
            shared,
            threads,
            caches,
            traffic: Traffic::new(),
            run_lengths: RunLengthHist::new(),
            counters: Counters::default(),
            trace: collect_trace.then(Vec::new),
            fault,
            net,
            cancel: None,
        };
        Ok((Machine { sys, procs }, reused))
    }

    /// Attaches an external cancel token. A supervisor thread (e.g. the
    /// sweep pool's per-job wall-clock watchdog) stores `true` into the
    /// token; the engine polls it from the step loop and aborts the run
    /// with [`SimError::Cancelled`] within a few simulated instructions.
    /// Without a token the poll compiles to a single never-taken branch,
    /// so undecorated runs stay on the measured fast path.
    #[must_use]
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Machine {
        self.sys.cancel = Some(token);
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.sys.config
    }

    /// Runs all threads to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] when every live thread is proven stuck in
    ///   a spin loop no remaining thread can release, reported with the
    ///   full cycle of waiters;
    /// * [`SimError::Watchdog`] when the configured cycle limit elapses
    ///   first (livelock the detector cannot prove);
    /// * [`SimError::Fault`] when a shared-memory request exhausts its
    ///   retry budget under fault injection;
    /// * [`SimError::BadProgram`] when the simulated program performs a
    ///   wild memory access or runs off the end of its code.
    pub fn run(self) -> Result<FinishedRun, SimError> {
        self.run_with(&mut NoopRecorder)
    }

    /// Runs all threads to completion with an observability [`Recorder`]
    /// attached. The engine is monomorphized per recorder type:
    /// [`Machine::run`] passes the no-op recorder, whose empty inline
    /// hooks compile away, so the undecorated path is the seed engine —
    /// bit-identical results, no measurable overhead. A real recorder
    /// (e.g. `mtsim_obs::ObsRecorder`) observes events, per-thread cycle
    /// attribution, and histogram samples without feeding anything back
    /// into the simulation, so results are identical either way.
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::run`].
    pub fn run_with<R: Recorder>(self, rec: &mut R) -> Result<FinishedRun, SimError> {
        let (result, shared, threads) = self.run_to_completion(rec)?;
        let threads = threads
            .cold
            .into_iter()
            .map(|t| ThreadImage { regs: t.regs, fregs: t.fregs.map(f64::to_bits), local: t.local })
            .collect();
        Ok(FinishedRun { result, shared, threads })
    }

    /// Runs to completion like [`Machine::run_with`], then parks the
    /// machine's per-thread buffers in `scratch` under `key` so the next
    /// [`Machine::try_new_predecoded`] call with the same key skips the
    /// per-thread allocations. Returns a [`LeanRun`] — statistics plus
    /// final shared memory, without the per-thread architectural images
    /// (their buffers are what gets recycled). Orchestration layers that
    /// only verify shared memory use this; `mtsim-check`'s state
    /// comparisons need [`Machine::run_with`].
    ///
    /// On error nothing is stashed: the failed machine's buffers are
    /// simply dropped, and `scratch` keeps whatever it held before.
    ///
    /// # Errors
    ///
    /// Exactly as [`Machine::run`].
    pub fn run_reusing<R: Recorder>(
        self,
        rec: &mut R,
        key: u64,
        scratch: &mut MachineScratch,
    ) -> Result<LeanRun, SimError> {
        let (result, shared, threads) = self.run_to_completion(rec)?;
        if key != 0 {
            scratch.key = key;
            scratch.threads = threads;
        }
        Ok(LeanRun { result, shared })
    }

    /// The shared run loop: drives every processor to completion and
    /// hands the result back along with the moved-out buffers, so the
    /// public variants decide whether to image or recycle the threads.
    fn run_to_completion<R: Recorder>(
        self,
        rec: &mut R,
    ) -> Result<(RunResult, SharedMemory, Threads), SimError> {
        let Machine { mut sys, mut procs } = self;
        run_events(&mut sys, &mut procs, rec).map_err(|e| *e)?;
        let smt = sys.config.model == SwitchModel::Smt;
        let cycles = procs.iter().map(|p| p.stats.finish_time).max().unwrap_or(0);
        if R::ENABLED {
            // End-of-run slack: a processor that finished early idles until
            // the machine-wide completion cycle. Everything before its
            // finish time was already charged cycle-by-cycle, so this
            // closes the attribution conservation law.
            if smt {
                // SMT accounting law (DESIGN.md §22): the per-thread wait
                // categories do not exist (nothing yields), so the only
                // per-thread charge is Busy — one slot-cycle per issued
                // cost cycle. The residual W×finish − busy is the
                // processor's unfilled issue slots; end-of-run slack is
                // still whole-processor idle, scaled by W in the
                // conservation law, not here.
                let w = sys.config.issue_width as u64;
                rec.set_issue_width(w);
                for (p, proc) in procs.iter().enumerate() {
                    debug_assert!(
                        w * proc.stats.finish_time >= proc.stats.busy,
                        "smt lane overflow: busy {} > {w} lanes × finish {}",
                        proc.stats.busy,
                        proc.stats.finish_time
                    );
                    let slots = (w * proc.stats.finish_time).saturating_sub(proc.stats.busy);
                    rec.charge_issue_idle(p, slots);
                    rec.charge_idle(p, cycles - proc.stats.finish_time);
                }
            } else {
                for (p, proc) in procs.iter().enumerate() {
                    rec.charge_idle(p, cycles - proc.stats.finish_time);
                }
            }
            rec.finish_run(cycles);
        }
        let one_line = sys
            .threads
            .cold
            .iter()
            .fold((0, 0), |(h, a), t| (h + t.one_line.hits(), a + t.one_line.accesses()));
        let result = RunResult {
            cycles,
            per_proc: procs.iter().map(|p| p.stats).collect(),
            run_lengths: sys.run_lengths,
            switches_taken: sys.counters.taken,
            switches_skipped: sys.counters.skipped,
            forced_switches: sys.counters.forced,
            reads_issued: sys.counters.reads,
            traffic: sys.traffic,
            cache: sys.caches.as_ref().map(|c| c.total_stats()),
            one_line,
            scoreboard_stalls: sys.counters.stalls,
            instructions: sys.counters.instructions,
            trace: sys.trace,
            net: sys.net.as_ref().map(|n| n.stats()),
        };
        Ok((result, sys.shared, sys.threads))
    }
}

/// The skip-ahead event loop: drives every processor until the queue
/// drains. Each pop *jumps* the popped processor's clock to the event
/// time (idle gaps are never ticked through), and `peek_time` is the
/// horizon it may run ahead of other processors before its next shared
/// access.
fn run_events<R: Recorder>(sys: &mut Sys, procs: &mut [Proc], rec: &mut R) -> Res<()> {
    let mut events = EventQueue::new();
    for p in 0..procs.len() {
        events.push(0, p);
    }
    let smt = sys.config.model == SwitchModel::Smt;
    // SMT's per-cycle ready list, allocated once per run.
    let mut ready = Vec::with_capacity(if smt { sys.config.threads_per_proc } else { 0 });
    while let Some((t, p)) = events.pop() {
        let proc = &mut procs[p];
        proc.time = proc.time.max(t);
        let peek = events.peek_time();
        loop {
            let step = if smt {
                step_proc_smt(sys, proc, p, peek, &mut ready, rec)?
            } else {
                step_proc(sys, proc, p, peek, rec)?
            };
            match step {
                // Strictly earlier than every queued event: a push
                // would pop straight back (equal times must queue —
                // the older event pops first). Skip the round trip
                // and keep driving the same processor; `peek` is
                // unchanged because nothing was pushed.
                StepOut::Reschedule(at) if at < peek => continue,
                StepOut::Reschedule(at) => {
                    events.push(at, p);
                    break;
                }
                StepOut::Done => break,
            }
        }
    }
    #[cfg(feature = "debug-invariants")]
    events.assert_drained();
    debug_assert!(sys.threads.halted.iter().all(|&h| h), "event queue drained early");
    Ok(())
}

/// Executes processor `p` from its current time until it must hand
/// control back to the event loop: the switching models' run-until-yield
/// scheduling policy.
#[inline(always)]
fn step_proc<R: Recorder>(
    sys: &mut Sys,
    proc: &mut Proc,
    p: usize,
    peek: u64,
    rec: &mut R,
) -> Res<StepOut> {
    let mut last_time = proc.time;
    // A processor re-entered with a current thread was rescheduled at a
    // shared access (the only way out with one), so its first step is
    // that access: no local run to take first.
    #[cfg(not(feature = "debug-invariants"))]
    let mut resumed = proc.current.is_some();
    loop {
        #[cfg(feature = "debug-invariants")]
        assert_step_invariants(p, proc, &sys.threads, &sys.config);
        step_guard(sys, proc, p, &mut last_time)?;

        // Pick a thread if none is running: first runnable in
        // round-robin order.
        if proc.current.is_none() {
            if proc.queue.is_empty() {
                proc.stats.finish_time = proc.time;
                return Ok(StepOut::Done);
            }
            let ths = &sys.threads;
            let now = proc.time;
            match pick(&proc.queue, ths, now, sys.config.priority_scheduling) {
                Ok(i) => {
                    proc.current =
                        if i == 0 { proc.queue.pop_front() } else { proc.queue.remove(i) };
                    if R::ENABLED {
                        rec.event(proc.time, p, proc.current.expect("picked"), EventKind::SwitchIn);
                    }
                }
                Err((wtid, wake)) => {
                    // No lost wakeups: a sleep is only legal when every
                    // resident thread really wakes strictly later.
                    #[cfg(feature = "debug-invariants")]
                    assert!(
                        wake > now,
                        "lost wakeup on processor {p}: thread runnable at {now} but not picked"
                    );
                    // Attribution: the sleep ends when its earliest
                    // thread wakes, so the whole gap is that thread's
                    // wait — memory stall (including fault-retry
                    // backoff, which merely pushes the wake time out),
                    // lock spin, or barrier wait, as tagged when it
                    // yielded. True idle is only end-of-run slack.
                    rec.charge(wtid, ths.cold[wtid].wait, wake - proc.time);
                    proc.stats.idle += wake - proc.time;
                    proc.time = wake;
                    // Strictly earlier than every queued event: keep
                    // driving this processor, as the event loop would.
                    if wake < peek {
                        continue;
                    }
                    return Ok(StepOut::Reschedule(wake));
                }
            }
        }
        let tid = proc.current.expect("current thread");

        // Fast path (DESIGN.md §20): burn through an unbroken run of
        // local-only instructions without re-entering the scheduler.
        // Gated off when recording (per-step charges must land) and
        // under `debug-invariants` (the strict loop asserts every
        // step); SwitchEveryCycle is excluded because it rotates
        // after every instruction. Each iteration replays the slow
        // path's per-instruction order exactly — scoreboard
        // (reap / purge / stall-in-place), then `exec`'s preamble
        // (cost, pc, spin reset, register kill), then the semantic
        // body — with the accounting accumulated and flushed in one
        // shot, so results are bit-identical. The SwitchOnUse models'
        // scoreboard hit is *their switch point*: the loop breaks and
        // hands that instruction back to the slow path untouched
        // (the ready-purge it re-runs is idempotent).
        #[cfg(not(feature = "debug-invariants"))]
        if !resumed && !R::ENABLED && sys.config.model != SwitchModel::SwitchEveryCycle {
            let config = &sys.config;
            let decoded = &sys.decoded;
            let cancel = sys.cancel.as_deref();
            let th = &mut sys.threads.cold[tid];
            let insts = decoded.insts();
            let mut time = proc.time;
            let mut busy = 0u64;
            let mut stall = 0u64;
            let mut steps = 0u64;
            let mut fast_err = None;
            // The pc lives in a local for the whole loop and is committed
            // to `th.pc` once, after it: no local body reads `th.pc`, and
            // a failing instruction reports its own `pc0`.
            let mut pc = th.pc;
            // Bounded so a local-only spin (cost-0 loops included)
            // still reaches the outer loop's watchdog and cancel
            // checks at the same observable points as the slow path.
            while steps < 65_536 {
                let Some(di) = insts.get(pc as usize) else { break };
                if !di.is_local_exec() || time > config.max_cycles {
                    break;
                }
                if let Some(token) = cancel {
                    if token.load(Ordering::Relaxed) {
                        break;
                    }
                }
                if !th.pending.is_empty() {
                    if time >= th.outstanding {
                        th.reap_all_pending();
                    } else if let Some(ready) =
                        th.pending_ready_for_masks(time, di.int_use_mask, di.fp_use_mask)
                    {
                        if matches!(
                            config.model,
                            SwitchModel::SwitchOnUse | SwitchModel::SwitchOnUseMiss
                        ) {
                            break;
                        }
                        // Contract violation (or deliberate use
                        // before switch): stall in place.
                        stall += ready - time;
                        time = ready;
                    }
                } else {
                    // Straight-line block: the scoreboard is empty
                    // and stays empty across local-only fall-through
                    // instructions (only shared loads add entries),
                    // so a whole decoded run executes with no
                    // per-instruction scheduler, scoreboard,
                    // watchdog, or cancel checks — those hold
                    // block-entry-to-block-exit. Bodies and
                    // accounting are the same per-instruction
                    // sequence as below, so results are identical.
                    let run = di.run.min(65_536 - steps as u32);
                    if run >= 2 {
                        let start = pc as usize;
                        let mut cycles = 0u64;
                        for bdi in &insts[start..start + run as usize] {
                            cycles += bdi.cost as u64;
                            let pc0 = pc;
                            pc += 1;
                            if bdi.resets_spin() {
                                th.reset_spin();
                            }
                            if let Err(e) = exec_local(bdi, th, tid, pc0) {
                                fast_err = Some(e);
                                break;
                            }
                        }
                        time += cycles;
                        busy += cycles;
                        steps += (pc as u64) - (start as u64);
                        if fast_err.is_some() {
                            break;
                        }
                        continue;
                    }
                }
                let pc0 = pc;
                let c = di.cost as u64;
                time += c;
                busy += c;
                steps += 1;
                pc += 1;
                if di.resets_spin() {
                    th.reset_spin();
                }
                if !th.pending.is_empty() {
                    th.kill_pending_masks(di.int_def, di.fp_def_mask);
                }
                match exec_local(di, th, tid, pc0) {
                    Ok(None) => {}
                    Ok(Some(target)) => pc = target,
                    Err(e) => {
                        fast_err = Some(e);
                        break;
                    }
                }
            }
            th.pc = pc;
            // Every local cycle is busy and extends the current run.
            th.run_cycles += busy;
            if steps > 0 {
                proc.time = time;
                proc.stats.busy += busy;
                proc.stats.stall += stall;
                sys.counters.stalls += stall;
                sys.counters.instructions += steps;
                if let Some(e) = fast_err {
                    return Err(e);
                }
                // The next instruction's guard, then straight on to the
                // slow path with it (the thread is still current): the
                // same checks in the same order as going round the loop,
                // without re-entering the fast path only to break out of
                // it at once on the shared access it stopped at.
                step_guard(sys, proc, p, &mut last_time)?;
            }
        }
        #[cfg(not(feature = "debug-invariants"))]
        {
            resumed = false;
        }

        let di = *sys.decoded.inst(checked_pc(sys, tid)?);

        // Event boundary: shared accesses must execute in global time
        // order. If we have run ahead of the next event, hand control
        // back and resume when we are earliest again.
        if di.is_shared_access() && proc.time > peek {
            return Ok(StepOut::Reschedule(proc.time));
        }

        // Split-phase scoreboard: reading an in-flight value.
        let th = &mut sys.threads.cold[tid];
        if !th.pending.is_empty() {
            if proc.time >= th.outstanding {
                th.reap_all_pending();
            } else if let Some(ready) =
                th.pending_ready_for_masks(proc.time, di.int_use_mask, di.fp_use_mask)
            {
                if matches!(
                    sys.config.model,
                    SwitchModel::SwitchOnUse | SwitchModel::SwitchOnUseMiss
                ) {
                    // This *is* the model's switch point.
                    yield_thread(sys, proc, p, ready, SwitchCause::Use, rec);
                    continue;
                }
                // Contract violation (or deliberate use before switch):
                // stall in place.
                let wait = ready - proc.time;
                proc.stats.stall += wait;
                sys.counters.stalls += wait;
                rec.charge(tid, Cat::MemoryStall, wait);
                proc.time = ready;
            }
        }

        // Execute one instruction.
        let outcome = exec(sys, proc, p, tid, &di, rec)?;
        check_deadlock(sys, proc.time)?;
        match outcome {
            Outcome::Continue => {
                if sys.config.model == SwitchModel::SwitchEveryCycle {
                    let wake = proc.time;
                    yield_thread(sys, proc, p, wake, SwitchCause::Rotation, rec);
                }
            }
            Outcome::Yield { wake, cause } => yield_thread(sys, proc, p, wake, cause, rec),
            Outcome::Halt => halt(sys, proc, p, tid, rec),
        }
    }
}

/// The switching models' thread pick on a processor whose resident
/// queue is non-empty, in one pass over it: `Ok(i)` is the queue index
/// of the thread to run at `now` — the first runnable thread in
/// round-robin order or, with priority scheduling, the first runnable
/// thread of the highest priority (e.g. one inside a critical region).
/// When nothing is runnable, `Err((tid, wake))` names the earliest
/// sleeper, the first of equal wakes, so the sleep is deterministic.
#[inline]
fn pick(
    queue: &VecDeque<usize>,
    ths: &Threads,
    now: u64,
    priority: bool,
) -> Result<usize, (usize, u64)> {
    let mut best: Option<(usize, u8)> = None;
    let mut earliest: Option<(usize, u64)> = None;
    for (i, &t) in queue.iter().enumerate() {
        let wake = ths.wake[t];
        if wake <= now {
            if !priority {
                return Ok(i);
            }
            let prio = ths.prio[t];
            if best.is_none_or(|(_, b)| prio > b) {
                best = Some((i, prio));
            }
        } else if earliest.is_none_or(|(_, e)| wake < e) {
            earliest = Some((t, wake));
        }
    }
    best.map(|(i, _)| i).ok_or_else(|| earliest.expect("a non-empty queue"))
}

/// Executes processor `p` under [`SwitchModel::Smt`]: a per-cycle
/// issue loop instead of the switching models' run-until-yield
/// scheduler (DESIGN.md §22).
///
/// Lane-occupancy model: every thread executes its issued instruction
/// to completion on a functional-unit lane, so at time `now` a thread
/// with `wake > now` *is* a busy lane (wake is only ever set to
/// issue-time + cost). Each cycle the scan counts busy lanes, collects
/// threads that are awake, in-bounds, and scoreboard-clear, and issues
/// up to `issue_width − busy_lanes` of them in round-robin order from
/// the `rr` cursor. A thread whose operand is still in flight simply
/// does not compete that cycle — nothing yields, nothing pays a switch
/// cost, and the scheduler queue is never touched (residents stay
/// parked in `queue`; `current` stays `None`).
///
/// Time only advances in the wait path (no ready thread or no free
/// lane), jumping straight to the earliest wake/scoreboard-ready time,
/// so `proc.stats.idle` is never charged mid-run: a gap with no ready
/// thread can still have lanes draining earlier multi-cycle issues,
/// and the unfilled-slot residual is computed once at end of run
/// (`W × finish − busy`) by `run_to_completion`.
fn step_proc_smt<R: Recorder>(
    sys: &mut Sys,
    proc: &mut Proc,
    p: usize,
    peek: u64,
    ready: &mut Vec<usize>,
    rec: &mut R,
) -> Res<StepOut> {
    let tpp = sys.config.threads_per_proc;
    let lo = p * tpp;
    let width = sys.config.issue_width;

    let mut last_time = proc.time;
    loop {
        step_guard(sys, proc, p, &mut last_time)?;
        let now = proc.time;
        // Whole-cycle global-order guard: a cycle may contain shared
        // accesses, so it only runs while this processor is earliest.
        if now > peek {
            return Ok(StepOut::Reschedule(now));
        }

        // Per-cycle scan, round-robin from the cursor: count busy
        // lanes, find the earliest future wake/ready time, and collect
        // issuable threads.
        ready.clear();
        let mut busy_lanes = 0usize;
        let mut earliest = u64::MAX;
        let mut live = 0usize;
        for k in 0..tpp {
            let tid = lo + (proc.rr + k) % tpp;
            if sys.threads.halted[tid] {
                continue;
            }
            live += 1;
            if sys.threads.wake[tid] > now {
                busy_lanes += 1;
                earliest = earliest.min(sys.threads.wake[tid]);
                continue;
            }
            let di = sys.decoded.inst(checked_pc(sys, tid)?);
            let th = &mut sys.threads.cold[tid];
            if !th.pending.is_empty() {
                if now >= th.outstanding {
                    th.reap_all_pending();
                } else if let Some(at) =
                    th.pending_ready_for_masks(now, di.int_use_mask, di.fp_use_mask)
                {
                    // Operand still in flight: sits out this cycle
                    // without yielding or occupying a lane.
                    earliest = earliest.min(at);
                    continue;
                }
            }
            ready.push(tid);
        }

        if live == 0 {
            // All residents halted. The drain time of the last issued
            // instructions (their wake times) is part of the run, just
            // as the switching models' `proc.time += cost` on the halt
            // instruction is.
            let drain = (lo..lo + tpp).map(|t| sys.threads.wake[t]).max().unwrap_or(now).max(now);
            proc.time = drain;
            proc.stats.finish_time = drain;
            return Ok(StepOut::Done);
        }

        let avail = width.saturating_sub(busy_lanes);
        if ready.is_empty() || avail == 0 {
            // Nothing can issue this cycle: jump to the earliest lane
            // drain or scoreboard arrival. Live threads guarantee the
            // bound is finite (a live thread is busy, blocked on a
            // finite reply, or ready — and ready is only unusable when
            // busy lanes exist).
            debug_assert!(earliest != u64::MAX, "smt wait with nothing to wait for");
            proc.time = earliest;
            if earliest > peek {
                return Ok(StepOut::Reschedule(earliest));
            }
            continue;
        }

        // Issue phase: up to `avail` ready threads execute this cycle.
        // The scan order already rotates via the cursor; priority
        // scheduling (§6.2) promotes critical-region threads first
        // (stable sort keeps the round-robin order within a level).
        if sys.config.priority_scheduling {
            ready.sort_by_key(|&t| std::cmp::Reverse(sys.threads.prio[t]));
        }
        let first = ready[0];
        for &tid in ready.iter().take(avail) {
            let di = *sys.decoded.inst(sys.threads.cold[tid].pc as usize);
            let outcome = exec(sys, proc, p, tid, &di, rec)?;
            // `exec` advanced the clock by `cost` (the switching
            // models' serial semantics); SMT lanes run concurrently,
            // so the cycle stays at `now` and the drain is tracked per
            // thread through its wake time instead.
            proc.time = now;
            sys.threads.wake[tid] = now + di.cost as u64;
            check_deadlock(sys, now)?;
            match outcome {
                Outcome::Continue => {}
                Outcome::Halt => halt(sys, proc, p, tid, rec),
                Outcome::Yield { .. } => unreachable!("the smt model never yields a context"),
            }
        }
        // Fairness: start the next cycle's scan just past this
        // cycle's first issuer.
        proc.rr = (first - lo + 1) % tpp;
    }
}

/// The checks both steppers run before every step: the clock never runs
/// backwards within a batch (under `debug-invariants`, tracked through
/// `last_time`), the simulated-cycle watchdog, and the external cancel
/// token.
#[inline]
fn step_guard(sys: &Sys, proc: &Proc, p: usize, last_time: &mut u64) -> Res<()> {
    #[cfg(feature = "debug-invariants")]
    {
        assert!(
            proc.time >= *last_time,
            "processor {p} clock ran backwards: {} < {last_time}",
            proc.time
        );
        *last_time = proc.time;
    }
    #[cfg(not(feature = "debug-invariants"))]
    let _ = (p, last_time);
    if proc.time > sys.config.max_cycles {
        return Err(watchdog(sys));
    }
    if let Some(token) = &sys.cancel {
        if token.load(Ordering::Relaxed) {
            return Err(Box::new(SimError::Cancelled { cycle: proc.time }));
        }
    }
    Ok(())
}

/// The watchdog's `SimError`, built off the hot path.
#[cold]
#[inline(never)]
fn watchdog(sys: &Sys) -> Box<SimError> {
    Box::new(SimError::Watchdog {
        max_cycles: sys.config.max_cycles,
        halted_threads: sys.threads.halted.iter().filter(|&&h| h).count(),
        total_threads: sys.threads.len(),
    })
}

/// Thread `tid`'s program counter, checked against the end of the code.
#[inline]
fn checked_pc(sys: &Sys, tid: usize) -> Res<usize> {
    let pc = sys.threads.cold[tid].pc as usize;
    if pc < sys.decoded.len() {
        return Ok(pc);
    }
    Err(pc_past_end(tid, pc, sys.decoded.len()))
}

/// `BadProgram` for a program counter past the end of the code.
#[cold]
#[inline(never)]
fn pc_past_end(tid: usize, pc: usize, len: usize) -> Box<SimError> {
    Box::new(SimError::BadProgram {
        thread: tid,
        pc: pc as u64,
        detail: format!("program counter ran past the end of the code ({len} instructions)"),
    })
}

/// Runs the machine-wide deadlock scan when the step just executed proved
/// a spin loop periodic. Deadlock is declared only when **every** live
/// thread holds a periodicity proof that is current (`seen_mutations`
/// equals the global count — no shared write landed after the proof):
/// then no live thread can ever store, fetch-add, or halt, so the words
/// being waited on are frozen forever.
#[inline]
fn check_deadlock(sys: &mut Sys, now: u64) -> Res<()> {
    if !sys.counters.spin_confirm {
        return Ok(());
    }
    deadlock_scan(sys, now)
}

/// The machine-wide scan behind [`check_deadlock`].
#[cold]
#[inline(never)]
fn deadlock_scan(sys: &mut Sys, now: u64) -> Res<()> {
    sys.counters.spin_confirm = false;
    let ths = &sys.threads;
    let mut waiters = Vec::new();
    let mut halted = 0usize;
    for (i, th) in ths.cold.iter().enumerate() {
        if ths.halted[i] {
            halted += 1;
            continue;
        }
        if !th.spin_blocked() || th.seen_mutations != sys.counters.mutations {
            return Ok(());
        }
        waiters.push(DeadlockWaiter {
            thread: i,
            proc: i / sys.config.threads_per_proc,
            addr: th.spin_addr.unwrap_or(0),
            value: th.last_poll_value,
        });
    }
    if waiters.is_empty() {
        return Ok(());
    }
    Err(Box::new(SimError::Deadlock { cycle: now, halted_threads: halted, waiters }))
}

/// Closes `tid`'s current run: its length since it was switched in goes
/// into the run-length histogram.
fn end_run<R: Recorder>(sys: &mut Sys, tid: usize, rec: &mut R) {
    let th = &mut sys.threads.cold[tid];
    if th.run_cycles > 0 {
        sys.run_lengths.record(th.run_cycles);
        rec.sample(Metric::RunLength, th.run_cycles);
        th.run_cycles = 0;
    }
}

/// Retires `tid`, which just executed its `Halt`.
fn halt<R: Recorder>(sys: &mut Sys, proc: &mut Proc, p: usize, tid: usize, rec: &mut R) {
    end_run(sys, tid, rec);
    sys.threads.halted[tid] = true;
    proc.current = None;
    rec.event(proc.time, p, tid, EventKind::Halt);
}

/// Switches the running thread out — paying the model's switch cost, if
/// it has one — and rotates it to the back of the round-robin queue,
/// runnable again at `wake`.
#[inline]
fn yield_thread<R: Recorder>(
    sys: &mut Sys,
    proc: &mut Proc,
    p: usize,
    wake: u64,
    cause: SwitchCause,
    rec: &mut R,
) {
    let tid = proc.current.take().expect("only a running thread yields");
    if sys.config.model.pays_switch_cost() {
        proc.stats.overhead += sys.config.switch_cost;
        proc.time += sys.config.switch_cost;
        rec.charge(tid, Cat::SwitchOverhead, sys.config.switch_cost);
    }
    end_run(sys, tid, rec);
    sys.threads.wake[tid] = wake;
    proc.queue.push_back(tid);
    sys.counters.taken += 1;
    rec.event(proc.time, p, tid, EventKind::SwitchOut { cause });
}

/// Issues a blocking shared read under the configured model.
#[inline(always)]
fn read_dispatch(
    sys: &mut Sys,
    tid: usize,
    dests: &[(bool, u8)],
    (cache_hit, oneline_hit): (bool, bool),
    reply: u64,
) -> Outcome {
    let config = &sys.config;
    let th = &mut sys.threads.cold[tid];
    sys.counters.reads += 1;
    match config.model {
        // Ideal: zero-latency rotation, free, and keeps round-robin
        // fairness so same-processor spin loops cannot starve their peers.
        SwitchModel::Ideal | SwitchModel::SwitchEveryCycle | SwitchModel::SwitchOnLoad => {
            Outcome::Yield { wake: reply, cause: SwitchCause::Load }
        }
        // Split-phase; under SMT a pending use never yields either: the
        // issue loop just skips the thread until the reply lands.
        SwitchModel::SwitchOnUse | SwitchModel::Smt => {
            push_pending(th, dests, reply);
            Outcome::Continue
        }
        SwitchModel::ExplicitSwitch => {
            th.group_reads += 1;
            if config.interblock_estimate && oneline_hit {
                // §5.2: this load would have been grouped with the
                // preceding reference — its latency is already covered by
                // the previous group's switch.
                Outcome::Continue
            } else {
                if config.interblock_estimate {
                    th.group_all_oneline = false;
                }
                push_pending(th, dests, reply);
                Outcome::Continue
            }
        }
        SwitchModel::SwitchOnMiss => {
            if cache_hit {
                Outcome::Continue
            } else {
                Outcome::Yield { wake: reply, cause: SwitchCause::Miss }
            }
        }
        SwitchModel::SwitchOnUseMiss => {
            if !cache_hit {
                push_pending(th, dests, reply);
            }
            Outcome::Continue
        }
        SwitchModel::ConditionalSwitch => {
            th.group_reads += 1;
            if !cache_hit {
                th.pending_miss = true;
                push_pending(th, dests, reply);
            }
            Outcome::Continue
        }
    }
}

#[inline]
fn push_pending(th: &mut Thread, dests: &[(bool, u8)], reply: u64) {
    for &(fp, idx) in dests {
        th.pending.push(PendingReg { fp, idx, ready: reply });
        th.issued_entries += 1;
    }
    th.outstanding = th.outstanding.max(reply);
}

/// The `debug-invariants` per-step machine check: run before every
/// instruction of every processor batch. Verifies the thread-state
/// machine, queue integrity, scoreboard-entry sanity, and the
/// issued-vs-retired conservation law for split-phase requests.
#[cfg(feature = "debug-invariants")]
fn assert_step_invariants(p: usize, proc: &Proc, ths: &Threads, config: &MachineConfig) {
    let lo = p * config.threads_per_proc;
    let hi = lo + config.threads_per_proc;
    for &q in &proc.queue {
        assert!(
            (lo..hi).contains(&q),
            "processor {p} queue holds foreign thread {q} (residents are {lo}..{hi})"
        );
    }
    if let Some(cur) = proc.current {
        assert!((lo..hi).contains(&cur), "processor {p} is running foreign thread {cur}");
    }
    assert!(
        ths.wake.len() == ths.len() && ths.prio.len() == ths.len() && ths.halted.len() == ths.len(),
        "SoA arrays out of step with the thread population"
    );
    for tid in lo..hi {
        let th = &ths.cold[tid];
        let queued = proc.queue.iter().filter(|&&t| t == tid).count();
        let running = usize::from(proc.current == Some(tid));
        if ths.halted[tid] {
            assert!(
                queued + running == 0,
                "halted thread {tid} still schedulable on processor {p}"
            );
        } else {
            assert!(
                queued + running == 1,
                "thread {tid} appears {} times in processor {p}'s scheduler (want exactly 1)",
                queued + running
            );
        }
        for pend in &th.pending {
            let limit = if pend.fp { mtsim_isa::FReg::COUNT } else { mtsim_isa::Reg::COUNT };
            assert!(
                (pend.idx as usize) < limit,
                "thread {tid}: pending entry names register {} out of range",
                pend.idx
            );
            assert!(
                pend.fp || pend.idx != 0,
                "thread {tid}: r0 can never carry an in-flight value"
            );
        }
        assert!(
            th.issued_entries == th.reaped_entries + th.pending.len() as u64,
            "thread {tid}: scoreboard conservation broken \
             (issued {} != reaped {} + live {})",
            th.issued_entries,
            th.reaped_entries,
            th.pending.len()
        );
    }
}

/// Executes one *local-only* instruction ([`DInst::is_local_exec`]) on
/// the current thread. This is the only implementation of those
/// instructions: the fast path inlines it into its loops, and [`exec`]
/// falls through to it after its per-step preamble, by way of
/// [`exec_local_outlined`]. Touches nothing but `th`'s registers and
/// local memory; the caller has already done the shared accounting
/// (`cost`, `pc += 1`, spin reset) and applies the control transfer:
/// a taken branch or a jump returns its target, everything else `None`
/// (fall through).
#[inline(always)]
fn exec_local(di: &DInst, th: &mut Thread, tid: usize, pc0: Pc) -> Res<Option<Pc>> {
    match di.inst {
        Inst::Alu { op, rd, rs, rt } => {
            let v = alu(op, th.rget(rs), th.rget(rt));
            th.rset(rd, v);
        }
        Inst::AluI { op, rd, rs, imm } => {
            let v = alu(op, th.rget(rs), imm);
            th.rset(rd, v);
        }
        Inst::Fpu { op, fd, fs, ft } => {
            let a = th.fget(fs);
            let b = th.fget(ft);
            let v = match op {
                FpuOp::Add => a + b,
                FpuOp::Sub => a - b,
                FpuOp::Mul => a * b,
                FpuOp::Div => a / b,
                FpuOp::Min => a.min(b),
                FpuOp::Max => a.max(b),
            };
            th.fset(fd, v);
        }
        Inst::FpuCmp { op, rd, fs, ft } => {
            let a = th.fget(fs);
            let b = th.fget(ft);
            let v = match op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            };
            th.rset(rd, v as i64);
        }
        Inst::FLi { fd, val } => th.fset(fd, val),
        Inst::CvtIF { fd, rs } => th.fset(fd, th.rget(rs) as f64),
        Inst::CvtFI { rd, fs } => th.rset(rd, th.fget(fs) as i64),
        Inst::MovIF { fd, rs } => th.fset(fd, f64::from_bits(th.rget(rs) as u64)),
        Inst::MovFI { rd, fs } => th.rset(rd, th.fget(fs).to_bits() as i64),
        Inst::FSqrt { fd, fs } => th.fset(fd, th.fget(fs).sqrt()),
        Inst::Load { space: Space::Local, rd, base, offset, .. } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = local_read_checked(th, tid, pc0, a)? as i64;
            th.rset(rd, v);
        }
        Inst::Store { space: Space::Local, rs, base, offset, .. } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.rget(rs) as u64;
            local_write_checked(th, tid, pc0, a, v)?;
        }
        Inst::FLoad { space: Space::Local, fd, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = f64::from_bits(local_read_checked(th, tid, pc0, a)?);
            th.fset(fd, v);
        }
        Inst::FStore { space: Space::Local, fs, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.fget(fs).to_bits();
            local_write_checked(th, tid, pc0, a, v)?;
        }
        Inst::LoadPair { space: Space::Local, fd1, fd2, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let v1 = f64::from_bits(local_read_checked(th, tid, pc0, a)?);
            let v2 = f64::from_bits(local_read_checked(th, tid, pc0, a + 1)?);
            th.fset(fd1, v1);
            th.fset(fd2, v2);
        }
        Inst::StorePair { space: Space::Local, fs1, fs2, base, offset } => {
            let a = ea_checked(th, tid, pc0, base, offset)?;
            let (v1, v2) = (th.fget(fs1).to_bits(), th.fget(fs2).to_bits());
            local_write_checked(th, tid, pc0, a, v1)?;
            local_write_checked(th, tid, pc0, a + 1, v2)?;
        }
        Inst::Branch { cond, rs, rt, target } => {
            let a = th.rget(rs);
            let b = th.rget(rt);
            let take = match cond {
                BCond::Eq => a == b,
                BCond::Ne => a != b,
                BCond::Lt => a < b,
                BCond::Le => a <= b,
                BCond::Gt => a > b,
                BCond::Ge => a >= b,
            };
            if take {
                return Ok(Some(target.pc()));
            }
        }
        Inst::Jump { target } => return Ok(Some(target.pc())),
        Inst::Nop => {}
        // F_LOCAL_EXEC covers exactly the arms above (pinned by the
        // decode tests); `exec` handles everything else itself.
        _ => unreachable!("non-local instruction in exec_local: {:?}", di.inst),
    }
    Ok(None)
}

/// [`exec_local`] as one out-of-line copy for [`exec`]'s fall-through:
/// the slow path reaches local instructions only when the fast path is
/// off (recording, SwitchEveryCycle, `debug-invariants`), so only the
/// fast path's loops carry an inlined body.
#[inline(never)]
fn exec_local_outlined(di: &DInst, th: &mut Thread, tid: usize, pc0: Pc) -> Res<Option<Pc>> {
    exec_local(di, th, tid, pc0)
}

/// Executes thread `tid`'s next instruction, `di` (the caller's decode
/// of the instruction at the thread's pc), on processor `p`, advancing
/// the processor clock. Per-step derived facts (cost, def/use masks,
/// spin classification) come from the [`DInst`]; the shared-memory,
/// priority and control instructions are handled here, and every
/// local-only one by [`exec_local`]. Inlined into both steppers, so a
/// shared access costs no call and its arm shares the stepper's
/// registers.
#[inline(always)]
fn exec<R: Recorder>(
    sys: &mut Sys,
    proc: &mut Proc,
    p: usize,
    tid: usize,
    di: &DInst,
    rec: &mut R,
) -> Res<Outcome> {
    let th = &mut sys.threads.cold[tid];
    let t0 = proc.time;
    let pc0 = th.pc;
    let c = di.cost as u64;
    proc.time += c;
    proc.stats.busy += c;
    th.run_cycles += c;
    sys.counters.instructions += 1;
    rec.charge(tid, Cat::Busy, c);
    th.pc += 1;

    // Deadlock tracking: an instruction that mutates state outside the
    // spin snapshot's domain (local memory, shared memory, priority)
    // invalidates any periodicity evidence for this thread.
    if di.resets_spin() {
        if R::ENABLED && th.spin_addr.is_some() {
            rec.event(t0, p, tid, EventKind::SpinEnd);
        }
        th.reset_spin();
    }

    // Overwriting a register kills any in-flight value headed for it.
    if !th.pending.is_empty() {
        th.kill_pending_masks(di.int_def, di.fp_def_mask);
    }

    match di.inst {
        Inst::Load { space: Space::Shared, rd, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let raw = sys
                .shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load", addr, sys.shared.len()))?;
            let spin = hint.is_poll();
            // Spin-loop polls re-read one address forever. Counting them as
            // one-line hits would let the §5.2 estimator skip every switch
            // in the loop, and letting them hit the cache would let a
            // spinner monopolize its processor under the cache models —
            // both starve the thread being waited on. Real machines need a
            // non-spinning primitive here (paper footnote 2); we model the
            // poll as always going to memory.
            let oneline_hit = if spin { false } else { th.one_line.access(addr) };
            th.rset(rd, raw as i64);
            if R::ENABLED {
                th.wait = match hint {
                    AccessHint::Spin => Cat::LockSpin,
                    AccessHint::Barrier => Cat::BarrierWait,
                    _ => Cat::MemoryStall,
                };
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
                if spin && th.spin_addr != Some(addr) {
                    let barrier = hint == AccessHint::Barrier;
                    rec.event(t0, p, tid, EventKind::SpinBegin { addr, barrier });
                }
            }
            if spin {
                let mutated = sys.counters.mutations != th.seen_mutations;
                th.seen_mutations = sys.counters.mutations;
                if th.note_spin_poll(addr, raw, t0, mutated) {
                    sys.counters.spin_confirm = true;
                }
            }
            let cache_hit = if spin {
                sys.traffic.record_load(1, true);
                false
            } else {
                lookup_cache(sys, p, addr)
            };
            let a = Access { t0, p, tid, pc: pc0, addr, spin };
            record(&mut sys.trace, &a, TraceKind::Read);
            let dests = [(false, rd.index() as u8)];
            let dests: &[(bool, u8)] = if rd.is_zero() { &[] } else { &dests };
            shared_read(sys, &mut proc.stats, a, 1, (cache_hit, oneline_hit), dests, rec)
        }
        Inst::FLoad { space: Space::Shared, fd, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let raw = sys
                .shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load", addr, sys.shared.len()))?;
            let oneline_hit = th.one_line.access(addr);
            th.fset(fd, f64::from_bits(raw));
            if R::ENABLED {
                th.wait = Cat::MemoryStall;
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
            }
            let cache_hit = lookup_cache(sys, p, addr);
            let a = Access { t0, p, tid, pc: pc0, addr, spin: false };
            record(&mut sys.trace, &a, TraceKind::Read);
            let dests = [(true, fd.index() as u8)];
            shared_read(sys, &mut proc.stats, a, 1, (cache_hit, oneline_hit), &dests, rec)
        }
        Inst::LoadPair { space: Space::Shared, fd1, fd2, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let len = sys.shared.len();
            let raw1 = sys
                .shared
                .try_read(addr)
                .ok_or_else(|| bad_access(tid, pc0, "shared load-pair", addr, len))?;
            let raw2 = sys
                .shared
                .try_read(addr + 1)
                .ok_or_else(|| bad_access(tid, pc0, "shared load-pair", addr + 1, len))?;
            let oneline_hit = th.one_line.access(addr);
            th.fset(fd1, f64::from_bits(raw1));
            th.fset(fd2, f64::from_bits(raw2));
            if R::ENABLED {
                th.wait = Cat::MemoryStall;
                rec.event(t0, p, tid, EventKind::LoadIssue { addr });
            }
            let line = sys.config.cache.line_words;
            let cache_hit = if let Some(c) = sys.caches.as_mut() {
                let h1 = c.load(p, addr);
                let h2 = c.load(p, addr + 1);
                if !h1 {
                    sys.traffic.record_line_fill(line, false);
                }
                if !h2 && addr / line != (addr + 1) / line {
                    sys.traffic.record_line_fill(line, false);
                }
                h1 && h2
            } else {
                sys.traffic.record_load(2, false);
                false
            };
            let a = Access { t0, p, tid, pc: pc0, addr, spin: false };
            record(&mut sys.trace, &a, TraceKind::ReadPair);
            let dests = [(true, fd1.index() as u8), (true, fd2.index() as u8)];
            shared_read(sys, &mut proc.stats, a, 2, (cache_hit, oneline_hit), &dests, rec)
        }
        Inst::FetchAdd { rd, rs, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let spin = hint == AccessHint::Spin;
            let inc = th.rget(rs);
            let old = sys
                .shared
                .try_fetch_add(addr, inc)
                .ok_or_else(|| bad_access(tid, pc0, "fetch-and-add", addr, sys.shared.len()))?
                as i64;
            th.rset(rd, old);
            if R::ENABLED {
                th.wait = if spin { Cat::LockSpin } else { Cat::MemoryStall };
            }
            sys.counters.mutations += 1;
            sys.traffic.record_fetch_add(spin);
            if let Some(c) = sys.caches.as_mut() {
                let inv = c.store(p, addr);
                sys.traffic.record_invalidations(inv);
            }
            let a = Access { t0, p, tid, pc: pc0, addr, spin };
            record(&mut sys.trace, &a, TraceKind::FetchAdd);
            let shape = MsgShape {
                req: MsgClass::FetchAddReq,
                req_words: 1,
                reply: MsgClass::FetchAddReply,
                reply_words: 1,
            };
            // Every F&A crosses the network (even fire-and-forget ones):
            // it occupies links and, under combining, can merge with or
            // open a combining window for concurrent same-address adds.
            let q0 = net_queue_cycles::<R>(&sys.net);
            let fa0 =
                if R::ENABLED { sys.net.as_ref().map_or(0, |n| n.stats().fa_combined) } else { 0 };
            let fa_base = sys
                .net
                .as_mut()
                .map(|n| n.fetch_add(t0, p, addr, shape.req_bits(), shape.reply_bits()) - t0);
            if R::ENABLED {
                let combined = sys.net.as_ref().is_some_and(|n| n.stats().fa_combined > fa0);
                rec.event(t0, p, tid, EventKind::FetchAdd { addr, combined });
                if hint == AccessHint::Release {
                    rec.event(t0, p, tid, EventKind::BarrierArrive { addr });
                }
                observe_net_queue(rec, &sys.net, q0, &a);
            }
            if rd.is_zero() {
                // Fire-and-forget arrival (barrier-style): no reply is
                // awaited, so there is nothing for fault injection to drop
                // that anyone waits on.
                return Ok(Outcome::Continue);
            }
            let base = fa_base.unwrap_or(sys.latency());
            let reply = reply_time(sys, &mut proc.stats, &a, base, shape, rec)?;
            if R::ENABLED {
                rec.sample(Metric::LoadLatency, reply - t0);
                rec.event(reply, p, tid, EventKind::LoadReply { addr, latency: reply - t0 });
            }
            // Fetch-and-add always goes to memory: never a cache hit.
            Ok(read_dispatch(sys, tid, &[(false, rd.index() as u8)], (false, false), reply))
        }

        Inst::Store { space: Space::Shared, rs, base, offset, hint } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.rget(rs) as u64;
            sys.shared
                .try_write(addr, v)
                .ok_or_else(|| bad_access(tid, pc0, "shared store", addr, sys.shared.len()))?;
            sys.counters.mutations += 1;
            let a = Access { t0, p, tid, pc: pc0, addr, spin: hint == AccessHint::Spin };
            shared_store(sys, &a, 1, rec);
            record(&mut sys.trace, &a, TraceKind::Write);
            if R::ENABLED && hint == AccessHint::Release {
                rec.event(t0, p, tid, EventKind::BarrierRelease { addr });
            }
            Ok(Outcome::Continue)
        }
        Inst::FStore { space: Space::Shared, fs, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let v = th.fget(fs).to_bits();
            sys.shared
                .try_write(addr, v)
                .ok_or_else(|| bad_access(tid, pc0, "shared store", addr, sys.shared.len()))?;
            sys.counters.mutations += 1;
            let a = Access { t0, p, tid, pc: pc0, addr, spin: false };
            shared_store(sys, &a, 1, rec);
            record(&mut sys.trace, &a, TraceKind::Write);
            Ok(Outcome::Continue)
        }
        Inst::StorePair { space: Space::Shared, fs1, fs2, base, offset } => {
            let addr = ea_checked(th, tid, pc0, base, offset)?;
            let (v1, v2) = (th.fget(fs1).to_bits(), th.fget(fs2).to_bits());
            let len = sys.shared.len();
            sys.shared
                .try_write(addr, v1)
                .ok_or_else(|| bad_access(tid, pc0, "shared store-pair", addr, len))?;
            sys.shared
                .try_write(addr + 1, v2)
                .ok_or_else(|| bad_access(tid, pc0, "shared store-pair", addr + 1, len))?;
            sys.counters.mutations += 1;
            let a = Access { t0, p, tid, pc: pc0, addr, spin: false };
            record(&mut sys.trace, &a, TraceKind::WritePair);
            shared_store(sys, &a, 2, rec);
            let line = sys.config.cache.line_words;
            if let Some(c) = sys.caches.as_mut() {
                if addr / line != (addr + 1) / line {
                    let inv = c.store(p, addr + 1);
                    sys.traffic.record_invalidations(inv);
                }
            }
            Ok(Outcome::Continue)
        }

        Inst::SetPrio { level } => {
            sys.threads.prio[tid] = level;
            Ok(Outcome::Continue)
        }
        Inst::Switch => Ok(switch_outcome(&sys.config, th, proc.time, &mut sys.counters)),
        Inst::Halt => Ok(Outcome::Halt),
        _ => {
            if let Some(target) = exec_local_outlined(di, th, tid, pc0)? {
                th.pc = target;
            }
            Ok(Outcome::Continue)
        }
    }
}

/// The tail every shared read shares once its value is in the register
/// file: message shape, base latency (a modeled network round trip when
/// a contention topology is active and the read really goes to memory —
/// cache hits are served locally — otherwise the configured constant),
/// queue observation, reply time, the reply's latency sample and event,
/// and the model's dispatch.
#[inline(always)]
fn shared_read<R: Recorder>(
    sys: &mut Sys,
    stats: &mut ProcStats,
    a: Access,
    words: u64,
    (cache_hit, oneline_hit): (bool, bool),
    dests: &[(bool, u8)],
    rec: &mut R,
) -> Res<Outcome> {
    let shape = load_shape(sys.caches.is_some() && !a.spin, cache_hit, words, &sys.config);
    let q0 = net_queue_cycles::<R>(&sys.net);
    let base = match sys.net.as_mut() {
        Some(n) if !cache_hit => {
            n.round_trip(a.t0, a.p, a.addr, shape.req_bits(), shape.reply_bits()) - a.t0
        }
        _ => sys.latency(),
    };
    if R::ENABLED && !cache_hit {
        observe_net_queue(rec, &sys.net, q0, &a);
    }
    let reply = reply_time(sys, stats, &a, base, shape, rec)?;
    if R::ENABLED && !cache_hit {
        rec.sample(Metric::LoadLatency, reply - a.t0);
        rec.event(reply, a.p, a.tid, EventKind::LoadReply { addr: a.addr, latency: reply - a.t0 });
    }
    Ok(read_dispatch(sys, a.tid, dests, (cache_hit, oneline_hit), reply))
}

/// Appends one shared access to the access trace, when one is collected.
#[inline]
fn record(trace: &mut Option<Vec<TraceEvent>>, a: &Access, kind: TraceKind) {
    if let Some(tr) = trace.as_mut() {
        tr.push(TraceEvent {
            time: a.t0,
            proc: a.p as u32,
            thread: a.tid as u32,
            kind,
            addr: a.addr,
            spin: a.spin,
        });
    }
}

/// `BadProgram` for a wild memory access.
#[cold]
#[inline(never)]
fn bad_access(tid: usize, pc: Pc, what: &str, addr: u64, len: u64) -> Box<SimError> {
    Box::new(SimError::BadProgram {
        thread: tid,
        pc: pc as u64,
        detail: format!("{what} out of range: word {addr} >= {len}"),
    })
}

/// Effective-address computation that turns a negative address into
/// `BadProgram` instead of wrapping or panicking.
#[inline]
fn ea_checked(th: &Thread, tid: usize, pc: Pc, base: mtsim_isa::Reg, offset: i64) -> Res<u64> {
    th.try_ea(base, offset).ok_or_else(|| negative_ea(th, tid, pc, base, offset))
}

/// `BadProgram` for a negative effective address.
#[cold]
#[inline(never)]
fn negative_ea(
    th: &Thread,
    tid: usize,
    pc: Pc,
    base: mtsim_isa::Reg,
    offset: i64,
) -> Box<SimError> {
    Box::new(SimError::BadProgram {
        thread: tid,
        pc: pc as u64,
        detail: format!(
            "negative effective address {} ({base} + {offset})",
            th.rget(base).wrapping_add(offset)
        ),
    })
}

/// Checked local-memory load.
#[inline]
fn local_read_checked(th: &Thread, tid: usize, pc: Pc, addr: u64) -> Res<u64> {
    th.try_local_read(addr)
        .ok_or_else(|| bad_access(tid, pc, "local load", addr, th.local.len() as u64))
}

/// Checked local-memory store.
#[inline]
fn local_write_checked(th: &mut Thread, tid: usize, pc: Pc, addr: u64, v: u64) -> Res<()> {
    let len = th.local.len() as u64;
    th.try_local_write(addr, v).ok_or_else(|| bad_access(tid, pc, "local store", addr, len))
}

/// The request/reply message pair one shared access puts on the wire —
/// drives both fault-recovery traffic accounting (resends and duplicates
/// are billed as the *real* messages, not generic word loads) and network
/// serialization delays.
#[derive(Debug, Clone, Copy)]
struct MsgShape {
    req: MsgClass,
    req_words: u64,
    reply: MsgClass,
    reply_words: u64,
}

impl MsgShape {
    fn req_bits(&self) -> u64 {
        message_bits(self.req, self.req_words)
    }

    fn reply_bits(&self) -> u64 {
        message_bits(self.reply, self.reply_words)
    }
}

/// Message shape of a shared read of `words` words: a cache miss fetches
/// a whole line; everything else (no caches, spin polls, and hits — whose
/// reply is served locally and unused) is a plain word-load pair.
#[inline]
fn load_shape(cached: bool, cache_hit: bool, words: u64, config: &MachineConfig) -> MsgShape {
    if cached && !cache_hit {
        MsgShape {
            req: MsgClass::LineReq,
            req_words: 0,
            reply: MsgClass::LineReply,
            reply_words: config.cache.line_words,
        }
    } else {
        MsgShape {
            req: MsgClass::LoadReq,
            req_words: 0,
            reply: MsgClass::LoadReply,
            reply_words: words,
        }
    }
}

/// Computes the reply time of one reply-bearing shared request whose
/// fault-free round trip is `latency`, running the retry protocol when
/// fault injection is active. Faults are timing and traffic events only:
/// the value was already taken from shared memory in global order, so a
/// request that survives its retries observes exactly what a fault-free
/// run would have.
#[inline(always)]
fn reply_time<R: Recorder>(
    sys: &mut Sys,
    stats: &mut ProcStats,
    a: &Access,
    latency: u64,
    shape: MsgShape,
    rec: &mut R,
) -> Res<u64> {
    if sys.fault.is_none() {
        return Ok(a.t0 + latency);
    }
    faulted_reply_time(sys, stats, a, latency, shape, rec)
}

/// [`reply_time`] under fault injection: the retry protocol, out of line.
#[inline(never)]
fn faulted_reply_time<R: Recorder>(
    sys: &mut Sys,
    stats: &mut ProcStats,
    a: &Access,
    latency: u64,
    shape: MsgShape,
    rec: &mut R,
) -> Res<u64> {
    let plan = sys.fault.as_mut().expect("called only with fault injection active");
    match plan.request(latency) {
        Ok(out) => {
            if out.retries > 0 || out.timeouts > 0 || out.duplicates > 0 {
                sys.traffic.record_fault_recovery(
                    out.retries,
                    out.timeouts,
                    out.duplicates,
                    shape.req,
                    shape.req_words,
                    shape.reply,
                    shape.reply_words,
                    a.spin,
                );
            }
            if R::ENABLED && (out.retries > 0 || out.timeouts > 0) {
                rec.event(
                    a.t0,
                    a.p,
                    a.tid,
                    EventKind::FaultRetry {
                        addr: a.addr,
                        retries: out.retries as u64,
                        timeouts: out.timeouts as u64,
                    },
                );
            }
            stats.retries += out.retries as u64;
            stats.timeouts += out.timeouts as u64;
            stats.fault_wait += out.delay.saturating_sub(latency);
            Ok(a.t0 + out.delay)
        }
        Err(e) => Err(Box::new(SimError::Fault {
            proc: a.p,
            thread: a.tid,
            pc: a.pc as u64,
            addr: a.addr,
            attempts: e.attempts,
            cycle: a.t0 + e.wasted,
        })),
    }
}

fn alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
        AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
        AluOp::Sra => a >> (b as u64 & 63),
        AluOp::Slt => (a < b) as i64,
        AluOp::Sle => (a <= b) as i64,
        AluOp::Seq => (a == b) as i64,
        AluOp::Sne => (a != b) as i64,
    }
}

/// Cache lookup + fill traffic for a single-word, non-spin shared load.
/// Returns the hit flag (always `false` without caches, where the plain
/// load messages are recorded instead).
#[inline]
fn lookup_cache(sys: &mut Sys, p: usize, addr: u64) -> bool {
    match sys.caches.as_mut() {
        Some(c) => {
            let hit = c.load(p, addr);
            if !hit {
                sys.traffic.record_line_fill(sys.config.cache.line_words, false);
            }
            hit
        }
        None => {
            sys.traffic.record_load(1, false);
            false
        }
    }
}

/// Traffic, network occupancy and invalidations of one shared store.
fn shared_store<R: Recorder>(sys: &mut Sys, a: &Access, words: u64, rec: &mut R) {
    sys.traffic.record_store(words, a.spin);
    rec.event(a.t0, a.p, a.tid, EventKind::StoreIssue { addr: a.addr });
    // Stores are write-through and acknowledged but never waited on:
    // the round trip still occupies network links (driving up queueing
    // for the loads behind it) even though its completion time is moot.
    let q0 = net_queue_cycles::<R>(&sys.net);
    if let Some(n) = sys.net.as_mut() {
        n.round_trip(
            a.t0,
            a.p,
            a.addr,
            message_bits(MsgClass::Store, words),
            message_bits(MsgClass::StoreAck, 0),
        );
    }
    if R::ENABLED {
        observe_net_queue(rec, &sys.net, q0, a);
    }
    if let Some(c) = sys.caches.as_mut() {
        let inv = c.store(a.p, a.addr);
        sys.traffic.record_invalidations(inv);
    }
}

/// The network's cumulative queue-residency counter, read only when a real
/// recorder is attached (the delta across one send is that message's
/// residency).
#[inline]
fn net_queue_cycles<R: Recorder>(net: &Option<Network>) -> u64 {
    if R::ENABLED {
        net.as_ref().map_or(0, |n| n.stats().queue_cycles)
    } else {
        0
    }
}

/// Emits the queue-residency events and sample for one network message
/// sent since `before` was read. The engine observes queueing at message
/// granularity (the modeled network reports residency per round trip, not
/// per hop), so one enqueue/dequeue pair stands for the whole trip.
fn observe_net_queue<R: Recorder>(rec: &mut R, net: &Option<Network>, before: u64, a: &Access) {
    if let Some(n) = net.as_ref() {
        let queued = n.stats().queue_cycles - before;
        rec.sample(Metric::QueueResidency, queued);
        rec.event(a.t0, a.p, a.tid, EventKind::NetEnqueue { addr: a.addr, queued });
        rec.event(a.t0 + queued, a.p, a.tid, EventKind::NetDequeue { addr: a.addr });
    }
}

/// What a `Switch` instruction does under the configured model. Under
/// the grouping models it ends the current load group, whether or not
/// the switch is taken.
#[inline]
fn switch_outcome(
    config: &MachineConfig,
    th: &mut Thread,
    now: u64,
    counters: &mut Counters,
) -> Outcome {
    let outcome = match config.model {
        SwitchModel::ExplicitSwitch => {
            if config.interblock_estimate && th.group_reads > 0 && th.group_all_oneline {
                counters.skipped += 1;
                Outcome::Continue
            } else {
                Outcome::Yield { wake: th.outstanding.max(now), cause: SwitchCause::Explicit }
            }
        }
        SwitchModel::ConditionalSwitch => {
            if th.pending_miss {
                Outcome::Yield { wake: th.outstanding.max(now), cause: SwitchCause::Explicit }
            } else if config.max_run.is_some_and(|m| th.run_cycles >= m) {
                counters.forced += 1;
                Outcome::Yield { wake: now, cause: SwitchCause::Forced }
            } else {
                counters.skipped += 1;
                Outcome::Continue
            }
        }
        // Under every other model the switch instruction is an ordinary
        // 1-cycle instruction (the every-cycle model rotates regardless).
        _ => return Outcome::Continue,
    };
    th.clear_group();
    th.outstanding = 0;
    outcome
}
