//! Deterministic, seeded fault injection for the shared-memory network.
//!
//! Boothe & Ranade's machine assumes a perfectly reliable network with a
//! constant round-trip latency. Every later design in this space treats
//! variable latency and lost or NACKed replies as the common case that
//! multithreading must hide, so this module grows the simulator a hostile
//! network it can be tested against:
//!
//! * [`LatencyDist`] — per-request round-trip latencies drawn from a
//!   constant, uniform, or geometric (long-tailed) distribution;
//! * [`FaultConfig`] — seed plus drop/delay/duplicate rates and the retry
//!   protocol's parameters (retry budget, exponential backoff, timeout);
//! * [`FaultPlan`] — the seeded runtime state. One plan is owned by one
//!   machine; because the engine issues requests in a deterministic global
//!   order, the drawn fault schedule is a pure function of
//!   `(seed, rates, program, machine config)` — runs reproduce bit-for-bit.
//!
//! Faults are *timing and traffic* events, exactly like the cache model:
//! data values still come from [`SharedMemory`](crate::SharedMemory) in
//! global time order, so a run that survives its faults produces the same
//! memory image as a fault-free run — only slower, with the retry work
//! visible in the statistics.

use mtsim_rng::Rng;

/// Largest round-trip latency, in cycles, a configuration may ask for:
/// the machine's base latency and every bound of a [`LatencyDist`].
/// Millions of times beyond any latency the experiments use (the latency
/// sweep stops at 800), it keeps `now + latency`, the geometric tail and
/// the four-latency drop timeout far from wrapping the 64-bit clock.
pub const MAX_LATENCY: u64 = 1 << 32;

/// Distribution of the shared-memory round-trip latency.
///
/// `base` in the draw methods is the machine's configured constant latency
/// (the paper's 200 cycles), which `Constant` reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyDist {
    /// The paper's model: every round trip takes the configured constant.
    Constant,
    /// Uniform in `[lo, hi]` cycles.
    Uniform {
        /// Minimum round-trip latency.
        lo: u64,
        /// Maximum round-trip latency (inclusive).
        hi: u64,
    },
    /// `min` plus a geometric tail with success probability `p` — a
    /// long-tailed network where most replies are prompt but a few crawl.
    /// The tail mean is `(1-p)/p` extra cycles.
    Geometric {
        /// Minimum round-trip latency.
        min: u64,
        /// Per-cycle stop probability of the tail, in `(0, 1]`.
        p: f64,
    },
}

impl LatencyDist {
    /// Draws one round-trip latency.
    pub fn draw(&self, base: u64, rng: &mut Rng) -> u64 {
        match *self {
            LatencyDist::Constant => base,
            LatencyDist::Uniform { lo, hi } => {
                if lo >= hi {
                    lo
                } else {
                    rng.range_u64(lo, hi + 1)
                }
            }
            LatencyDist::Geometric { min, p } => {
                // Cap the tail at 64 mean-lengths so a single draw cannot
                // blow past any watchdog on its own.
                let mean = ((1.0 - p) / p.max(1e-9)).max(1.0);
                min + rng.geometric(p, (mean * 64.0) as u64 + 1)
            }
        }
    }

    /// Largest latency this distribution can produce (used to size the
    /// drop-timeout default).
    pub fn max_latency(&self, base: u64) -> u64 {
        match *self {
            LatencyDist::Constant => base,
            LatencyDist::Uniform { lo, hi } => hi.max(lo),
            LatencyDist::Geometric { min, p } => {
                let mean = ((1.0 - p) / p.max(1e-9)).max(1.0);
                min + (mean * 64.0) as u64 + 1
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LatencyDist::Constant => "constant",
            LatencyDist::Uniform { .. } => "uniform",
            LatencyDist::Geometric { .. } => "geometric",
        }
    }
}

/// Seed, fault rates, and retry-protocol parameters.
///
/// The default configuration is the paper's reliable constant-latency
/// network: all rates zero, `Constant` distribution — and in that state
/// [`FaultConfig::is_active`] is false and the engine skips the fault path
/// entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault schedule (independent of workload seeds).
    pub seed: u64,
    /// Probability a reply-bearing request fails: half the failures come
    /// back as prompt NACKs, half are silent drops that must time out.
    pub drop_rate: f64,
    /// Probability a successful reply is delayed by an extra geometric
    /// tail (mean one base latency).
    pub delay_rate: f64,
    /// Probability a successful reply is duplicated (pure bandwidth cost;
    /// the engine discards the copy).
    pub dup_rate: f64,
    /// Round-trip latency distribution.
    pub dist: LatencyDist,
    /// Retries after the first attempt before the request is abandoned
    /// and the run fails with `SimError::Fault`.
    pub max_retries: u32,
    /// First exponential-backoff wait after a NACK, in cycles.
    pub backoff_base: u64,
    /// Backoff ceiling in cycles.
    pub backoff_cap: u64,
    /// Cycles a requester waits for a silently dropped reply before
    /// resending. `0` means "auto": four times the worst-case latency.
    pub timeout: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            dup_rate: 0.0,
            dist: LatencyDist::Constant,
            max_retries: 8,
            backoff_base: 16,
            backoff_cap: 4096,
            timeout: 0,
        }
    }
}

impl FaultConfig {
    /// True when any fault or non-constant latency is configured — i.e.
    /// when the engine must consult a [`FaultPlan`] per request.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.delay_rate > 0.0
            || self.dup_rate > 0.0
            || self.dist != LatencyDist::Constant
    }

    /// Checks rates and distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn check(&self) -> Result<(), String> {
        for (name, r) in
            [("drop", self.drop_rate), ("delay", self.delay_rate), ("dup", self.dup_rate)]
        {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(format!("fault {name} rate {r} outside [0, 1]"));
            }
        }
        if let LatencyDist::Uniform { lo, hi } = self.dist {
            if lo > hi {
                return Err(format!("uniform latency range {lo}..{hi} is empty"));
            }
            if hi > MAX_LATENCY {
                return Err(format!("uniform latency bound {hi} exceeds the cap of {MAX_LATENCY}"));
            }
        }
        if let LatencyDist::Geometric { min, p } = self.dist {
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("geometric latency p {p} outside (0, 1]"));
            }
            if min > MAX_LATENCY {
                return Err(format!(
                    "geometric latency min {min} exceeds the cap of {MAX_LATENCY}"
                ));
            }
        }
        if self.drop_rate > 0.0 && self.max_retries == 0 {
            return Err("drop faults need max_retries >= 1".to_string());
        }
        Ok(())
    }
}

/// What one reply-bearing request cost after the retry protocol absorbed
/// its faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyOutcome {
    /// Cycles from issue to the successful reply, including every failed
    /// attempt, timeout, and backoff wait.
    pub delay: u64,
    /// NACK-triggered resends.
    pub retries: u32,
    /// Silent-drop timeouts (reply lost in the network).
    pub timeouts: u32,
    /// Duplicated replies delivered (discarded, but they cost bandwidth).
    pub duplicates: u32,
}

/// A request that exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryExhausted {
    /// Total attempts made (first send plus retries).
    pub attempts: u32,
    /// Cycles burned before giving up.
    pub wasted: u64,
}

/// The seeded runtime fault state of one machine.
///
/// Fate decisions (drop / delay / duplicate) and latency magnitudes come
/// from two independent derived streams so changing one rate never shifts
/// the other stream's draws for the same request index.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    fate: Rng,
    magnitude: Rng,
    requests: u64,
}

impl FaultPlan {
    /// Builds the plan for one run.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            fate: Rng::derive(cfg.seed, "fault-fate"),
            magnitude: Rng::derive(cfg.seed, "fault-magnitude"),
            requests: 0,
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Reply-bearing requests decided so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Effective drop timeout for a given base latency.
    fn drop_timeout(&self, base: u64) -> u64 {
        if self.cfg.timeout > 0 {
            self.cfg.timeout
        } else {
            4 * self.cfg.dist.max_latency(base).max(1)
        }
    }

    /// Exponential backoff before retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> u64 {
        let shifted = self.cfg.backoff_base.saturating_mul(1u64 << attempt.min(32));
        shifted.min(self.cfg.backoff_cap)
    }

    /// Decides the fate of one reply-bearing request issued against a
    /// machine whose constant base latency is `base`.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when `max_retries` resends all failed.
    pub fn request(&mut self, base: u64) -> Result<ReplyOutcome, RetryExhausted> {
        self.requests += 1;
        let mut out = ReplyOutcome { delay: 0, retries: 0, timeouts: 0, duplicates: 0 };
        for attempt in 0..=self.cfg.max_retries {
            let latency = self.cfg.dist.draw(base, &mut self.magnitude);
            if self.cfg.drop_rate > 0.0 && self.fate.chance(self.cfg.drop_rate) {
                // Failed attempt: a prompt NACK or a silent drop.
                if self.fate.chance(0.5) {
                    out.delay += latency;
                    out.retries += 1;
                } else {
                    out.delay += self.drop_timeout(base);
                    out.timeouts += 1;
                }
                out.delay += self.backoff(attempt + 1);
                continue;
            }
            let mut latency = latency;
            if self.cfg.delay_rate > 0.0 && self.fate.chance(self.cfg.delay_rate) {
                // Congestion: a geometric extra wait, mean one base latency.
                let p = 1.0 / (base.max(1) as f64 + 1.0);
                latency += self.magnitude.geometric(p, 64 * base.max(1));
            }
            if self.cfg.dup_rate > 0.0 && self.fate.chance(self.cfg.dup_rate) {
                out.duplicates += 1;
            }
            out.delay += latency;
            return Ok(out);
        }
        Err(RetryExhausted { attempts: self.cfg.max_retries + 1, wasted: out.delay })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(drop: f64, delay: f64) -> FaultConfig {
        FaultConfig { seed: 42, drop_rate: drop, delay_rate: delay, ..FaultConfig::default() }
    }

    #[test]
    fn inactive_default() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        cfg.check().unwrap();
    }

    #[test]
    fn reliable_network_is_exactly_the_paper() {
        let mut plan = FaultPlan::new(FaultConfig { seed: 9, ..FaultConfig::default() });
        for _ in 0..100 {
            let out = plan.request(200).unwrap();
            assert_eq!(out, ReplyOutcome { delay: 200, retries: 0, timeouts: 0, duplicates: 0 });
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = active(0.3, 0.2);
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..1000 {
            assert_eq!(a.request(200), b.request(200));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(FaultConfig { seed: 1, ..active(0.4, 0.0) });
        let mut b = FaultPlan::new(FaultConfig { seed: 2, ..active(0.4, 0.0) });
        let da: Vec<_> = (0..100).map(|_| a.request(200).unwrap().delay).collect();
        let db: Vec<_> = (0..100).map(|_| b.request(200).unwrap().delay).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn drops_cost_more_than_clean_runs() {
        let mut clean = FaultPlan::new(FaultConfig { seed: 5, ..FaultConfig::default() });
        let mut faulty = FaultPlan::new(FaultConfig { seed: 5, ..active(0.5, 0.0) });
        let c: u64 = (0..200).map(|_| clean.request(200).unwrap().delay).sum();
        let f: u64 = (0..200).map(|_| faulty.request(200).unwrap().delay).sum();
        assert!(f > c, "faulty {f} must exceed clean {c}");
        let retried: u32 = {
            let mut p = FaultPlan::new(active(0.5, 0.0));
            (0..200).map(|_| p.request(200).unwrap()).map(|o| o.retries + o.timeouts).sum()
        };
        assert!(retried > 0, "half the attempts should fail");
    }

    #[test]
    fn certain_drop_exhausts_retries() {
        let mut plan = FaultPlan::new(FaultConfig {
            drop_rate: 1.0,
            max_retries: 3,
            ..FaultConfig::default()
        });
        let err = plan.request(200).unwrap_err();
        assert_eq!(err.attempts, 4);
        assert!(err.wasted > 0);
    }

    #[test]
    fn uniform_dist_stays_in_bounds() {
        let mut plan = FaultPlan::new(FaultConfig {
            dist: LatencyDist::Uniform { lo: 50, hi: 400 },
            ..FaultConfig::default()
        });
        assert!(plan.config().is_active(), "non-constant dist needs the fault path");
        for _ in 0..1000 {
            let d = plan.request(200).unwrap().delay;
            assert!((50..=400).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn geometric_dist_has_a_tail() {
        let mut plan = FaultPlan::new(FaultConfig {
            dist: LatencyDist::Geometric { min: 100, p: 0.02 },
            ..FaultConfig::default()
        });
        let draws: Vec<u64> = (0..2000).map(|_| plan.request(200).unwrap().delay).collect();
        assert!(draws.iter().all(|&d| d >= 100));
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!((120.0..220.0).contains(&mean), "mean {mean} should sit near 149");
        assert!(draws.iter().any(|&d| d > 250), "long tail expected");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let plan = FaultPlan::new(FaultConfig {
            backoff_base: 16,
            backoff_cap: 100,
            ..FaultConfig::default()
        });
        assert_eq!(plan.backoff(1), 32);
        assert_eq!(plan.backoff(2), 64);
        assert_eq!(plan.backoff(3), 100);
        assert_eq!(plan.backoff(30), 100);
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(FaultConfig { drop_rate: 1.5, ..FaultConfig::default() }.check().is_err());
        assert!(FaultConfig { delay_rate: -0.1, ..FaultConfig::default() }.check().is_err());
        assert!(FaultConfig {
            dist: LatencyDist::Uniform { lo: 9, hi: 3 },
            ..FaultConfig::default()
        }
        .check()
        .is_err());
        assert!(FaultConfig {
            dist: LatencyDist::Geometric { min: 0, p: 0.0 },
            ..FaultConfig::default()
        }
        .check()
        .is_err());
        assert!(FaultConfig { drop_rate: 0.1, max_retries: 0, ..FaultConfig::default() }
            .check()
            .is_err());
    }

    #[test]
    fn duplicates_are_counted() {
        let mut plan =
            FaultPlan::new(FaultConfig { seed: 7, dup_rate: 0.5, ..FaultConfig::default() });
        let dups: u32 = (0..400).map(|_| plan.request(200).unwrap().duplicates).sum();
        assert!(dups > 100, "dup rate 0.5 over 400 requests gave {dups}");
    }
}
