//! Multithreading models (the paper's Figure 1 taxonomy) and machine
//! configuration.

use mtsim_mem::{CacheParams, FaultConfig, NetworkConfig, MAX_LATENCY};

/// When a processor context-switches between its resident threads.
///
/// This is the paper's Figure 1 design space. The paper's evaluation
/// concentrates on [`SwitchOnLoad`](SwitchModel::SwitchOnLoad) (§4),
/// [`ExplicitSwitch`](SwitchModel::ExplicitSwitch) (§5) and
/// [`ConditionalSwitch`](SwitchModel::ConditionalSwitch) (§6); the other
/// variants are implemented for completeness and for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchModel {
    /// Zero-latency shared memory, no context switching: the unbuildable
    /// upper bound of the paper's Figure 2.
    Ideal,
    /// HEP/MASA style: yield after **every** instruction; a thread is not
    /// re-runnable until its outstanding reference completes.
    SwitchEveryCycle,
    /// Yield on every shared load and fetch-and-add (§4's baseline).
    SwitchOnLoad,
    /// Split-phase: loads issue and execution continues; yield at the
    /// first instruction that *uses* a still-pending value.
    SwitchOnUse,
    /// The paper's model (§5): loads issue and continue; the explicit
    /// `Switch` instruction yields until **all** outstanding replies have
    /// arrived. Requires code prepared by `mtsim_opt::group_shared_loads`.
    ExplicitSwitch,
    /// Per-processor cache; yield on a load that misses, paying
    /// [`MachineConfig::switch_cost`] wasted pipeline cycles (the switch is
    /// detected too late in the pipeline to be free).
    SwitchOnMiss,
    /// Split-phase plus cache: yield at the use of a value whose load
    /// missed, with the same late-detection cost.
    SwitchOnUseMiss,
    /// The paper's cached model (§6): grouped code as in `ExplicitSwitch`,
    /// but the `Switch` instruction yields only if a load of its group
    /// missed the cache — or unconditionally once the thread has run for
    /// [`MachineConfig::max_run`] cycles (the forced-switch flag that fixes
    /// the ugray critical-section pathology of §6.2).
    ConditionalSwitch,
    /// Post-1992 simultaneous multithreading (the TLP-survey frontier,
    /// arXiv:1603.09274): up to [`MachineConfig::issue_width`] ready
    /// threads issue **per cycle** on shared functional-unit lanes.
    /// Split-phase loads issue and continue (scoreboard-tracked like
    /// `SwitchOnUse`); a thread whose operand is still pending simply
    /// doesn't compete for a lane that cycle — there is no context switch
    /// and no switch cost. With `issue_width == 1` this degenerates to a
    /// zero-cost switch-on-use machine re-scheduled every cycle.
    Smt,
}

impl SwitchModel {
    /// Stable numeric id, used as the const-generic parameter that
    /// monomorphizes the engine's hot path per model (DESIGN.md §20).
    /// Round-trips with [`SwitchModel::from_id`].
    pub const fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`SwitchModel::id`]. `const` so a monomorphized engine
    /// instantiation recovers its model as a compile-time constant and
    /// every model branch in the hot path folds away.
    ///
    /// # Panics
    ///
    /// Panics on an id no model maps to (only reachable by handing a
    /// const-generic engine function a raw out-of-range literal).
    pub const fn from_id(id: u8) -> SwitchModel {
        match id {
            0 => SwitchModel::Ideal,
            1 => SwitchModel::SwitchEveryCycle,
            2 => SwitchModel::SwitchOnLoad,
            3 => SwitchModel::SwitchOnUse,
            4 => SwitchModel::ExplicitSwitch,
            5 => SwitchModel::SwitchOnMiss,
            6 => SwitchModel::SwitchOnUseMiss,
            7 => SwitchModel::ConditionalSwitch,
            8 => SwitchModel::Smt,
            _ => panic!("unknown switch-model id"),
        }
    }

    /// True for the models that use the per-processor shared-data cache.
    pub fn uses_cache(self) -> bool {
        matches!(
            self,
            SwitchModel::SwitchOnMiss
                | SwitchModel::SwitchOnUseMiss
                | SwitchModel::ConditionalSwitch
        )
    }

    /// True for the models that execute code prepared by the grouping pass
    /// (i.e. that give the `Switch` instruction its special meaning).
    pub fn uses_explicit_switch(self) -> bool {
        matches!(self, SwitchModel::ExplicitSwitch | SwitchModel::ConditionalSwitch)
    }

    /// True for the models where the context switch is detected too late
    /// in the pipeline to be free (cache-miss detection), costing
    /// [`MachineConfig::switch_cost`] cycles per taken switch.
    pub fn pays_switch_cost(self) -> bool {
        matches!(self, SwitchModel::SwitchOnMiss | SwitchModel::SwitchOnUseMiss)
    }

    /// All models: the paper's Figure 1 order, then the post-1992
    /// additions. Every layer that enumerates models (sweep axes, the
    /// differential grid, CLI parsing, report headers) derives its list
    /// from this table so a new model cannot be silently forgotten.
    pub const ALL: [SwitchModel; 9] = [
        SwitchModel::Ideal,
        SwitchModel::SwitchEveryCycle,
        SwitchModel::SwitchOnLoad,
        SwitchModel::SwitchOnUse,
        SwitchModel::ExplicitSwitch,
        SwitchModel::SwitchOnMiss,
        SwitchModel::SwitchOnUseMiss,
        SwitchModel::ConditionalSwitch,
        SwitchModel::Smt,
    ];

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SwitchModel::Ideal => "ideal",
            SwitchModel::SwitchEveryCycle => "switch-every-cycle",
            SwitchModel::SwitchOnLoad => "switch-on-load",
            SwitchModel::SwitchOnUse => "switch-on-use",
            SwitchModel::ExplicitSwitch => "explicit-switch",
            SwitchModel::SwitchOnMiss => "switch-on-miss",
            SwitchModel::SwitchOnUseMiss => "switch-on-use-miss",
            SwitchModel::ConditionalSwitch => "conditional-switch",
            SwitchModel::Smt => "smt",
        }
    }

    /// Parses a display name back to the model (`"switch-on-load"`, …).
    pub fn from_name(name: &str) -> Option<SwitchModel> {
        SwitchModel::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for SwitchModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default issue width when [`MachineConfig::new`] is handed
/// [`SwitchModel::Smt`] — four lanes, the classic SMT design point.
pub const DEFAULT_SMT_WIDTH: usize = 4;

/// Most hardware contexts (`processors × threads_per_proc`) one machine
/// may have. Every context owns a register file and local memory, and
/// apps and traces are built per context, so an untrusted count is
/// refused here before anything is allocated. The largest in-tree machine
/// is 16 × 32 = 512 contexts (full scale).
pub const MAX_TOTAL_THREADS: usize = 1 << 14;

/// Full machine configuration.
///
/// Defaults follow the paper: 200-cycle round-trip latency, zero-cost
/// switches for the opcode-identified models, a 200-cycle forced-switch
/// interval under `ConditionalSwitch`.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processors.
    pub processors: usize,
    /// Threads per processor (the paper's "multithreading level").
    pub threads_per_proc: usize,
    /// Shared-memory round-trip latency in cycles.
    pub latency: u64,
    /// The context-switch model.
    pub model: SwitchModel,
    /// Cache geometry for the cache-based models (ignored otherwise).
    pub cache: CacheParams,
    /// Wasted pipeline cycles per taken switch for the miss-detected
    /// models (`SwitchOnMiss`, `SwitchOnUseMiss`). The paper says
    /// "several cycles"; default 4.
    pub switch_cost: u64,
    /// Forced-switch interval for `ConditionalSwitch` (paper §6.2 uses 200
    /// cycles). `None` disables the forced switch (the ablation case).
    pub max_run: Option<u64>,
    /// Minimum words of private local memory per thread; the machine
    /// allocates `max(this, program.local_words())`.
    pub local_mem_words: u64,
    /// Table 6 mode: consult a per-thread one-line 32-word cache and skip
    /// a `Switch` whose whole group hit it (estimates inter-block grouping,
    /// paper §5.2). Only meaningful with `ExplicitSwitch`.
    pub interblock_estimate: bool,
    /// Record every shared access into `RunResult::trace` (the paper's
    /// trace-analysis methodology; consumed by `mtsim-trace`).
    pub collect_trace: bool,
    /// Honor `SetPrio` levels when choosing among runnable threads —
    /// the paper's suggested critical-region priority scheduling (§6.2).
    pub priority_scheduling: bool,
    /// Watchdog: abort the run after this many cycles (deadlock guard).
    pub max_cycles: u64,
    /// Fault injection: seeded unreliable-network model (drops/NACKs,
    /// delays, duplicates, latency distributions). The default is inactive
    /// — the paper's reliable constant-latency network.
    pub fault: FaultConfig,
    /// Interconnection-network model (topology, link bandwidth,
    /// combining). The default `constant` topology is the paper's
    /// contention-free pipe: `latency` applies unchanged and no network
    /// state is simulated. Under contention topologies `latency` is
    /// replaced by modeled per-message round trips; the fault layer
    /// composes on top of whichever base latency the network produces.
    pub net: NetworkConfig,
    /// Issue slots per cycle for [`SwitchModel::Smt`] — how many ready
    /// threads may occupy functional-unit lanes simultaneously. Must be
    /// 1 for every other model (they issue from a single context).
    pub issue_width: usize,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            processors: 1,
            threads_per_proc: 1,
            latency: 200,
            model: SwitchModel::SwitchOnLoad,
            cache: CacheParams::default(),
            switch_cost: 4,
            max_run: Some(200),
            local_mem_words: 256,
            interblock_estimate: false,
            collect_trace: false,
            priority_scheduling: false,
            max_cycles: u64::MAX,
            fault: FaultConfig::default(),
            net: NetworkConfig::constant(),
            issue_width: 1,
        }
    }
}

impl MachineConfig {
    /// Convenience constructor: `processors × threads_per_proc` under
    /// `model` with paper defaults for everything else. [`SwitchModel::Smt`]
    /// gets the default 4-wide issue (override with
    /// [`with_issue_width`](Self::with_issue_width)).
    pub fn new(model: SwitchModel, processors: usize, threads_per_proc: usize) -> MachineConfig {
        let issue_width = if model == SwitchModel::Smt { DEFAULT_SMT_WIDTH } else { 1 };
        MachineConfig {
            model,
            processors,
            threads_per_proc,
            issue_width,
            ..MachineConfig::default()
        }
    }

    /// The ideal (zero-latency) machine of the paper's Figure 2.
    pub fn ideal(processors: usize) -> MachineConfig {
        MachineConfig {
            model: SwitchModel::Ideal,
            processors,
            threads_per_proc: 1,
            latency: 0,
            ..MachineConfig::default()
        }
    }

    /// Total thread count.
    pub fn total_threads(&self) -> usize {
        self.processors * self.threads_per_proc
    }

    /// Sets the round-trip latency (builder style).
    pub fn with_latency(mut self, latency: u64) -> MachineConfig {
        self.latency = latency;
        self
    }

    /// Sets the forced-switch interval (builder style).
    pub fn with_max_run(mut self, max_run: Option<u64>) -> MachineConfig {
        self.max_run = max_run;
        self
    }

    /// Enables the §5.2 inter-block grouping estimator (builder style).
    pub fn with_interblock_estimate(mut self, on: bool) -> MachineConfig {
        self.interblock_estimate = on;
        self
    }

    /// Enables critical-region priority scheduling (builder style).
    pub fn with_priority_scheduling(mut self, on: bool) -> MachineConfig {
        self.priority_scheduling = on;
        self
    }

    /// Enables shared-access trace collection (builder style).
    pub fn with_trace(mut self, on: bool) -> MachineConfig {
        self.collect_trace = on;
        self
    }

    /// Sets the fault-injection configuration (builder style).
    pub fn with_faults(mut self, fault: FaultConfig) -> MachineConfig {
        self.fault = fault;
        self
    }

    /// Sets the interconnection-network configuration (builder style).
    pub fn with_net(mut self, net: NetworkConfig) -> MachineConfig {
        self.net = net;
        self
    }

    /// Sets the SMT issue width (builder style).
    pub fn with_issue_width(mut self, width: usize) -> MachineConfig {
        self.issue_width = width;
        self
    }

    /// Checks the sizes an untrusted caller could make huge: the total
    /// hardware contexts ([`MAX_TOTAL_THREADS`]) and the base latency
    /// ([`MAX_LATENCY`]). [`MachineConfig::try_validate`] runs it too; a
    /// caller that builds apps before validating each machine runs it
    /// first, so no allocation is ever sized by an uncapped count.
    pub fn check_caps(&self) -> Result<(), String> {
        if self.processors.checked_mul(self.threads_per_proc).is_none_or(|n| n > MAX_TOTAL_THREADS)
        {
            return Err(format!(
                "{} processors x {} threads exceeds the cap of {MAX_TOTAL_THREADS} hardware contexts",
                self.processors, self.threads_per_proc
            ));
        }
        if self.latency > MAX_LATENCY {
            return Err(format!(
                "latency {} exceeds the cap of {MAX_LATENCY} cycles",
                self.latency
            ));
        }
        Ok(())
    }

    /// Validates the configuration, returning a description of the first
    /// problem found instead of panicking.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.processors == 0 {
            return Err("need at least one processor".into());
        }
        if self.threads_per_proc == 0 {
            return Err("need at least one thread per processor".into());
        }
        self.check_caps()?;
        if self.model.uses_cache() {
            self.cache.validate();
            if self.processors > 128 {
                return Err("cache directory supports at most 128 processors".into());
            }
        }
        if self.interblock_estimate && self.model != SwitchModel::ExplicitSwitch {
            return Err("interblock_estimate only applies to the explicit-switch model".into());
        }
        if self.issue_width == 0 {
            return Err("issue width must be at least 1".into());
        }
        if self.issue_width > 1 && self.model != SwitchModel::Smt {
            return Err("issue width > 1 only applies to the smt model".into());
        }
        self.fault.check()?;
        if self.fault.is_active() && self.model == SwitchModel::Ideal {
            return Err("fault injection is meaningless on the ideal zero-latency machine".into());
        }
        self.net.check()?;
        if self.net.is_active() && self.model == SwitchModel::Ideal {
            return Err(
                "network simulation is meaningless on the ideal zero-latency machine".into()
            );
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero processors/threads, an inter-block estimate request
    /// on a model other than `ExplicitSwitch`, or bad fault rates. Library
    /// users who must not panic call [`try_validate`](Self::try_validate).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsim_mem::Topology;

    #[test]
    fn model_classification() {
        assert!(SwitchModel::ConditionalSwitch.uses_cache());
        assert!(!SwitchModel::ExplicitSwitch.uses_cache());
        assert!(SwitchModel::ExplicitSwitch.uses_explicit_switch());
        assert!(SwitchModel::SwitchOnMiss.pays_switch_cost());
        assert!(!SwitchModel::SwitchOnLoad.pays_switch_cost());
        assert!(!SwitchModel::Smt.uses_cache());
        assert!(!SwitchModel::Smt.uses_explicit_switch());
        assert!(!SwitchModel::Smt.pays_switch_cost());
        assert_eq!(SwitchModel::ALL.len(), 9);
        for m in SwitchModel::ALL {
            assert_eq!(SwitchModel::from_id(m.id()), m);
            assert_eq!(SwitchModel::from_name(m.name()), Some(m));
        }
    }

    #[test]
    fn display_names_unique() {
        let names: std::collections::HashSet<_> =
            SwitchModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), SwitchModel::ALL.len());
    }

    #[test]
    fn default_config_is_paper_config() {
        let c = MachineConfig::default();
        assert_eq!(c.latency, 200);
        assert_eq!(c.max_run, Some(200));
        c.validate();
    }

    #[test]
    fn ideal_config() {
        let c = MachineConfig::ideal(64);
        assert_eq!(c.latency, 0);
        assert_eq!(c.total_threads(), 64);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "interblock_estimate")]
    fn estimate_requires_explicit_switch() {
        let c = MachineConfig {
            interblock_estimate: true,
            ..MachineConfig::new(SwitchModel::SwitchOnLoad, 1, 1)
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let c = MachineConfig { processors: 0, ..MachineConfig::default() };
        c.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let c = MachineConfig { threads_per_proc: 0, ..MachineConfig::default() };
        assert!(c.try_validate().unwrap_err().contains("thread"));

        let fault = FaultConfig { drop_rate: 1.5, ..FaultConfig::default() };
        let c = MachineConfig::default().with_faults(fault);
        assert!(c.try_validate().is_err());
    }

    #[test]
    fn thread_count_and_latency_are_capped() {
        let c = MachineConfig::new(SwitchModel::SwitchOnLoad, 16, MAX_TOTAL_THREADS / 16);
        assert!(c.try_validate().is_ok());
        let c = MachineConfig::new(SwitchModel::SwitchOnLoad, 16, MAX_TOTAL_THREADS / 16 + 1);
        assert!(c.try_validate().unwrap_err().contains("hardware contexts"));
        let c = MachineConfig::new(SwitchModel::SwitchOnLoad, usize::MAX, 2);
        assert!(c.try_validate().unwrap_err().contains("hardware contexts"));

        assert!(MachineConfig::default().with_latency(MAX_LATENCY).try_validate().is_ok());
        let c = MachineConfig::default().with_latency(u64::MAX);
        assert!(c.try_validate().unwrap_err().contains("latency"));
        let dist = mtsim_mem::LatencyDist::Uniform { lo: 1, hi: u64::MAX };
        let c =
            MachineConfig::default().with_faults(FaultConfig { dist, ..FaultConfig::default() });
        assert!(c.try_validate().unwrap_err().contains("cap"));
    }

    #[test]
    fn net_rejected_on_ideal_machine() {
        let net = NetworkConfig::new(Topology::Mesh);
        let c = MachineConfig::ideal(4).with_net(net);
        assert!(c.try_validate().unwrap_err().contains("ideal"));
        let c = MachineConfig::default().with_net(net);
        assert!(c.try_validate().is_ok());
        let c = MachineConfig::default().with_net(net.with_link_bw(0));
        assert!(c.try_validate().unwrap_err().contains("bandwidth"));
    }

    #[test]
    fn issue_width_validation() {
        let c = MachineConfig::new(SwitchModel::Smt, 2, 4);
        assert_eq!(c.issue_width, DEFAULT_SMT_WIDTH);
        c.validate();
        let c = c.with_issue_width(0);
        assert!(c.try_validate().unwrap_err().contains("at least 1"));
        let c = MachineConfig::new(SwitchModel::SwitchOnUse, 2, 4).with_issue_width(2);
        assert!(c.try_validate().unwrap_err().contains("smt"));
        let c = MachineConfig::new(SwitchModel::Smt, 2, 4).with_issue_width(1);
        assert!(c.try_validate().is_ok());
    }

    #[test]
    fn faults_rejected_on_ideal_machine() {
        let fault = FaultConfig { drop_rate: 0.1, ..FaultConfig::default() };
        let c = MachineConfig::ideal(4).with_faults(fault);
        assert!(c.try_validate().unwrap_err().contains("ideal"));
        let c = MachineConfig::default().with_faults(fault);
        assert!(c.try_validate().is_ok());
    }
}
