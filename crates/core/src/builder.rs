//! Fluent construction of simulated systems.

use skipit_boom::{EngineKind, System, SystemConfig};
use skipit_dcache::L1Config;
use skipit_llc::L2Config;
use skipit_mem::DramConfig;
use skipit_tilelink::PerturbConfig;

/// A reason a [`SystemConfig`] cannot be built into a [`System`].
///
/// Returned by [`SystemBuilder::try_build`]; [`SystemBuilder::build`]
/// panics with the same rendering. Every variant corresponds to an
/// invariant the simulation models rely on (index math on power-of-two set
/// counts, nonzero resource pools, a fast engine for the lockstep oracle
/// to check).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores` is outside the supported `1..=32` range.
    Cores {
        /// The rejected core count.
        got: usize,
    },
    /// A structure whose indexing requires a power-of-two size has some
    /// other size.
    NonPowerOfTwo {
        /// Which field (e.g. `"l1.sets"`).
        what: &'static str,
        /// The rejected size.
        got: usize,
    },
    /// A resource pool the models divide work across is empty.
    Zero {
        /// Which field (e.g. `"l1.fshrs"`).
        what: &'static str,
    },
    /// A request file is larger than the live-slot mask that tracks it
    /// ([`skipit_tilelink::SlotMask::MAX_SLOTS`] slots).
    TooMany {
        /// Which field (e.g. `"l2.mshrs"`).
        what: &'static str,
        /// The largest supported size.
        max: usize,
        /// The rejected size.
        got: usize,
    },
    /// `lockstep_oracle` was requested together with [`EngineKind::Naive`]:
    /// the oracle re-executes fast-forward jumps with the naive engine, so
    /// there is nothing for it to check — the combination is always a
    /// configuration mistake.
    OracleNeedsFastEngine,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Cores { got } => {
                write!(f, "cores must be in 1..=32, got {got}")
            }
            ConfigError::NonPowerOfTwo { what, got } => {
                write!(f, "{what} must be a power of two, got {got}")
            }
            ConfigError::Zero { what } => write!(f, "{what} must be nonzero"),
            ConfigError::TooMany { what, max, got } => {
                write!(f, "{what} must be at most {max}, got {got}")
            }
            ConfigError::OracleNeedsFastEngine => write!(
                f,
                "lockstep_oracle requires a fast engine (GlobalGate or \
                 ComponentWheel) to check; it does nothing under Naive"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates every invariant [`System::new`] (and the sub-component
/// constructors) would otherwise assert, as one typed error.
fn validate(cfg: &SystemConfig) -> Result<(), ConfigError> {
    if !(1..=32).contains(&cfg.cores) {
        return Err(ConfigError::Cores { got: cfg.cores });
    }
    for (what, got) in [("l1.sets", cfg.l1.sets), ("l2.sets", cfg.l2.sets)] {
        if !got.is_power_of_two() {
            return Err(ConfigError::NonPowerOfTwo { what, got });
        }
    }
    for (what, got) in [
        ("l1.ways", cfg.l1.ways),
        ("l1.mshrs", cfg.l1.mshrs),
        ("l1.rpq_depth", cfg.l1.rpq_depth),
        ("l1.flush_queue_depth", cfg.l1.flush_queue_depth),
        ("l1.fshrs", cfg.l1.fshrs),
        ("l2.ways", cfg.l2.ways),
        ("l2.mshrs", cfg.l2.mshrs),
        ("l2.list_buffer_depth", cfg.l2.list_buffer_depth),
        ("lsu.ldq_depth", cfg.lsu.ldq_depth),
        ("lsu.stq_depth", cfg.lsu.stq_depth),
        ("lsu.fire_width", cfg.lsu.fire_width),
        ("issue_width", cfg.issue_width),
        ("link_capacity", cfg.link_capacity),
    ] {
        if got == 0 {
            return Err(ConfigError::Zero { what });
        }
    }
    let max = skipit_tilelink::SlotMask::MAX_SLOTS;
    for (what, got) in [
        ("l1.mshrs", cfg.l1.mshrs),
        ("l1.fshrs", cfg.l1.fshrs),
        ("l2.mshrs", cfg.l2.mshrs),
    ] {
        if got > max {
            return Err(ConfigError::TooMany { what, max, got });
        }
    }
    if cfg.lockstep_oracle && cfg.engine == EngineKind::Naive {
        return Err(ConfigError::OracleNeedsFastEngine);
    }
    Ok(())
}

/// Builder for a [`System`].
///
/// Defaults reproduce the paper's evaluation platform (§7.1) with Skip It
/// disabled (the baseline flush-unit design).
///
/// # Example
///
/// ```
/// use skipit_core::SystemBuilder;
///
/// let sys = SystemBuilder::new()
///     .cores(4)
///     .skip_it(true)
///     .flush_queue_depth(32)
///     .fshrs(8)
///     .build();
/// assert_eq!(sys.config().cores, 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SystemBuilder {
    cfg: SystemConfig,
}

impl SystemBuilder {
    /// Starts from the paper's platform defaults.
    pub fn new() -> Self {
        SystemBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// Number of cores (1–32). Default 2.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.cores = n;
        self
    }

    /// Enables or disables the Skip It optimization (§6). Default off.
    pub fn skip_it(mut self, on: bool) -> Self {
        self.cfg.l1.skip_it = on;
        self
    }

    /// Full L1 configuration override.
    pub fn l1(mut self, l1: L1Config) -> Self {
        self.cfg.l1 = l1;
        self
    }

    /// Full L2 configuration override.
    pub fn l2(mut self, l2: L2Config) -> Self {
        self.cfg.l2 = l2;
        self
    }

    /// DRAM timing override.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// Flush-queue depth (§5.2). Default 16.
    pub fn flush_queue_depth(mut self, depth: usize) -> Self {
        self.cfg.l1.flush_queue_depth = depth;
        self
    }

    /// Enables cross-kind CBO.X coalescing — the future-work optimization
    /// named at the end of §5.3 (a queued clean is upgraded by an arriving
    /// flush; a queued flush absorbs an arriving clean). Default off, as in
    /// the paper's hardware.
    pub fn cross_kind_coalescing(mut self, on: bool) -> Self {
        self.cfg.l1.cross_kind_coalescing = on;
        self
    }

    /// Number of FSHRs (§5.2). Default 8, as in the paper.
    pub fn fshrs(mut self, n: usize) -> Self {
        self.cfg.l1.fshrs = n;
        self
    }

    /// TileLink hop latency in cycles. Default 2.
    pub fn link_latency(mut self, cycles: u64) -> Self {
        self.cfg.link_latency = cycles;
        self
    }

    /// Selects the simulation engine explicitly (naive / global-gate /
    /// component-wheel / parallel-wheel). All engines produce bit-identical
    /// cycles, stats, durable images and trace-event streams. Default
    /// [`EngineKind::ComponentWheel`].
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.cfg.engine = kind;
        self
    }

    /// Host threads for [`EngineKind::ParallelWheel`]'s intra-cycle core
    /// phase. `0` (the default) resolves at first use from
    /// `SKIPIT_ENGINE_THREADS` — which panics on unparseable or zero
    /// values, like `SKIPIT_SWEEP_THREADS` — falling back to the host's
    /// available parallelism. The resolved count is clamped to the core
    /// count. Other engines ignore this knob.
    pub fn engine_threads(mut self, threads: usize) -> Self {
        self.cfg.engine_threads = threads;
        self
    }

    /// Installs a seeded adversarial perturbation: bounded arbitration
    /// jitter on every TileLink channel, flush-queue→FSHR dispatch hold-off,
    /// and L2 MSHR scan rotation, all derived from `cfg.seed` by SplitMix64.
    /// The default [`PerturbConfig`] is inert — the built system is then
    /// bit-identical to one that never heard of perturbation.
    pub fn perturb(mut self, cfg: PerturbConfig) -> Self {
        self.cfg.perturb = cfg;
        self
    }

    /// Runs the lockstep oracle: every fast-forward jump is re-executed
    /// cycle by cycle and the engine panics if any state changes inside a
    /// window it claimed idle. Debug aid; costs the naive engine's speed.
    /// Default off.
    pub fn lockstep_oracle(mut self, on: bool) -> Self {
        self.cfg.lockstep_oracle = on;
        self
    }

    /// The assembled configuration (before building).
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Builds the system, or explains why the configuration is invalid.
    ///
    /// The fallible twin of [`SystemBuilder::build`]: every invariant the
    /// component constructors would assert (power-of-two set counts,
    /// nonzero resource pools, the supported core range, a fast engine
    /// under the lockstep oracle) is checked up front and reported as a
    /// typed [`ConfigError`] instead of a panic.
    ///
    /// # Example
    ///
    /// ```
    /// use skipit_core::{ConfigError, SystemBuilder};
    ///
    /// let err = SystemBuilder::new().cores(0).try_build().unwrap_err();
    /// assert_eq!(err, ConfigError::Cores { got: 0 });
    /// assert!(SystemBuilder::new().cores(4).try_build().is_ok());
    /// ```
    pub fn try_build(self) -> Result<System, ConfigError> {
        validate(&self.cfg)?;
        Ok(System::new(self.cfg))
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the assembled configuration is invalid (zero-sized
    /// structures, non-power-of-two set counts, more than 32 cores, the
    /// lockstep oracle under the naive engine) — the panicking rendering
    /// of exactly the checks [`SystemBuilder::try_build`] reports as
    /// [`ConfigError`]s.
    pub fn build(self) -> System {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_overrides() {
        let b = SystemBuilder::new()
            .cores(8)
            .skip_it(true)
            .flush_queue_depth(4)
            .fshrs(2)
            .link_latency(1);
        assert_eq!(b.config().cores, 8);
        assert!(b.config().l1.skip_it);
        assert_eq!(b.config().l1.flush_queue_depth, 4);
        assert_eq!(b.config().l1.fshrs, 2);
        assert_eq!(b.config().link_latency, 1);
    }

    #[test]
    fn engine_threads_knob_applies() {
        let b = SystemBuilder::new()
            .engine(EngineKind::ParallelWheel)
            .engine_threads(4);
        assert_eq!(b.config().engine, EngineKind::ParallelWheel);
        assert_eq!(b.config().engine_threads, 4);
        assert_eq!(
            SystemBuilder::new().config().engine_threads,
            0,
            "default must be auto-resolve"
        );
        b.build();
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(
            SystemBuilder::default().config().cores,
            SystemBuilder::new().config().cores
        );
    }

    #[test]
    #[should_panic(expected = "cores must be in 1..=32")]
    fn zero_cores_rejected_at_build() {
        SystemBuilder::new().cores(0).build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        assert_eq!(
            SystemBuilder::new().cores(33).try_build().unwrap_err(),
            ConfigError::Cores { got: 33 }
        );
        let l1 = L1Config {
            sets: 48,
            ..L1Config::default()
        };
        assert_eq!(
            SystemBuilder::new().l1(l1).try_build().unwrap_err(),
            ConfigError::NonPowerOfTwo {
                what: "l1.sets",
                got: 48
            }
        );
        let l1 = L1Config {
            fshrs: 0,
            ..L1Config::default()
        };
        assert_eq!(
            SystemBuilder::new().l1(l1).try_build().unwrap_err(),
            ConfigError::Zero { what: "l1.fshrs" }
        );
        let l2 = L2Config {
            mshrs: 65,
            ..L2Config::default()
        };
        assert_eq!(
            SystemBuilder::new().l2(l2).try_build().unwrap_err(),
            ConfigError::TooMany {
                what: "l2.mshrs",
                max: 64,
                got: 65
            }
        );
        assert_eq!(
            SystemBuilder::new()
                .engine(EngineKind::Naive)
                .lockstep_oracle(true)
                .try_build()
                .unwrap_err(),
            ConfigError::OracleNeedsFastEngine
        );
        // The same combination under a fast engine is the supported debug
        // mode.
        assert!(SystemBuilder::new()
            .engine(EngineKind::ComponentWheel)
            .lockstep_oracle(true)
            .try_build()
            .is_ok());
    }

    #[test]
    fn config_error_renders_the_reason() {
        let msg = ConfigError::NonPowerOfTwo {
            what: "l2.sets",
            got: 100,
        }
        .to_string();
        assert!(msg.contains("l2.sets") && msg.contains("100"), "{msg}");
    }
}
