//! The §7.4 workload driver: prefilled concurrent-set benchmarks with a
//! read/update mix, run on the simulated platform.
//!
//! One call to [`run_set_benchmark`] reproduces one bar of Figs. 14/15/16:
//! it builds a system (Skip It hardware iff the optimization is
//! [`OptKind::SkipIt`]), constructs and prefills the chosen structure,
//! runs one workload thread per core for a cycle budget, and reports
//! throughput.
//!
//! The fill phase dominates the wall-clock of figure grids whose points
//! differ only in the measured mix (Fig. 15's update-ratio axis), so it
//! can also run **once**: [`prefill_snapshot`] captures the filled system
//! as a [`WarmSet`] (a full-system `Snapshot` plus the host-side structure
//! roots), and [`run_set_benchmark_warm`] restores it and runs only the
//! measured phase — bit-identical to the cold path, because restore is.

use crate::alloc::{FieldStride, SimAlloc};
use crate::persist::{OptKind, PHandle, PersistMode};
use crate::{Bst, ConcurrentSet, HarrisList, HashTable, SkipList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipit_core::{
    CoreHandle, EngineKind, EngineStats, LineAddr, Snapshot, System, SystemBuilder, SystemStats,
    Threads,
};
use std::sync::Arc;

/// Simulated heap base for data-structure nodes.
const HEAP_BASE: u64 = 0x1000_0000;
/// Simulated heap size.
const HEAP_SIZE: u64 = 1 << 28;
/// Simulated base of the FliT hash-table counter region.
pub const FLIT_TABLE_BASE: u64 = 0x0800_0000;

/// Which of the four §7.4 structures to benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DsKind {
    /// Harris linked list \[31\].
    List,
    /// Hash table \[23\].
    Hash,
    /// External BST \[53\].
    Bst,
    /// Skiplist \[23\].
    SkipList,
}

impl DsKind {
    /// All four structures, in the paper's Fig. 14 order.
    pub const ALL: [DsKind; 4] = [DsKind::Bst, DsKind::Hash, DsKind::List, DsKind::SkipList];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DsKind::List => "list",
            DsKind::Hash => "hash",
            DsKind::Bst => "bst",
            DsKind::SkipList => "skiplist",
        }
    }
}

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Structure under test.
    pub ds: DsKind,
    /// Persistence discipline.
    pub mode: PersistMode,
    /// Flush-elimination strategy.
    pub opt: OptKind,
    /// Worker threads (= cores). The paper uses 2 (§7.4).
    pub threads: usize,
    /// Keys are drawn uniformly from `1..=key_range`.
    pub key_range: u64,
    /// Number of keys inserted before measurement (typically
    /// `key_range / 2`).
    pub prefill: u64,
    /// Percentage of operations that are updates (half inserts, half
    /// deletes); the rest are lookups.
    pub update_pct: u32,
    /// Measured-phase cycle budget.
    pub budget_cycles: u64,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Hash-table buckets (only for [`DsKind::Hash`]).
    pub hash_buckets: usize,
    /// Simulation engine selector (cycle counts are identical for every
    /// engine). Default [`EngineKind::ComponentWheel`].
    pub engine: EngineKind,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            ds: DsKind::List,
            mode: PersistMode::Automatic,
            opt: OptKind::Plain,
            threads: 2,
            key_range: 1024,
            prefill: 512,
            update_pct: 5,
            budget_cycles: 300_000,
            seed: 42,
            hash_buckets: 512,
            engine: EngineKind::default(),
        }
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Completed set operations across all threads.
    pub ops: u64,
    /// Measured-phase cycles.
    pub cycles: u64,
    /// System counters at the end of the run.
    pub stats: SystemStats,
    /// Simulation-engine counters of the measured phase only (prefill
    /// excluded): cycles jumped and component steps/slots. All zero under
    /// [`EngineKind::Naive`]; use
    /// [`EngineStats::component_skipped_pct`] for the component-weighted
    /// skipped-work share.
    pub engine: EngineStats,
}

impl BenchResult {
    /// Operations per million cycles (proportional to ops/s at a fixed
    /// clock; the paper's Enzian platform runs at 50 MHz, §7.1).
    pub fn throughput(&self) -> f64 {
        self.ops as f64 * 1_000_000.0 / self.cycles.max(1) as f64
    }

    /// Throughput in operations per second at the paper's 50 MHz clock.
    pub fn ops_per_sec_at_50mhz(&self) -> f64 {
        self.ops as f64 * 50_000_000.0 / self.cycles.max(1) as f64
    }
}

/// Functional (zero-simulated-time) word write used for pre-run setup.
fn poke(sys: &mut System, addr: u64, value: u64) {
    let line = LineAddr::containing(addr);
    let mut data = sys.dram().read_direct(line);
    data.set_word(LineAddr::word_index(addr), value);
    sys.dram_mut().write_direct(line, data);
}

enum AnySet {
    List(HarrisList),
    Hash(HashTable),
    Bst(Bst),
    Skip(SkipList),
}

impl ConcurrentSet for AnySet {
    async fn insert(&self, ph: &PHandle<'_>, key: u64) -> bool {
        match self {
            AnySet::List(s) => s.insert(ph, key).await,
            AnySet::Hash(s) => s.insert(ph, key).await,
            AnySet::Bst(s) => s.insert(ph, key).await,
            AnySet::Skip(s) => s.insert(ph, key).await,
        }
    }

    async fn remove(&self, ph: &PHandle<'_>, key: u64) -> bool {
        match self {
            AnySet::List(s) => s.remove(ph, key).await,
            AnySet::Hash(s) => s.remove(ph, key).await,
            AnySet::Bst(s) => s.remove(ph, key).await,
            AnySet::Skip(s) => s.remove(ph, key).await,
        }
    }

    async fn contains(&self, ph: &PHandle<'_>, key: u64) -> bool {
        match self {
            AnySet::List(s) => s.contains(ph, key).await,
            AnySet::Hash(s) => s.contains(ph, key).await,
            AnySet::Bst(s) => s.contains(ph, key).await,
            AnySet::Skip(s) => s.contains(ph, key).await,
        }
    }
}

/// Field stride `cfg`'s optimization needs.
fn stride_of(cfg: &WorkloadCfg) -> FieldStride {
    if matches!(cfg.opt, OptKind::FlitAdjacent) {
        FieldStride::WordPlusCounter
    } else {
        FieldStride::Word
    }
}

/// The system builder for `cfg` (the single source of the platform
/// geometry, so cold builds and warm restores agree on the configuration).
fn builder(cfg: &WorkloadCfg) -> SystemBuilder {
    SystemBuilder::new()
        .cores(cfg.threads)
        .skip_it(cfg.opt.wants_skip_it_hardware())
        .engine(cfg.engine)
}

/// Builds the system + structure for `cfg` (shared by benchmarks and
/// tests). Returns the system, the structure and its allocator.
fn build(cfg: &WorkloadCfg) -> (System, AnySet, Arc<SimAlloc>) {
    build_with(cfg, builder(cfg))
}

/// [`build`] on a system from `platform` — `builder(cfg)` with extra
/// host-side settings (e.g. the lockstep oracle in tests).
fn build_with(cfg: &WorkloadCfg, platform: SystemBuilder) -> (System, AnySet, Arc<SimAlloc>) {
    assert!(
        cfg.opt.applicable_to(cfg.ds),
        "{:?} is not applicable to {:?} (§7.4)",
        cfg.opt,
        cfg.ds
    );
    let mut sys = platform.build();
    let stride = stride_of(cfg);
    let alloc = Arc::new(SimAlloc::new(HEAP_BASE, HEAP_SIZE, stride));
    let ds = {
        let mut w = |a, v| poke(&mut sys, a, v);
        match cfg.ds {
            DsKind::List => AnySet::List(HarrisList::new(Arc::clone(&alloc), &mut w)),
            DsKind::Hash => {
                AnySet::Hash(HashTable::new(cfg.hash_buckets, Arc::clone(&alloc), &mut w))
            }
            DsKind::Bst => AnySet::Bst(Bst::new(Arc::clone(&alloc), &mut w)),
            DsKind::SkipList => AnySet::Skip(SkipList::new(Arc::clone(&alloc), &mut w)),
        }
    };
    (sys, ds, alloc)
}

/// The fill phase: inserts `cfg.prefill` keys on core 0 (setup is not
/// measured). The prefill *is* persistent — under the Manual discipline
/// with the measured elimination strategy — so measurement starts from a
/// fully persisted structure, as the paper's runs do. (An unpersisted
/// prefill would leave every line dirty in the hierarchy and charge the
/// measured phase for cleaning it up.)
fn prefill(sys: &mut System, set: &AnySet, cfg: &WorkloadCfg) {
    let prefill_cfg = *cfg;
    let opt = cfg.opt;
    sys.run(Threads::new(vec![move |h: CoreHandle| async move {
        let ph = PHandle::new(&h, PersistMode::Manual, opt);
        let mut rng = StdRng::seed_from_u64(prefill_cfg.seed);
        let mut inserted = 0;
        while inserted < prefill_cfg.prefill {
            let k = rng.gen_range(1..=prefill_cfg.key_range);
            if set.insert(&ph, k).await {
                inserted += 1;
            }
        }
    }]));
}

/// The measured phase: one worker per core for `cfg.budget_cycles`,
/// reporting the phase's own cycle/engine deltas. Identical whether `sys`
/// just ran the fill phase or was restored from a [`WarmSet`].
fn measure(sys: &mut System, set: &AnySet, cfg: &WorkloadCfg) -> BenchResult {
    let mode = cfg.mode;
    let opt = cfg.opt;
    let engine_before = sys.engine_stats();
    let (cycles, ops): (u64, Vec<u64>) = {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let seed = cfg.seed ^ (0x5851_F42D_4C95_7F2D * (tid as u64 + 1));
                let key_range = cfg.key_range;
                let update_pct = cfg.update_pct as u64;
                move |h: CoreHandle| async move {
                    let ph = PHandle::new(&h, mode, opt);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut ops = 0u64;
                    while !ph.halted() {
                        let k = rng.gen_range(1..=key_range);
                        let dice = rng.gen_range(0..100u64);
                        if dice < update_pct {
                            // Updates split evenly between inserts and
                            // deletes (§7.4).
                            if dice % 2 == 0 {
                                set.insert(&ph, k).await;
                            } else {
                                set.remove(&ph, k).await;
                            }
                        } else {
                            set.contains(&ph, k).await;
                        }
                        ops += 1;
                    }
                    ops
                }
            })
            .collect();
        sys.run(Threads::new(workers).budget(cfg.budget_cycles))
            .into_parts()
    };
    let after = sys.engine_stats();
    BenchResult {
        ops: ops.iter().sum(),
        cycles,
        stats: sys.stats(),
        engine: EngineStats {
            skipped_cycles: after.skipped_cycles - engine_before.skipped_cycles,
            jumps: after.jumps - engine_before.jumps,
            component_steps: after.component_steps - engine_before.component_steps,
            component_slots: after.component_slots - engine_before.component_slots,
            phase: after.phase,
        },
    }
}

/// Runs one §7.4-style benchmark. See the [module docs](self).
pub fn run_set_benchmark(cfg: &WorkloadCfg) -> BenchResult {
    let (mut sys, ds, _alloc) = build(cfg);
    prefill(&mut sys, &ds, cfg);
    measure(&mut sys, &ds, cfg)
}

/// Host-side structure roots of one [`WarmSet`] — everything needed to
/// rebuild the `ConcurrentSet` facade over restored simulated memory.
#[derive(Clone, Debug)]
enum SetRoots {
    List { head: u64 },
    Hash { heads: Vec<u64> },
    Bst { root: u64 },
    Skip { head: u64 },
}

impl SetRoots {
    fn capture(ds: &AnySet) -> SetRoots {
        match ds {
            AnySet::List(s) => SetRoots::List {
                head: s.head_addr(),
            },
            AnySet::Hash(s) => SetRoots::Hash {
                heads: s.bucket_heads(),
            },
            AnySet::Bst(s) => SetRoots::Bst {
                root: s.root_addr(),
            },
            AnySet::Skip(s) => SetRoots::Skip {
                head: s.head_addr(),
            },
        }
    }

    fn rebuild(&self, alloc: &Arc<SimAlloc>) -> AnySet {
        match self {
            SetRoots::List { head } => {
                AnySet::List(HarrisList::with_head(*head, Arc::clone(alloc)))
            }
            SetRoots::Hash { heads } => {
                AnySet::Hash(HashTable::with_heads(heads, Arc::clone(alloc)))
            }
            SetRoots::Bst { root } => AnySet::Bst(Bst::with_root(*root, Arc::clone(alloc))),
            SetRoots::Skip { head } => AnySet::Skip(SkipList::with_head(*head, Arc::clone(alloc))),
        }
    }
}

/// One finished fill phase, captured for reuse: the full-system
/// [`Snapshot`] of the prefilled platform plus the host-side pieces a
/// measured phase needs on top (structure roots, the allocator's bump
/// pointer). Produce one with [`prefill_snapshot`]; consume it any number
/// of times with [`run_set_benchmark_warm`].
#[derive(Clone, Debug)]
pub struct WarmSet {
    key: String,
    snapshot: Snapshot,
    roots: SetRoots,
    alloc_next: u64,
    stride: FieldStride,
}

impl WarmSet {
    /// The fill-phase identity this warm state was captured under
    /// (see [`warm_key`]).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Encoded size of the underlying snapshot in bytes.
    pub fn encoded_bytes(&self) -> u64 {
        self.snapshot.encoded_len() as u64
    }
}

/// The fill-phase identity of `cfg`: every parameter the *prefilled
/// system* depends on, and none of the measured-phase ones. Grid points
/// whose keys agree (e.g. Fig. 15's four update ratios of one
/// structure × method cell) can share one [`WarmSet`].
///
/// `mode` is excluded because the fill always runs under the Manual
/// discipline; `update_pct` and `budget_cycles` shape only the measured
/// phase; `engine` is excluded because snapshots restore under any engine
/// with identical simulated behavior.
pub fn warm_key(cfg: &WorkloadCfg) -> String {
    format!(
        "{}/{:?}/t{}/k{}/f{}/s{}/b{}",
        cfg.ds.name(),
        cfg.opt,
        cfg.threads,
        cfg.key_range,
        cfg.prefill,
        cfg.seed,
        cfg.hash_buckets,
    )
}

/// Builds and prefills the platform for `cfg` once, returning the filled
/// state as a [`WarmSet`]. See the [module docs](self).
pub fn prefill_snapshot(cfg: &WorkloadCfg) -> WarmSet {
    let (mut sys, ds, alloc) = build(cfg);
    prefill(&mut sys, &ds, cfg);
    let snapshot = sys
        .snapshot()
        .expect("fill phase ends with idle frontends, so the system is snapshottable");
    WarmSet {
        key: warm_key(cfg),
        snapshot,
        roots: SetRoots::capture(&ds),
        alloc_next: alloc.next_addr(),
        stride: stride_of(cfg),
    }
}

/// Runs the measured phase of one §7.4-style benchmark on a restored
/// [`WarmSet`] instead of a freshly simulated fill — bit-identical to
/// [`run_set_benchmark`] of the same `cfg`, at a fraction of the
/// wall-clock when the warm state is shared across points.
///
/// # Panics
///
/// Panics when `warm` was captured under a different fill identity than
/// `cfg` (compare [`warm_key`]s), or when the snapshot does not restore
/// under `cfg`'s platform configuration.
pub fn run_set_benchmark_warm(cfg: &WorkloadCfg, warm: &WarmSet) -> BenchResult {
    let expected = warm_key(cfg);
    assert!(
        warm.key == expected,
        "warm state key mismatch: captured \"{}\", requested \"{expected}\"",
        warm.key
    );
    let mut sys = System::restore(&warm.snapshot, builder(cfg).config())
        .expect("warm snapshot restores under its own fill configuration");
    let alloc = Arc::new(SimAlloc::resume(
        HEAP_BASE,
        HEAP_SIZE,
        warm.stride,
        warm.alloc_next,
    ));
    let ds = warm.roots.rebuild(&alloc);
    measure(&mut sys, &ds, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_list_benchmark_runs() {
        let cfg = WorkloadCfg {
            ds: DsKind::List,
            key_range: 64,
            prefill: 16,
            budget_cycles: 40_000,
            ..WorkloadCfg::default()
        };
        let r = run_set_benchmark(&cfg);
        assert!(r.ops > 0, "no operations completed");
        assert!(r.cycles >= 40_000);
        assert!(r.throughput() > 0.0);
    }

    /// The warm-start contract: restoring a [`WarmSet`] and running only
    /// the measured phase is bit-identical to the cold path — same ops,
    /// same cycles, same full stats, same measured-phase engine deltas —
    /// for every structure, across measured mixes sharing one fill.
    #[test]
    fn warm_benchmark_matches_cold_exactly() {
        for ds in DsKind::ALL {
            let base = WorkloadCfg {
                ds,
                mode: PersistMode::NvTraverse,
                opt: OptKind::SkipIt,
                key_range: 64,
                prefill: 16,
                budget_cycles: 15_000,
                hash_buckets: 32,
                ..WorkloadCfg::default()
            };
            let warm = prefill_snapshot(&base);
            assert!(warm.encoded_bytes() > 0);
            for update_pct in [0u32, 20] {
                let cfg = WorkloadCfg { update_pct, ..base };
                assert_eq!(warm.key(), warm_key(&cfg), "fill identity is mix-free");
                let cold = run_set_benchmark(&cfg);
                let w = run_set_benchmark_warm(&cfg, &warm);
                assert_eq!(cold.ops, w.ops, "{ds:?}/{update_pct}%");
                assert_eq!(cold.cycles, w.cycles, "{ds:?}/{update_pct}%");
                assert_eq!(cold.stats, w.stats, "{ds:?}/{update_pct}%");
                // The measured phase starts from an identical simulated
                // state with a freshly planned wheel in both paths, so
                // even the engine deltas agree.
                assert_eq!(cold.engine, w.engine, "{ds:?}/{update_pct}%");
            }
        }
    }

    /// A warm set restores under any engine: the fill identity excludes
    /// the engine kind, and simulated behavior is engine-invariant.
    #[test]
    fn warm_set_restores_under_any_engine() {
        let base = WorkloadCfg {
            ds: DsKind::List,
            key_range: 64,
            prefill: 16,
            budget_cycles: 15_000,
            ..WorkloadCfg::default()
        };
        let warm = prefill_snapshot(&base);
        let cold = run_set_benchmark(&base);
        let naive = run_set_benchmark_warm(
            &WorkloadCfg {
                engine: EngineKind::Naive,
                ..base
            },
            &warm,
        );
        assert_eq!(cold.ops, naive.ops);
        assert_eq!(cold.cycles, naive.cycles);
        assert_eq!(cold.stats, naive.stats);
    }

    /// The lockstep oracle over a reduced `pds_hash_2t` benchmark shape
    /// (hash table, NvTraverse, Skip It, two threads): the default engine,
    /// re-checked every cycle it skips during fill and measured phase,
    /// must skip no due slot and match the naive engine exactly.
    #[test]
    fn hash_skipit_phase_passes_the_lockstep_oracle() {
        let cfg = WorkloadCfg {
            ds: DsKind::Hash,
            mode: PersistMode::NvTraverse,
            opt: OptKind::SkipIt,
            threads: 2,
            key_range: 128,
            prefill: 48,
            update_pct: 20,
            budget_cycles: 10_000,
            seed: 3,
            hash_buckets: 32,
            engine: EngineKind::default(),
        };
        let (mut sys, ds, _alloc) = build_with(&cfg, builder(&cfg).lockstep_oracle(true));
        prefill(&mut sys, &ds, &cfg);
        let checked = measure(&mut sys, &ds, &cfg);
        let naive = run_set_benchmark(&WorkloadCfg {
            engine: EngineKind::Naive,
            ..cfg
        });
        assert!(checked.ops > 0, "no set ops completed");
        assert_eq!(checked.ops, naive.ops);
        assert_eq!(checked.cycles, naive.cycles);
        assert_eq!(checked.stats, naive.stats);
    }

    #[test]
    #[should_panic(expected = "warm state key mismatch")]
    fn warm_key_mismatch_rejected() {
        let base = WorkloadCfg {
            key_range: 64,
            prefill: 8,
            ..WorkloadCfg::default()
        };
        let warm = prefill_snapshot(&base);
        run_set_benchmark_warm(
            &WorkloadCfg {
                seed: base.seed + 1,
                ..base
            },
            &warm,
        );
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn lap_on_bst_rejected() {
        let cfg = WorkloadCfg {
            ds: DsKind::Bst,
            opt: OptKind::LinkAndPersist,
            ..WorkloadCfg::default()
        };
        run_set_benchmark(&cfg);
    }
}
