//! Engine-invariance properties of the service traffic frontend
//! (`skipit-service`, DESIGN.md §13).
//!
//! The load-bearing invariant: a [`ServiceWorkload`] is a pure function of
//! its configuration. For any key distribution, arrival process, operation
//! mix, tenant split and stress pattern — perturbed or not — every engine
//! at every host thread count must produce the same request digest, the
//! same cycle count, the same system statistics and the same final
//! architectural state.

use proptest::prelude::*;
use skipit::core::PerturbConfig;
use skipit::prelude::*;
use skipit::service::{build_lanes, ReqKind, CACHE_BASE};
use skipit::OptKind;

/// Thread counts follow the ISSUE spec: the three serial engines plus the
/// parallel wheel at 1, 2 and 8 host threads.
const ENGINES: [(EngineKind, usize); 6] = [
    (EngineKind::Naive, 0),
    (EngineKind::GlobalGate, 0),
    (EngineKind::ComponentWheel, 0),
    (EngineKind::ParallelWheel, 1),
    (EngineKind::ParallelWheel, 2),
    (EngineKind::ParallelWheel, 8),
];

fn arb_dist() -> impl Strategy<Value = KeyDist> {
    prop_oneof![
        Just(KeyDist::Uniform),
        (1u32..150).prop_map(|s| KeyDist::Zipfian {
            s: s as f64 / 100.0
        }),
        (1u64..8, 50u32..95).prop_map(|(hot, hot_pct)| KeyDist::HotSet { hot, hot_pct }),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = Arrivals> {
    prop_oneof![
        (20u64..200).prop_map(|gap| Arrivals::Fixed { gap }),
        (20u64..200).prop_map(|mean_gap| Arrivals::Poisson { mean_gap }),
        (20u64..120, 2u32..8, 200u64..800).prop_map(|(mean_gap, burst, idle)| {
            Arrivals::Bursty {
                mean_gap,
                burst,
                idle,
            }
        }),
    ]
}

fn arb_mix() -> impl Strategy<Value = OpMix> {
    // read + update + scan must sum to 100.
    (0u32..=30, 0u32..=10, 2u32..6).prop_map(|(update_pct, scan_pct, scan_len)| OpMix {
        read_pct: 100 - update_pct - scan_pct,
        update_pct,
        scan_pct,
        scan_len,
    })
}

fn arb_stress() -> impl Strategy<Value = Stress> {
    prop_oneof![
        Just(Stress::None),
        (10u32..40, 2u32..10).prop_map(|(every, herd)| Stress::Stampede { every, herd }),
        (1_000u64..5_000, 1u32..6).prop_map(|(every_cycles, lines)| Stress::ExpirationStorm {
            every_cycles,
            lines,
        }),
    ]
}

fn arb_cfg() -> impl Strategy<Value = ServiceCfg> {
    (
        (1usize..=3, arb_dist(), arb_arrivals(), 0u64..1_000),
        arb_mix(),
        arb_stress(),
        prop_oneof![Just(vec![1u32]), Just(vec![3, 1]), Just(vec![1, 1, 2])],
    )
        .prop_map(
            |((cores, dist, arrivals, seed), mix, stress, tenants)| ServiceCfg {
                cores,
                requests_per_core: 80,
                key_range: 96,
                prefill: 24,
                dist,
                arrivals,
                mix,
                tenants,
                stress,
                hash_buckets: 16,
                seed,
                ..ServiceCfg::default()
            },
        )
}

/// Everything an engine could plausibly get wrong: the latency digest, the
/// elapsed cycles, the hardware counters and the final architectural state.
fn fingerprint(
    cfg: &ServiceCfg,
    engine: EngineKind,
    threads: usize,
    perturb: PerturbConfig,
) -> (u64, u64, u64, SystemStats, u64) {
    let mut sys = cfg
        .builder()
        .engine(engine)
        .engine_threads(threads.max(1))
        .perturb(perturb)
        .build();
    let report = sys.run(ServiceWorkload::new(cfg.clone()));
    let out = report.output;
    (
        out.digest,
        out.requests,
        report.cycles,
        sys.stats(),
        sys.state_digest(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Same configuration, same seed → bit-identical service report on
    /// every engine at every thread count, with and without adversarial
    /// schedule perturbation.
    #[test]
    fn service_workload_is_engine_and_thread_invariant(
        cfg in arb_cfg(),
        perturb_seed in 0u64..3,
    ) {
        let perturb = if perturb_seed == 0 {
            PerturbConfig::default()
        } else {
            PerturbConfig::exploring(perturb_seed)
        };
        let (e0, t0) = ENGINES[0];
        let reference = fingerprint(&cfg, e0, t0, perturb);
        for (engine, threads) in &ENGINES[1..] {
            let got = fingerprint(&cfg, *engine, *threads, perturb);
            prop_assert_eq!(
                &got, &reference,
                "service run diverged under {:?}/{}t", engine, threads
            );
        }
    }

    /// The request stream itself (pre-hardware) is a pure function of the
    /// configuration: regenerating lanes yields the same arrivals, and
    /// changing the seed changes them.
    #[test]
    fn lane_generation_is_deterministic(cfg in arb_cfg()) {
        let lanes = |seed| build_lanes(
            cfg.cores,
            cfg.requests_per_core,
            cfg.key_range,
            cfg.dist,
            cfg.arrivals,
            cfg.mix,
            &cfg.tenants,
            cfg.stress,
            seed,
        );
        let a = lanes(cfg.seed);
        prop_assert_eq!(&a, &lanes(cfg.seed));
        prop_assert_ne!(&a, &lanes(cfg.seed ^ 0xDEAD_BEEF));
        for lane in &a {
            for req in lane {
                prop_assert!(req.key >= 1 && req.key <= cfg.key_range);
            }
        }
    }
}

/// Expiration storms land on the hottest cache lines: every storm target
/// must sit inside the service cache region.
#[test]
fn storm_targets_stay_in_cache_region() {
    let cfg = ServiceCfg {
        requests_per_core: 60,
        stress: Stress::ExpirationStorm {
            every_cycles: 1_000,
            lines: 4,
        },
        ..ServiceCfg::default()
    };
    let lanes = build_lanes(
        cfg.cores,
        cfg.requests_per_core,
        cfg.key_range,
        cfg.dist,
        cfg.arrivals,
        cfg.mix,
        &cfg.tenants,
        cfg.stress,
        cfg.seed,
    );
    let mut storms = 0;
    for lane in &lanes {
        for req in lane {
            if matches!(req.kind, ReqKind::Expire) {
                storms += 1;
                let slot = CACHE_BASE + req.key * 64;
                assert!(slot >= CACHE_BASE && slot < CACHE_BASE + (cfg.key_range + 1) * 64);
            }
        }
    }
    assert!(storms > 0, "storm pattern generated no expirations");
}

/// The lockstep oracle over a reduced `svc_storm_2t` benchmark shape (two
/// Poisson lanes, Zipfian keys, periodic expiration storms, Skip It): the
/// component wheel, re-checked every cycle it skips, must skip no due slot
/// and produce the naive engine's digest, cycles and statistics.
#[test]
fn expiration_storm_service_passes_the_lockstep_oracle() {
    let cfg = ServiceCfg {
        cores: 2,
        requests_per_core: 24,
        key_range: 128,
        prefill: 48,
        dist: KeyDist::from_skew(0.99),
        arrivals: Arrivals::Poisson { mean_gap: 560 },
        stress: Stress::ExpirationStorm {
            every_cycles: 2_000,
            lines: 16,
        },
        opt: OptKind::SkipIt,
        seed: 7,
        hash_buckets: 32,
        ..ServiceCfg::default()
    };
    let run = |builder: SystemBuilder| {
        let mut sys = builder.build();
        let out = sys.run(ServiceWorkload::new(cfg.clone())).output;
        (
            out.digest,
            out.requests,
            out.fill_cycles,
            out.cycles,
            out.stats,
        )
    };
    let checked = run(cfg.builder().lockstep_oracle(true));
    let naive = run(cfg.builder().engine(EngineKind::Naive));
    assert_eq!(checked, naive);
    assert!(
        checked.4.l2.root_release_dram_skipped > 0,
        "storm flushes exercised no L2 skip"
    );
}
