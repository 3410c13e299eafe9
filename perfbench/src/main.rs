//! End-to-end and per-layer benchmark of the Skip It simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload: measured blocks for `--seconds` (at least
//! [`MIN_BLOCKS`]) with a set-up sample before the first block and every
//! [`SETUP_EVERY`]th one, then output checks outside every timed region.
//! Each block and set-up sample is paired with a reference sample taken
//! right before it, and the end-to-end host metrics are on that reference's
//! scale (see `reference.rs`). It prints each metric by name with its
//! unit, and as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! alternates untraced and traced blocks, records a span around every call
//! into a layer, and writes the spans and counters under `--out`.
//!
//! `run.py` next to this package builds it, pins it to one CPU under
//! `SCHED_BATCH` and adds the host manifest; README.md describes the
//! workloads and metrics.

mod probe;
mod reference;

use probe::Tracer;
use skipit_bench::micro::{region_lines, writeback_region};
use skipit_core::{
    EngineKind, EngineStats, L1Stats, MetricsSnapshot, Op, Programs, System, SystemBuilder,
    SystemStats, TraceConfig,
};
use skipit_pds::{
    prefill_snapshot, run_set_benchmark_warm, BenchResult, DsKind, OptKind, PersistMode, WarmSet,
    WorkloadCfg,
};
use skipit_service::{
    build_lanes, splitmix64, Arrivals, KeyDist, ServiceCfg, ServiceReport, ServiceWorkload, Stress,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Measured blocks a run makes whatever `--seconds` says: enough for the
/// fixed-length simulated metrics, and for three traced and three untraced
/// blocks in a traced run.
const MIN_BLOCKS: usize = 6;
/// Blocks between set-up samples; `setup_s` is their median. Samples
/// spread over the run, so a few seconds of slow host do not move it more
/// than they move the block rates.
const SETUP_EVERY: usize = 4;
/// Per-core op-latency records kept while tracing (the histograms count
/// every op regardless).
const LATENCY_RECORDS: usize = 64;

const CBO_CORES: u64 = 8;
/// 8× the 512 KiB L2.
const CBO_BYTES: u64 = 4 << 20;
/// Simulated metrics of `cbo_flush_8c` cover this many measured rounds.
const CBO_SIM_ROUNDS: usize = 4;

/// Measured-phase budget of one `pds_hash_2t` block.
const PDS_BUDGET: u64 = 250_000;
/// Budget of the Naive-engine replica checked against the default engine.
const PDS_REPLICA_BUDGET: u64 = 100_000;

/// Base requests per lane of the `svc_storm_2t` run the simulated metrics
/// come from: with about 23 k requests in all, more than ten lie beyond
/// the p999.
const SVC_REQUESTS: usize = 8_000;
/// Base requests per lane of one timed `svc_storm_2t` block: long enough
/// that the fill each block repeats is about a seventh of its cycles.
const SVC_BLOCK_REQUESTS: usize = 4_000;
/// Requests per lane of the Naive-engine replica.
const SVC_REPLICA_REQUESTS: usize = 1_000;

const WORKLOADS: [&str; 3] = ["cbo_flush_8c", "pds_hash_2t", "svc_storm_2t"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => args.out = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The host time of one timed call, with the reference sample taken
/// right before it.
#[derive(Clone, Copy)]
struct Timing {
    secs: f64,
    /// Length of the [`reference::sample`] taken just before the call.
    ref_secs: f64,
    /// Process (user, kernel) CPU ticks spent inside the call.
    cpu: Option<(u64, u64)>,
}

impl Timing {
    /// The call's time on the reference scale: what it would take on a
    /// host where one reference sample takes [`reference::NOMINAL_S`].
    fn normalized(&self) -> f64 {
        self.secs * reference::NOMINAL_S / self.ref_secs
    }
}

/// One measured block: a call (or pair of calls) into the simulator.
struct Block {
    time: Timing,
    ops: u64,
    cycles: u64,
    traced: bool,
}

/// State shared by the three workloads: timing, checks and metrics.
struct Run {
    trace: bool,
    seconds: f64,
    deadline: Option<Instant>,
    tracer: Tracer,
    blocks: Vec<Block>,
    setup: Vec<Timing>,
    build: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    sim_cycles: f64,
    sim_ops_per_mcycle: f64,
    /// Per-layer metrics the workload measured itself.
    layer: Vec<Metric>,
    /// Metrics defined on this workload only; printed, not on the result line.
    extra: Vec<Metric>,
    /// Counters one measured block moved, written beside the spans.
    counters: Option<Counters>,
    /// What `MetricsSnapshot::capture` saw one traced block move: set only
    /// where the benchmark holds the `System` and so can turn tracing on.
    snapshot: Option<MetricsSnapshot>,
}

impl Run {
    fn new(args: &Args) -> Self {
        Run {
            trace: args.trace,
            seconds: args.seconds,
            deadline: None,
            tracer: Tracer::new(),
            blocks: Vec::new(),
            setup: Vec::new(),
            build: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sim_cycles: 0.0,
            sim_ops_per_mcycle: 0.0,
            layer: Vec::new(),
            extra: Vec::new(),
            counters: None,
            snapshot: None,
        }
    }

    /// Whether to run another measured block; starts the clock on first use.
    fn more(&mut self) -> bool {
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + Duration::from_secs_f64(self.seconds));
        self.blocks.len() < MIN_BLOCKS || Instant::now() < deadline
    }

    /// Whether to take another set-up sample before the next block.
    fn setup_due(&self) -> bool {
        !self.blocks.is_empty() && self.blocks.len().is_multiple_of(SETUP_EVERY)
    }

    /// Whether the next block is traced: every other block of a traced run.
    fn next_traced(&mut self) -> bool {
        let traced = self.trace && self.blocks.len() % 2 == 1;
        self.tracer.record(traced);
        traced
    }

    /// Runs one reference sample (span `perfbench.reference`) and returns
    /// its length in seconds.
    fn reference(&mut self) -> f64 {
        self.tracer.time("perfbench.reference", reference::sample).1
    }

    /// Times `f` as span `name`, after a reference sample and with the
    /// process CPU ticks it used.
    fn measure<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Timing) {
        let ref_secs = self.reference();
        let before = probe::cpu_ticks();
        let (out, secs) = self.tracer.time(name, f);
        let cpu = before
            .zip(probe::cpu_ticks())
            .map(|((u0, s0), (u1, s1))| (u1 - u0, s1 - s0));
        (
            out,
            Timing {
                secs,
                ref_secs,
                cpu,
            },
        )
    }

    /// Records one set-up sample of `secs`, taken after a reference sample
    /// of `ref_secs`.
    fn setup_done(&mut self, secs: f64, ref_secs: f64) {
        self.setup.push(Timing {
            secs,
            ref_secs,
            cpu: None,
        });
    }

    /// Times `f(sys)` as span `boom.run`. A traced block also turns on
    /// op-latency tracing and keeps the counters it moved, its link
    /// counters and its latency percentiles (those of the first traced
    /// block).
    fn run_system<T>(
        &mut self,
        sys: &mut System,
        traced: bool,
        f: impl FnOnce(&mut System) -> T,
    ) -> (T, Timing) {
        if !traced {
            return self.measure("boom.run", || f(sys));
        }
        sys.set_trace(TraceConfig::new().latency(LATENCY_RECORDS));
        let capture = |s: &System| MetricsSnapshot::capture(s);
        let before = self.tracer.time("core.metrics_capture", || capture(sys)).0;
        let counters = Counters::of(&sys.stats(), &sys.engine_stats());
        let out = self.measure("boom.run", || f(sys));
        let counters = Counters::of(&sys.stats(), &sys.engine_stats()).since(counters);
        let after = self.tracer.time("core.metrics_capture", || capture(sys)).0;
        sys.set_trace(TraceConfig::off());
        if self.snapshot.is_none() {
            self.counters = Some(counters);
            self.snapshot = Some(after.diff(&before));
            latency_metrics(&mut self.extra, &after);
        }
        out
    }

    /// Counts `checked` output checks, `bad` of them failed.
    fn checks(&mut self, checked: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += checked;
        self.failed += bad;
        if bad > 0 && self.failures.len() < 16 {
            self.failures.push(what());
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks(1, u64::from(!ok), what);
    }

    fn blocks(&self, traced: bool) -> impl Iterator<Item = &Block> {
        self.blocks.iter().filter(move |b| b.traced == traced)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The seeded value core stores into line `addr` in round `round`.
fn cbo_value(seed: u64, round: u64, addr: u64) -> u64 {
    splitmix64(splitmix64(seed ^ round.rotate_left(32)) ^ addr)
}

/// The store programs of one `cbo_flush_8c` round: every core stores a
/// fresh seeded value into each line of its share, sequentially from a
/// seeded starting line.
fn cbo_stores(seed: u64, round: u64) -> Programs {
    let progs = (0..CBO_CORES)
        .map(|t| {
            let lines: Vec<u64> = region_lines(t, CBO_CORES, CBO_BYTES).collect();
            let start = (cbo_value(seed, round, t) % lines.len() as u64) as usize;
            lines[start..]
                .iter()
                .chain(&lines[..start])
                .map(|&addr| Op::Store {
                    addr,
                    value: cbo_value(seed, round, addr),
                })
                .collect()
        })
        .collect();
    Programs(progs)
}

/// One `cbo_flush_8c` round: runs `stores`, then every core `CBO.FLUSH`es
/// every line of its share and fences. Returns the simulated cycles and
/// memory ops of the round.
fn cbo_round(sys: &mut System, stores: Programs) -> (u64, u64) {
    let stores_n: u64 = stores.0.iter().map(|p| p.len() as u64).sum();
    let dirty = sys.run(stores).cycles;
    let flush = writeback_region(sys, CBO_CORES, CBO_BYTES, false);
    // Stores, as many flushes, and one fence per core.
    (dirty + flush, 2 * stores_n + CBO_CORES)
}

/// Checks that every line flushed in `round` holds its stored value in
/// the durable image. Returns (lines checked, lines wrong).
fn cbo_durable_check(sys: &System, seed: u64, round: u64) -> (u64, u64) {
    let image = sys.durable_image();
    let (mut checked, mut wrong) = (0, 0);
    for t in 0..CBO_CORES {
        for addr in region_lines(t, CBO_CORES, CBO_BYTES) {
            checked += 1;
            wrong += u64::from(image.read_word_direct(addr) != cbo_value(seed, round, addr));
        }
    }
    (checked, wrong)
}

fn cbo_system() -> System {
    SystemBuilder::new()
        .cores(CBO_CORES as usize)
        .skip_it(true)
        .build()
}

/// One set-up sample of `cbo_flush_8c`: a system that ran round 0.
fn cbo_setup(run: &mut Run, seed: u64) -> System {
    run.tracer.record(run.trace);
    let ref_secs = run.reference();
    run.tracer.enter("setup");
    let (mut sys, build) = run.tracer.time("core.build", cbo_system);
    // Round 0 brings the caches to the state every measured round starts
    // from (the region's previous values flushed out).
    let stores = cbo_stores(seed, 0);
    run.tracer.time("boom.run", || cbo_round(&mut sys, stores));
    let secs = run.tracer.exit();
    run.setup_done(secs, ref_secs);
    run.build.push(build);
    let (checked, wrong) = cbo_durable_check(&sys, seed, 0);
    run.checks(checked, wrong, || {
        format!("round 0: {wrong} lines not durable")
    });
    sys
}

fn cbo_flush_8c(run: &mut Run, seed: u64) {
    let mut sys = cbo_setup(run, seed);
    let mut sim = (0u64, 0u64);
    let mut round = 0;
    while run.more() {
        if run.setup_due() {
            cbo_setup(run, seed);
        }
        round += 1;
        let traced = run.next_traced();
        run.tracer.enter("block");
        let stores = cbo_stores(seed, round);
        let ((cycles, ops), time) = run.run_system(&mut sys, traced, |s| cbo_round(s, stores));
        run.tracer.exit();
        let (checked, wrong) = cbo_durable_check(&sys, seed, round);
        run.checks(checked, wrong, || {
            format!("round {round}: {wrong} lines not durable")
        });
        if run.blocks.len() < CBO_SIM_ROUNDS {
            sim = (sim.0 + cycles, sim.1 + ops);
        }
        run.blocks.push(Block {
            time,
            ops,
            cycles,
            traced,
        });
    }
    run.sim_cycles = sim.0 as f64 / CBO_SIM_ROUNDS as f64;
    run.sim_ops_per_mcycle = sim.1 as f64 * 1e6 / sim.0 as f64;
}

fn pds_cfg(seed: u64, budget: u64, engine: EngineKind) -> WorkloadCfg {
    WorkloadCfg {
        ds: DsKind::Hash,
        mode: PersistMode::NvTraverse,
        opt: OptKind::SkipIt,
        threads: 2,
        key_range: 4096,
        prefill: 2048,
        update_pct: 20,
        budget_cycles: budget,
        seed,
        hash_buckets: 1024,
        engine,
    }
}

/// The parts of a [`BenchResult`] two runs of one input must agree on.
fn pds_identity(r: &BenchResult) -> (u64, u64, &SystemStats, (u64, u64, u64, u64)) {
    let e = &r.engine;
    (
        r.ops,
        r.cycles,
        &r.stats,
        (
            e.skipped_cycles,
            e.jumps,
            e.component_steps,
            e.component_slots,
        ),
    )
}

/// One set-up sample of `pds_hash_2t`: the prefilled state.
fn pds_setup(run: &mut Run, cfg: &WorkloadCfg) -> WarmSet {
    run.tracer.record(run.trace);
    let ref_secs = run.reference();
    let (warm, secs) = run
        .tracer
        .time("pds.prefill_snapshot", || prefill_snapshot(cfg));
    run.setup_done(secs, ref_secs);
    // The platform pds builds for itself, built again on its own.
    let (_, build) = run.tracer.time("core.build", || {
        SystemBuilder::new()
            .cores(cfg.threads)
            .skip_it(true)
            .build()
    });
    run.build.push(build);
    warm
}

fn pds_hash_2t(run: &mut Run, seed: u64) {
    let cfg = pds_cfg(seed, PDS_BUDGET, EngineKind::default());
    let warm = pds_setup(run, &cfg);
    let mut first: Option<BenchResult> = None;
    while run.more() {
        if run.setup_due() {
            pds_setup(run, &cfg);
        }
        let traced = run.next_traced();
        run.tracer.enter("block");
        let (r, time) = run.measure("pds.run_set_benchmark_warm", || {
            run_set_benchmark_warm(&cfg, &warm)
        });
        run.tracer.exit();
        let block = run.blocks.len();
        run.check(r.ops > 0, || format!("block {block}: no set ops completed"));
        match &first {
            None => first = Some(r.clone()),
            Some(f) => run.check(pds_identity(f) == pds_identity(&r), || {
                format!("block {block}: result differs from block 0")
            }),
        }
        run.blocks.push(Block {
            time,
            ops: r.ops,
            cycles: r.cycles,
            traced,
        });
    }
    let first = first.expect("at least one block");
    run.sim_cycles = first.cycles as f64;
    run.sim_ops_per_mcycle = first.throughput();

    let wheel = run_set_benchmark_warm(
        &pds_cfg(seed, PDS_REPLICA_BUDGET, EngineKind::default()),
        &warm,
    );
    let naive =
        run_set_benchmark_warm(&pds_cfg(seed, PDS_REPLICA_BUDGET, EngineKind::Naive), &warm);
    run.check(wheel.ops > 0, || {
        "replica: no set ops completed".to_string()
    });
    run.check(
        (wheel.ops, wheel.cycles, &wheel.stats) == (naive.ops, naive.cycles, &naive.stats),
        || "replica: Naive engine disagrees with the default engine".to_string(),
    );

    // The block's cache and memory counters run on from the prefill, which
    // the snapshot carries; a zero-budget phase on the same restored state
    // gives the baseline to take off, so they cover the measured phase like
    // the engine counters do. A thread sees the budget end only when a
    // memory op returns, so the baseline holds each thread's first set op.
    let base = run_set_benchmark_warm(&pds_cfg(seed, 0, EngineKind::default()), &warm);
    run.check(base.ops <= cfg.threads as u64, || {
        format!("zero-budget baseline ran {} set ops", base.ops)
    });
    run.counters = Some(
        Counters::of(&first.stats, &first.engine)
            .since(Counters::of(&base.stats, &EngineStats::default())),
    );

    let traced_secs: Vec<f64> = run.blocks(true).map(|b| b.time.secs).collect();
    let prefill_s = median(run.setup.iter().map(|t| t.secs).collect());
    run.layer.push(metric("pds.prefill_s", prefill_s, "s"));
    run.layer
        .push(metric("pds.measure_s", median(traced_secs), "s"));
    run.layer
        .push(metric("snap.bytes", warm.encoded_bytes() as f64, "bytes"));
}

fn svc_cfg(seed: u64, requests_per_core: usize) -> ServiceCfg {
    ServiceCfg {
        cores: 2,
        requests_per_core,
        key_range: 2048,
        prefill: 1024,
        dist: KeyDist::from_skew(0.99),
        arrivals: Arrivals::Poisson { mean_gap: 560 },
        stress: Stress::ExpirationStorm {
            every_cycles: 20_000,
            lines: 16,
        },
        opt: OptKind::SkipIt,
        seed,
        hash_buckets: 512,
        ..ServiceCfg::default()
    }
}

fn svc_lanes(cfg: &ServiceCfg) -> usize {
    build_lanes(
        cfg.cores,
        cfg.requests_per_core,
        cfg.key_range,
        cfg.dist,
        cfg.arrivals,
        cfg.mix,
        &cfg.tenants,
        cfg.stress,
        cfg.seed,
    )
    .len()
}

/// The parts of a [`ServiceReport`] two runs of one input must agree on.
fn svc_identity(r: &ServiceReport) -> (u64, u64, u64, u64, &SystemStats) {
    (r.digest, r.requests, r.fill_cycles, r.cycles, &r.stats)
}

fn svc_run(cfg: &ServiceCfg, engine: EngineKind) -> ServiceReport {
    let mut sys = cfg.builder().engine(engine).build();
    sys.run(ServiceWorkload::new(cfg.clone())).output
}

/// Checks one service report: a latency per request, ordered percentiles.
fn svc_report_checks(run: &mut Run, r: &ServiceReport, label: &str) {
    run.check(r.hist.count() == r.requests, || {
        format!(
            "{label}: {} latencies for {} requests",
            r.hist.count(),
            r.requests
        )
    });
    let (p50, p99, p999) = (r.hist.p50(), r.hist.p99(), r.hist.p999());
    run.check(p50.is_some() && p50 <= p99 && p99 <= p999, || {
        format!("{label}: percentiles out of order: {p50:?} {p99:?} {p999:?}")
    });
}

/// One set-up sample of `svc_storm_2t`: everything `ServiceWorkload::run`
/// does before its first request (building the table, seeding the cache
/// slots, the persistent prefill). Only `run` reaches these, so the sample
/// is a build plus a run with no requests; a measured block repeats the
/// same fill before its requests (`service.fill_frac` is its share).
/// Returns the fill's cycles. Also times `build_lanes` on `cfg` on its own,
/// outside the set-up, into `lanes_s`.
fn svc_setup(run: &mut Run, cfg: &ServiceCfg, lanes_s: &mut Vec<f64>) -> u64 {
    let empty = ServiceCfg {
        requests_per_core: 0,
        ..cfg.clone()
    };
    run.tracer.record(run.trace);
    let ref_secs = run.reference();
    run.tracer.enter("setup");
    let (mut sys, build) = run.tracer.time("core.build", || empty.builder().build());
    let (r, _) = run.tracer.time("boom.run", || {
        sys.run(ServiceWorkload::new(empty.clone())).output
    });
    let secs = run.tracer.exit();
    run.setup_done(secs, ref_secs);
    run.build.push(build);
    run.check(r.requests == 0, || {
        format!("set-up ran {} requests", r.requests)
    });
    let (lanes, secs) = run.tracer.time("service.build_lanes", || svc_lanes(cfg));
    lanes_s.push(secs);
    run.check(lanes == cfg.cores, || format!("{lanes} lanes built"));
    r.fill_cycles
}

fn svc_storm_2t(run: &mut Run, seed: u64) {
    let full = svc_run(&svc_cfg(seed, SVC_REQUESTS), EngineKind::default());
    svc_report_checks(run, &full, "full run");
    let cycles = full.fill_cycles + full.cycles;
    run.sim_cycles = cycles as f64;
    run.sim_ops_per_mcycle = full.requests as f64 * 1e6 / cycles as f64;
    for (name, p) in [
        ("req_p50_cycles", full.hist.p50()),
        ("req_p99_cycles", full.hist.p99()),
        ("req_p999_cycles", full.hist.p999()),
    ] {
        run.extra
            .push(metric(name, p.unwrap_or(0) as f64, "cycles"));
    }
    run.extra
        .push(metric("requests", full.requests as f64, "count"));

    let cfg = svc_cfg(seed, SVC_BLOCK_REQUESTS);
    let mut lanes_s = Vec::new();
    let fill_cycles = svc_setup(run, &cfg, &mut lanes_s);
    let mut first: Option<ServiceReport> = None;
    while run.more() {
        if run.setup_due() {
            svc_setup(run, &cfg, &mut lanes_s);
        }
        let traced = run.next_traced();
        run.tracer.enter("block");
        let (mut sys, build) = run.tracer.time("core.build", || cfg.builder().build());
        run.build.push(build);
        let (r, time) = run.run_system(&mut sys, traced, |s| {
            s.run(ServiceWorkload::new(cfg.clone())).output
        });
        run.tracer.exit();
        let block = run.blocks.len();
        svc_report_checks(run, &r, &format!("block {block}"));
        match &first {
            None => first = Some(r.clone()),
            Some(f) => run.check(svc_identity(f) == svc_identity(&r), || {
                format!("block {block}: report differs from block 0")
            }),
        }
        let cycles = r.fill_cycles + r.cycles;
        run.blocks.push(Block {
            time,
            ops: r.requests,
            cycles,
            traced,
        });
    }
    let first = first.expect("at least one block");

    let small = svc_cfg(seed, SVC_REPLICA_REQUESTS);
    let wheel = svc_run(&small, EngineKind::default());
    let naive = svc_run(&small, EngineKind::Naive);
    run.check(svc_identity(&wheel) == svc_identity(&naive), || {
        "replica: Naive engine disagrees with the default engine".to_string()
    });

    run.layer
        .push(metric("service.build_lanes_s", median(lanes_s), "s"));
    run.check(fill_cycles == first.fill_cycles, || {
        format!(
            "set-up fill took {fill_cycles} cycles, a block's {}",
            first.fill_cycles
        )
    });
    run.layer.push(metric(
        "service.fill_cycles",
        first.fill_cycles as f64,
        "cycles",
    ));
    run.layer.push(metric(
        "service.fill_frac",
        frac(first.fill_cycles, first.fill_cycles + first.cycles),
        "frac",
    ));
}

/// Declares [`Counters`], one `u64` per field, with a field-wise
/// difference.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The counters the per-layer metrics read, L1 ones summed over cores.
        #[derive(Clone, Copy, Debug, Default)]
        struct Counters {
            $($field: u64,)*
        }

        impl Counters {
            /// What moved between `earlier` and `self`.
            fn since(self, earlier: Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            fn to_json(self) -> String {
                let fields = [$(format!("\"{}\": {}", stringify!($field), self.$field)),*];
                format!("{{{}}}", fields.join(", "))
            }
        }
    };
}

counters!(
    cycles,
    skipped_cycles,
    jumps,
    component_steps,
    component_slots,
    loads,
    load_hits,
    nacks,
    writebacks_enqueued,
    writebacks_skipped,
    root_releases_sent,
    l1_dirty_evictions,
    probes_handled,
    mshr_allocs,
    acquires,
    root_releases,
    dram_skipped,
    dram_writes_released,
    probes_sent,
    mem_fills,
    l2_dirty_evictions,
    mem_reads,
    mem_writes,
);

impl Counters {
    fn of(s: &SystemStats, e: &EngineStats) -> Counters {
        let l1 = |f: fn(&L1Stats) -> u64| s.l1.iter().map(f).sum();
        let l2 = &s.l2;
        Counters {
            cycles: s.cycles,
            skipped_cycles: e.skipped_cycles,
            jumps: e.jumps,
            component_steps: e.component_steps,
            component_slots: e.component_slots,
            loads: l1(|c| c.loads),
            load_hits: l1(|c| c.load_hits),
            nacks: l1(|c| c.nacks),
            writebacks_enqueued: l1(|c| c.writebacks_enqueued),
            writebacks_skipped: l1(|c| c.writebacks_skipped),
            root_releases_sent: l1(|c| c.root_releases_sent),
            l1_dirty_evictions: l1(|c| c.dirty_evictions),
            probes_handled: l1(|c| c.probes_handled),
            mshr_allocs: l1(|c| c.mshr_allocs),
            acquires: l2.acquires,
            root_releases: l2.root_release_flush + l2.root_release_clean + l2.root_release_inval,
            dram_skipped: l2.root_release_dram_skipped,
            dram_writes_released: l2.root_release_dram_writes,
            probes_sent: l2.probes_sent,
            mem_fills: l2.mem_fills,
            l2_dirty_evictions: l2.dirty_evictions,
            mem_reads: s.mem.reads,
            mem_writes: s.mem.writes,
        }
    }
}

/// Per-layer counter metrics of the cache hierarchy and the engine.
fn counter_metrics(c: &Counters) -> Vec<Metric> {
    let count = |name, n: u64| metric(name, n as f64, "count");
    vec![
        metric(
            "boom.engine_step_frac",
            frac(c.component_steps, c.component_slots),
            "frac",
        ),
        metric(
            "boom.skipped_cycle_frac",
            frac(c.skipped_cycles, c.cycles),
            "frac",
        ),
        count("boom.engine_jumps", c.jumps),
        metric(
            "dcache.writeback_skip_frac",
            frac(
                c.writebacks_skipped,
                c.writebacks_skipped + c.writebacks_enqueued,
            ),
            "frac",
        ),
        metric(
            "llc.dram_skip_frac",
            frac(c.dram_skipped, c.dram_skipped + c.dram_writes_released),
            "frac",
        ),
        count("mem.writes", c.mem_writes),
        count("mem.reads", c.mem_reads),
        count("dcache.nacks", c.nacks),
        metric("dcache.load_hit_frac", frac(c.load_hits, c.loads), "frac"),
        count("dcache.mshr_allocs", c.mshr_allocs),
        count("dcache.root_releases_sent", c.root_releases_sent),
        count("dcache.dirty_evictions", c.l1_dirty_evictions),
        count("dcache.probes_handled", c.probes_handled),
        count("llc.acquires", c.acquires),
        count("llc.root_releases", c.root_releases),
        count("llc.probes_sent", c.probes_sent),
        count("llc.mem_fills", c.mem_fills),
        count("llc.dirty_evictions", c.l2_dirty_evictions),
    ]
}

/// TileLink messages per channel, summed over cores, and per memory op.
fn link_metrics(c: &MetricsSnapshot, ops: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut total = 0;
    for ch in ['a', 'b', 'c', 'd', 'e'] {
        let prefix = format!("link.{ch}.");
        let n: u64 = c
            .entries()
            .filter(|(k, _)| k.starts_with(&prefix) && k.ends_with(".pushed"))
            .map(|(_, v)| v)
            .sum();
        total += n;
        out.push(metric(format!("tilelink.{ch}_msgs"), n as f64, "count"));
    }
    out.push(metric("tilelink.msgs_per_op", frac(total, ops), "msgs/op"));
    out
}

/// Per-op-kind completion latency percentiles of a traced block.
fn latency_metrics(out: &mut Vec<Metric>, c: &MetricsSnapshot) {
    for kind in ["load", "store", "flush", "fence"] {
        for p in ["p50", "p99"] {
            if let Some(v) = c.get(&format!("latency.{kind}.{p}")) {
                out.push(metric(format!("boom.lat.{kind}.{p}"), v as f64, "cycles"));
            }
        }
    }
}

/// Host-time metrics derived from the blocks and set-ups. The end-to-end
/// host metrics are on the reference scale ([`Timing::normalized`]); their
/// wall-clock values are printed beside them, and the per-layer times are
/// wall-clock.
fn finish(run: &mut Run) -> (Vec<Metric>, Vec<Metric>) {
    let untraced: Vec<&Block> = run.blocks(false).collect();
    let per_block = |blocks: &[&Block], f: fn(&Block) -> f64| -> f64 {
        median(blocks.iter().map(|&b| f(b)).collect())
    };
    let per_setup = |f: fn(&Timing) -> f64| median(run.setup.iter().map(f).collect());
    let end_to_end = vec![
        metric("setup_s", per_setup(Timing::normalized), "s"),
        metric(
            "host_ops_per_s",
            per_block(&untraced, |b| b.ops as f64 / b.time.normalized()),
            "1/s",
        ),
        metric(
            "sim_kcycles_per_s",
            per_block(&untraced, |b| b.cycles as f64 / 1e3 / b.time.normalized()),
            "kcycles/s",
        ),
        metric("peak_rss_mb", probe::peak_rss_mb().unwrap_or(0.0), "MB"),
        metric("sim_cycles", run.sim_cycles, "cycles"),
        metric("sim_ops_per_mcycle", run.sim_ops_per_mcycle, "ops/Mcycle"),
    ];
    let wall = [
        metric("setup_s.wall", per_setup(|t| t.secs), "s"),
        metric(
            "host_ops_per_s.wall",
            per_block(&untraced, |b| b.ops as f64 / b.time.secs),
            "1/s",
        ),
        metric(
            "sim_kcycles_per_s.wall",
            per_block(&untraced, |b| b.cycles as f64 / 1e3 / b.time.secs),
            "kcycles/s",
        ),
        metric(
            "reference_s",
            per_block(&untraced, |b| b.time.ref_secs),
            "s",
        ),
    ];

    let traced: Vec<&Block> = run.blocks(true).collect();
    let traced_ops = traced.first().map_or(0, |b| b.ops);
    let run_s = per_block(&traced, |b| b.time.secs);
    let (user, sys) = traced
        .iter()
        .filter_map(|b| b.time.cpu)
        .fold((0, 0), |(u, s), (bu, bs)| (u + bu, s + bs));
    let mut layer = vec![
        metric("boom.run_s", run_s, "s"),
        metric(
            "boom.host_ns_per_op",
            per_block(&traced, |b| b.time.secs * 1e9 / b.ops as f64),
            "ns",
        ),
        metric("boom.sys_cpu_frac", frac(sys, user + sys), "frac"),
        metric("core.build_s", median(run.build.clone()), "s"),
    ];
    // Tracing in the simulator is on only in blocks run through
    // `Run::run_system`, the ones that leave a snapshot. Elsewhere (pds,
    // whose `System` is built inside `run_set_benchmark_warm`) traced and
    // untraced blocks do the same work, so the overhead is reported as 0.
    // Traced and untraced blocks alternate but still sit at different
    // moments, so they are compared on the reference scale.
    let overhead = match run.snapshot {
        Some(_) => {
            per_block(&traced, |b| b.time.normalized())
                / per_block(&untraced, |b| b.time.normalized())
                - 1.0
        }
        None => 0.0,
    };
    layer.push(metric("trace.overhead_frac", overhead, "frac"));
    run.extra.extend(wall);
    layer.append(&mut run.layer);
    if let Some(c) = run.counters {
        layer.extend(counter_metrics(&c));
    }
    if let Some(snap) = &run.snapshot {
        run.extra.extend(link_metrics(snap, traced_ops));
    }
    // Layers this workload never calls did no work in it.
    for (name, unit) in [
        ("pds.prefill_s", "s"),
        ("pds.measure_s", "s"),
        ("snap.bytes", "bytes"),
        ("service.build_lanes_s", "s"),
        ("service.fill_cycles", "cycles"),
        ("service.fill_frac", "frac"),
    ] {
        if !layer.iter().any(|m| m.name == name) {
            layer.push(metric(name, 0.0, unit));
        }
    }
    (end_to_end, layer)
}

fn json_metrics(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut run = Run::new(&args);
    // The first sample in a process also pays for first use of the thread
    // and channel machinery; no measured call is paired with it.
    reference::sample();
    match args.workload.as_str() {
        "cbo_flush_8c" => cbo_flush_8c(&mut run, args.seed),
        "pds_hash_2t" => pds_hash_2t(&mut run, args.seed),
        _ => svc_storm_2t(&mut run, args.seed),
    }
    let (end_to_end, layer) = finish(&mut run);
    let failed_frac = frac(run.failed, run.attempted);

    let w = &args.workload;
    let untraced = run.blocks(false).count();
    let traced = run.blocks(true).count();
    println!(
        "# {w} seed {} : {untraced} untraced + {traced} traced blocks, {} set-ups",
        args.seed,
        run.setup.len()
    );
    let secs: Vec<String> = run
        .blocks
        .iter()
        .map(|b| format!("{:.6}", b.time.secs))
        .collect();
    println!("# block seconds, in run order: {}", secs.join(" "));
    for m in &end_to_end {
        println!("{w} {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{w} failed_frac = {failed_frac} frac ({} of {} checks)",
        run.failed, run.attempted
    );
    for m in &run.extra {
        println!("{w} {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &layer {
            println!("{w} {} = {} {}", m.name, m.value, m.unit);
        }
        let self_times: Vec<Metric> = run
            .tracer
            .self_times()
            .into_iter()
            .map(|(name, secs)| metric(format!("self_s.{name}"), secs, "s"))
            .collect();
        for m in &self_times {
            println!("{w} {} = {} {}", m.name, m.value, m.unit);
        }
        let doc = format!(
            "{{\"workload\": \"{w}\", \"seed\": {},\n\"metrics\": {},\n\"extra\": {},\n\"self_times\": {},\n\"counters\": {},\n\"spans\": {}}}\n",
            args.seed,
            json_metrics(&layer),
            json_metrics(&run.extra),
            json_metrics(&self_times),
            run.counters.map_or("{}".to_string(), Counters::to_json),
            run.tracer.to_json()
        );
        let path = format!("{}/trace-{w}-seed{}.json", args.out, args.seed);
        match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    for f in &run.failures {
        println!("# check failed: {f}");
    }
    let metrics = if args.trace { &layer } else { &end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_metrics(metrics)
    );
}
