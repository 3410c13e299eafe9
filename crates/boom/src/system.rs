//! The cycle-stepped multicore system: N BOOM-style cores with private L1
//! data caches, a shared inclusive L2, and DRAM (the §7.1 platform).

use crate::handle::{CoreHandle, Resp, Worker};
use crate::lsu::{Lsu, LsuConfig};
use crate::op::{Op, OpToken};
use crate::workload::{CapturedOp, RunReport, TimedOp, Workload};
use skipit_dcache::{DataCache, L1Config, L1Stats};
use skipit_llc::{InclusiveCache, L2Config, L2Ports, L2Stats};
use skipit_mem::{Dram, DramConfig, MemStats};
use skipit_tilelink::perturb::link_site;
use skipit_tilelink::{ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, Link, PerturbConfig};
use skipit_trace::{
    CoreCounters, StreamEvent, Telemetry, TelemetryCounters, TraceConfig, TraceEvent, TraceFilter,
    TraceSink,
};
use std::future::Future;

/// Which simulation engine advances the clock. All engines produce
/// bit-identical elapsed cycles, statistics, durable memory images and
/// trace-event streams (modulo [`TraceEvent::is_engine_event`] jump
/// markers); they differ only in host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// One full component sweep per simulated cycle — the reference engine.
    Naive,
    /// PR 1's global gate: plan every cycle, jump over globally idle
    /// windows, and step only the components whose gate fired inside busy
    /// cycles. Still walks every gate predicate each busy cycle.
    GlobalGate,
    /// Per-component delta-stepping: every subsystem registers its own
    /// due-cycle in an event wheel and is stepped only when due, even while
    /// other components are busy. Cross-component handoffs (TileLink
    /// pushes/pops, probe interlocks, frontend issue) re-arm the receiver's
    /// slot as they happen, so no planning pass walks idle components. See
    /// DESIGN.md §5 "Clocking".
    #[default]
    ComponentWheel,
    /// The component wheel with its per-cycle core phase partitioned
    /// across a persistent host-thread pool ([`crate::pool::WheelPool`]):
    /// the L2+DRAM slot steps serially first (its same-cycle effects are
    /// observable by the cores, exactly as in serial order), then the due
    /// core slots step in parallel — each slot owns its L1+LSU and its
    /// five per-core links outright, and wake edges toward the L2 are
    /// buffered in per-slot staging lanes
    /// ([`skipit_tilelink::staged::WakeStage`]) merged in fixed slot order
    /// at the cycle barrier — then frontends step serially. Observable
    /// behavior is bit-identical to [`EngineKind::ComponentWheel`] at any
    /// thread count; cycles with fewer due core slots than
    /// [`PARALLEL_MIN_DUE`] fall back to serial stepping so quiescent
    /// workloads keep the full fast-forward win. Thread count comes from
    /// [`SystemConfig::engine_threads`].
    ParallelWheel,
}

/// Configuration of the whole simulated SoC.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Number of cores (each with a private L1 D-cache).
    pub cores: usize,
    /// Per-core L1 configuration (including the Skip It switch).
    pub l1: L1Config,
    /// Shared L2 configuration.
    pub l2: L2Config,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Wire latency of every TileLink channel hop (cycles).
    pub link_latency: u64,
    /// Buffering per channel (messages).
    pub link_capacity: usize,
    /// Frontend issue width (ops entering the LSU per cycle).
    pub issue_width: usize,
    /// LSU sizing.
    pub lsu: LsuConfig,
    /// Simulation engine. Elapsed cycles and statistics are bit-identical
    /// across all variants; [`EngineKind::Naive`] reproduces the reference
    /// one-cycle-at-a-time stepping.
    pub engine: EngineKind,
    /// Debug aid for the fast engines: re-verify every claimed-idle window
    /// with the naive engine (panicking on the first cycle whose state
    /// differs from the window start), and — under the component wheel —
    /// recheck every skipped component's due-bound each executed cycle (a
    /// missed wake edge panics). Expensive — intended for tests.
    pub lockstep_oracle: bool,
    /// Seeded adversarial perturbation (arbitration jitter on the TileLink
    /// channels, flush-dispatch hold-off, L2 MSHR rotation). The default is
    /// inert: every delay amplitude zero, rotation off — the system is then
    /// bit-identical to an unperturbed one. See
    /// [`skipit_tilelink::PerturbConfig`].
    pub perturb: PerturbConfig,
    /// Host threads for [`EngineKind::ParallelWheel`]'s intra-cycle core
    /// phase. `0` (the default) resolves lazily at the first parallel
    /// cycle: `SKIPIT_ENGINE_THREADS` if set — panicking on unparseable or
    /// zero values, like `SKIPIT_SWEEP_THREADS` — else the host's available
    /// parallelism. The resolved count is clamped to the core count (one
    /// thread per core slot is the maximum useful parallelism). Ignored by
    /// the serial engines.
    pub engine_threads: usize,
}

impl Default for SystemConfig {
    /// The paper's evaluation platform (§7.1): dual-core, 32 KiB L1s,
    /// 512 KiB shared L2.
    fn default() -> Self {
        SystemConfig {
            cores: 2,
            l1: L1Config::default(),
            l2: L2Config::default(),
            dram: DramConfig::default(),
            link_latency: 1,
            link_capacity: 8,
            issue_width: 2,
            lsu: LsuConfig::default(),
            engine: EngineKind::default(),
            lockstep_oracle: false,
            perturb: PerturbConfig::default(),
            engine_threads: 0,
        }
    }
}

/// Counters of the event-driven engine itself (host-side bookkeeping, not
/// part of the simulated machine's statistics — [`SystemStats`] is identical
/// whether or not fast-forwarding is enabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Simulated cycles the engine never executed (jumped over).
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub jumps: u64,
    /// Component steps a gated engine actually executed (the L2+DRAM pair
    /// counts as one component, each core's L1+LSU pair as one; frontends
    /// are excluded — they run every executed cycle).
    pub component_steps: u64,
    /// Component-step opportunities the naive engine would have burned:
    /// `1 + cores` per simulated cycle, jumped-over cycles included.
    pub component_slots: u64,
    /// Host wall-time attribution of the wheel engines' per-cycle phases
    /// (all zero unless the `profile` feature is compiled in).
    pub phase: PhaseProfile,
}

/// Equality deliberately ignores [`EngineStats::phase`]: wall-time
/// attribution is a property of the *host run*, not of the simulated
/// machine, and the cross-engine / cross-thread-count bit-identity
/// contracts compare `EngineStats` values.
impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        (
            self.skipped_cycles,
            self.jumps,
            self.component_steps,
            self.component_slots,
        ) == (
            other.skipped_cycles,
            other.jumps,
            other.component_steps,
            other.component_slots,
        )
    }
}

impl Eq for EngineStats {}

/// Per-phase host wall-time attribution of the wheel engines (the
/// `profile` feature; see [`crate::prof`]). An executed wheel cycle has
/// three phases in fixed order — the serial L2+DRAM step, the (possibly
/// parallel) core phase, and the serial frontend sweep — so the measured
/// serial share of the busy-cycle loop is exactly the Amdahl term bounding
/// [`EngineKind::ParallelWheel`]'s possible speedup.
///
/// All fields are zero when the `profile` feature is compiled out (the
/// default), when a non-wheel engine ran, or before any cycle executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Wall nanoseconds in the serial L2 + DRAM phase (includes the wake-edge
    /// scan and the L2 slot re-arm).
    pub serial_ns: u64,
    /// Wall nanoseconds in the core phase (parallel dispatch, stepping and
    /// the cycle barrier under [`EngineKind::ParallelWheel`]; the serial
    /// core-slot loop otherwise).
    pub core_ns: u64,
    /// Wall nanoseconds in the frontend sweep + slot re-arms.
    pub frontend_ns: u64,
    /// Wall nanoseconds the dispatching thread spent spinning on the
    /// cycle barrier waiting for workers to finish (a subset of
    /// [`PhaseProfile::core_ns`]; zero when the pool never dispatched).
    pub barrier_ns: u64,
    /// Wall nanoseconds worker threads spent waiting for the next epoch
    /// dispatch, summed across workers (idle-worker time, not part of
    /// the caller-observed phase times above).
    pub worker_wait_ns: u64,
}

impl PhaseProfile {
    /// Total attributed busy-cycle wall time.
    pub fn total_ns(&self) -> u64 {
        self.serial_ns + self.core_ns + self.frontend_ns
    }

    /// Measured serial fraction of the busy-cycle loop — the Amdahl bound:
    /// `(serial_ns + frontend_ns) / total_ns`. The core phase is counted
    /// as the parallelizable part even when it ran serially (the point of
    /// the measurement is to predict what parallelizing it can buy).
    /// `None` until any phase time was recorded.
    pub fn serial_fraction(&self) -> Option<f64> {
        let total = self.total_ns();
        (total > 0).then(|| (self.serial_ns + self.frontend_ns) as f64 / total as f64)
    }

    /// Speedup of the busy-cycle loop Amdahl's law predicts at `threads`
    /// threads, from the measured serial fraction. `None` until any phase
    /// time was recorded.
    pub fn predicted_speedup(&self, threads: usize) -> Option<f64> {
        let s = self.serial_fraction()?;
        Some(1.0 / (s + (1.0 - s) / threads.max(1) as f64))
    }
}

impl EngineStats {
    /// Percentage of component-step work skipped — the per-component
    /// generalization of whole-cycle `skipped_cycles`: a cycle where only
    /// the L2 steps on an 8-core system skips 8 of 9 slots even though the
    /// cycle itself executed. `None` until an engine that tracks slots
    /// (global gate or component wheel) has run.
    pub fn component_skipped_pct(&self) -> Option<f64> {
        (self.component_slots > 0)
            .then(|| 100.0 * (1.0 - self.component_steps as f64 / self.component_slots as f64))
    }
}

/// Per-cycle execution plan of the fast engine: which components have a
/// gate firing at the current cycle (see [`System::plan_tick`]). A cleared
/// gate means the component's step is provably a no-op this cycle.
#[derive(Default)]
struct TickPlan {
    /// Step the shared L2 (and with it the DRAM controller).
    l2: bool,
    /// Bitmask of cores (L1 + LSU pairs) to step.
    cores: u64,
    /// Some frontend has an issue/poll event due now.
    frontend: bool,
    /// Minimum future event time across all components — the fast engine's
    /// jump target. Only meaningful when no gate fired; `None` means only
    /// an external worker command can create work.
    bound: Option<u64>,
    /// Gates of the sources whose event time equals `bound`. Because no
    /// state changes during a jump, these are exactly the gates that fire
    /// at the jump target, so the post-jump cycle needs no second planning
    /// pass.
    bound_l2: bool,
    bound_cores: u64,
    bound_frontend: bool,
}

impl TickPlan {
    fn any(&self) -> bool {
        self.l2 || self.cores != 0 || self.frontend
    }

    /// Folds a future event at `t` into the bound, remembering which
    /// component gates to run if `t` ends up being the jump target.
    fn merge_future(&mut self, t: u64, l2: bool, cores: u64, frontend: bool) {
        match self.bound {
            Some(b) if b < t => {}
            Some(b) if b == t => {
                self.bound_l2 |= l2;
                self.bound_cores |= cores;
                self.bound_frontend |= frontend;
            }
            _ => {
                self.bound = Some(t);
                self.bound_l2 = l2;
                self.bound_cores = cores;
                self.bound_frontend = frontend;
            }
        }
    }
}

/// Due-cycle sentinel: no self-driven event; only a wake edge (or an
/// external worker command) can re-arm the slot.
const NEVER: u64 = u64::MAX;

/// A busy-streaking slot recomputes its real `next_event` bound on each of
/// its first `WHEEL_EAGER_PROBES` consecutive steps (so a slot that wakes,
/// acts once and has nothing further to do goes straight back to sleep) …
const WHEEL_EAGER_PROBES: u32 = 2;

/// … and every `WHEEL_PROBE_PERIOD` steps thereafter. Between probes the
/// slot is simply re-armed for the next cycle, which is always safe —
/// stepping a component with nothing to do is exactly what the naive
/// engine does everywhere, every cycle — and skips the expensive bound
/// walk that would otherwise be paid per step while the component is
/// genuinely busy. The cost is at most `WHEEL_PROBE_PERIOD - 1` redundant
/// steps when a streaking component goes idle.
const WHEEL_PROBE_PERIOD: u32 = 4;

/// Minimum due core slots in a cycle before [`EngineKind::ParallelWheel`]
/// dispatches the core phase to the thread pool; below this, the
/// pool-barrier overhead (an unpark plus two fence round trips, single-digit
/// microseconds) exceeds the stepping work and the cycle runs serially.
/// Serialized workloads — where at most one or two slots are ever due —
/// therefore never pay for the pool and keep their fast-forward win.
pub const PARALLEL_MIN_DUE: usize = 3;

/// The component-wheel scheduler's state (host-side bookkeeping only — never
/// part of the simulated machine's state or the oracle digest). One due
/// cycle per component slot; a slot is stepped only on cycles where its due
/// value has been reached, and re-armed from its own `next_event` bound
/// after stepping plus explicit wake edges from its neighbors (see
/// [`System::tick_wheel`]).
#[derive(Default)]
struct Wheel {
    /// Whether the due values below describe the current state. Cleared by
    /// every code path that mutates simulated state outside the wheel's
    /// view (naive/gated ticks, direct DRAM pokes, frontend installs).
    valid: bool,
    /// Due cycle of the L2 + DRAM slot.
    due_l2: u64,
    /// Due cycle of each core's L1 + LSU slot.
    due_comp: Vec<u64>,
    /// Due cycle of each core's frontend (tracked separately so a
    /// poll-paced frontend does not force its whole core slot — and
    /// the L1 `next_event` walk that re-arms it — every executed cycle).
    due_fe: Vec<u64>,
    /// Reusable per-core scratch for the L2 phase's link-condition
    /// snapshots (`[b_empty, d_empty, a_can_push, c_can_push,
    /// e_can_push]`).
    scratch: Vec<[bool; 5]>,
    /// Consecutive executed steps of each core slot since it last slept or
    /// was woken; drives the [`WHEEL_PROBE_PERIOD`] bound-walk hysteresis.
    streak_comp: Vec<u32>,
    /// Same, for the L2 + DRAM slot.
    streak_l2: u32,
    /// Reusable scratch listing the core slots due this cycle, in core
    /// order (the parallel engine's work list; built before dispatch so the
    /// partition is fixed regardless of thread count).
    par_due: Vec<u32>,
    /// Per-slot staging lanes for core→L2 wake edges during the parallel
    /// core phase, merged in fixed slot order at the cycle barrier.
    wake_stage: skipit_tilelink::staged::WakeStage,
}

impl Wheel {
    /// Earliest due cycle across every slot ([`NEVER`] when all slots are
    /// blocked on external input).
    fn next_due(&self) -> u64 {
        let mut t = self.due_l2;
        for &d in &self.due_comp {
            t = t.min(d);
        }
        for &d in &self.due_fe {
            t = t.min(d);
        }
        t
    }
}

/// The state partition one core slot owns while it steps: its L1 + LSU,
/// its five per-core link endpoints, and its wheel bookkeeping. In serial
/// engines this is just a borrow split of [`System`]; in the parallel
/// engine each worker thread holds exactly one lane per due slot
/// (disjoint by construction), which is what makes lock-free intra-cycle
/// parallelism sound — see [`skipit_tilelink::staged`] for the contract.
struct CoreLane<'a> {
    a: &'a mut Link<ChannelA>,
    b: &'a mut Link<ChannelB>,
    c: &'a mut Link<ChannelC>,
    d: &'a mut Link<ChannelD>,
    e: &'a mut Link<ChannelE>,
    l1: &'a mut DataCache,
    lsu: &'a mut Lsu,
    due: &'a mut u64,
    streak: &'a mut u32,
}

/// Steps one due core slot and re-arms its due bound from lane-local state
/// only; returns the slot's wake edge toward the L2 ([`NEVER`] when none).
/// Single body shared by the serial core loop and the parallel workers, so
/// the two cannot drift apart.
fn step_core_lane(now: u64, l2_sleeping: bool, lane: CoreLane<'_>) -> u64 {
    let CoreLane {
        a,
        b,
        c,
        d,
        e,
        l1,
        lsu,
        due,
        streak,
    } = lane;
    let a_empty = l2_sleeping && a.is_empty();
    let c_empty = l2_sleeping && c.is_empty();
    let e_empty = l2_sleeping && e.is_empty();
    let b_can = !l2_sleeping || b.can_push();
    let d_can = !l2_sleeping || d.can_push();
    {
        let mut ports = skipit_dcache::L1Ports {
            a: &mut *a,
            b: &mut *b,
            c: &mut *c,
            d: &mut *d,
            e: &mut *e,
        };
        l1.step(now, &mut ports);
    }
    lsu.step(now, l1);
    // Mirror image of the L2 phase's edges; the L2 cannot act on either
    // before the next cycle (it steps first).
    let mut wake = NEVER;
    if a_empty {
        if let Some(t) = a.next_ready() {
            wake = wake.min(t);
        }
    }
    if c_empty {
        if let Some(t) = c.next_ready() {
            wake = wake.min(t);
        }
    }
    if e_empty {
        if let Some(t) = e.next_ready() {
            wake = wake.min(t);
        }
    }
    if (!b_can && b.can_push()) || (!d_can && d.can_push()) {
        wake = wake.min(now + 1);
    }
    *streak += 1;
    *due = if *streak <= WHEEL_EAGER_PROBES || streak.is_multiple_of(WHEEL_PROBE_PERIOD) {
        let next = core_lane_due(now, a, b, c, d, e, l1, lsu).max(now + 1);
        if next > now + 1 {
            *streak = 0;
        }
        next
    } else {
        now + 1
    };
    wake
}

/// Lane-form of [`System::core_comp_due`]: the slot's self-contained due
/// bound from lane-local state only.
#[allow(clippy::too_many_arguments)]
fn core_lane_due(
    now: u64,
    a: &Link<ChannelA>,
    b: &Link<ChannelB>,
    c: &Link<ChannelC>,
    d: &Link<ChannelD>,
    e: &Link<ChannelE>,
    l1: &DataCache,
    lsu: &Lsu,
) -> u64 {
    let mut due = NEVER;
    // An inbound Grant wakes the core at head arrival.
    if let Some(t) = d.next_ready() {
        due = due.min(t);
    }
    // An inbound Probe only while the probe unit can sink it; the
    // L1 transition freeing the unit re-raises the head on re-arm.
    // Not collapsible into the arm guard: an arrived-but-unsinkable head
    // must arm *nothing* (the L1 transition freeing the probe unit
    // re-raises it), while the guard's fallthrough would arm `t`.
    #[allow(clippy::collapsible_match)]
    match b.next_ready() {
        Some(t) if t <= now => {
            if l1.probe_rdy() {
                due = due.min(t);
            }
        }
        Some(t) => due = due.min(t),
        None => {}
    }
    // Unlike `plan_tick`, outbound readiness is plain `can_push`: a
    // head the L2 pops this cycle frees a slot usable the same cycle,
    // but that arrives as an explicit pop wake edge from the L2 phase
    // (the wheel never speculates about a neighbor's step).
    if let Some(t) = l1.next_event(now, a.can_push(), c.can_push(), e.can_push()) {
        due = due.min(t);
    }
    if let Some(t) = lsu.next_event(now, l1) {
        due = due.min(t);
    }
    due
}

/// Raw-pointer view of the per-core state the parallel core phase steps,
/// shared read-only across worker threads; every dereference lands in a
/// distinct core's lane (see [`ParCoreCtx::step`]).
struct ParCoreCtx {
    a: *mut Link<ChannelA>,
    b: *mut Link<ChannelB>,
    c: *mut Link<ChannelC>,
    d: *mut Link<ChannelD>,
    e: *mut Link<ChannelE>,
    l1s: *mut DataCache,
    lsus: *mut Lsu,
    due_comp: *mut u64,
    streak_comp: *mut u32,
    /// Wake-stage lanes, indexed by core (not by work-list position).
    wake: *mut u64,
    due_list: *const u32,
    n: usize,
    threads: usize,
    now: u64,
    l2_sleeping: bool,
}

// SAFETY: the pointers target `System`-owned buffers that outlive the
// dispatch (the caller blocks on the pool barrier), and the dispatch
// protocol guarantees disjoint access: each work-list index is processed by
// exactly one thread, and distinct indices name distinct cores, so no two
// threads ever form references to the same element. All per-core payloads
// are `Send` (asserted in their crates).
unsafe impl Sync for ParCoreCtx {}

impl ParCoreCtx {
    /// Steps the `k`-th due core slot and stages its wake edge.
    ///
    /// # Safety
    ///
    /// `k < self.n`, and no other thread may process the same `k` during
    /// this dispatch (disjointness of the lanes relies on it).
    unsafe fn step(&self, k: usize) {
        // SAFETY: per the contract above, `i` is a valid core index owned
        // exclusively by this thread for the duration of the call, so the
        // references below are unique.
        unsafe {
            let i = *self.due_list.add(k) as usize;
            let wake = step_core_lane(
                self.now,
                self.l2_sleeping,
                CoreLane {
                    a: &mut *self.a.add(i),
                    b: &mut *self.b.add(i),
                    c: &mut *self.c.add(i),
                    d: &mut *self.d.add(i),
                    e: &mut *self.e.add(i),
                    l1: &mut *self.l1s.add(i),
                    lsu: &mut *self.lsus.add(i),
                    due: &mut *self.due_comp.add(i),
                    streak: &mut *self.streak_comp.add(i),
                },
            );
            *self.wake.add(i) = wake;
        }
    }
}

/// Parallel-stepping audit: a [`System`] (pool included) must stay
/// movable across host threads — the sweep runner depends on it.
#[allow(dead_code)]
fn _assert_system_send() {
    fn send<T: Send>() {}
    send::<System>();
    send::<crate::pool::WheelPool>();
}

/// Aggregated counters of a system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemStats {
    /// Current cycle.
    pub cycles: u64,
    /// Per-core L1 counters.
    pub l1: Vec<L1Stats>,
    /// L2 counters.
    pub l2: L2Stats,
    /// Memory counters.
    pub mem: MemStats,
}

impl SystemStats {
    /// Renders the counters as a human-readable report (used by examples
    /// and benchmark summaries).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycles: {}", self.cycles);
        for (i, l1) in self.l1.iter().enumerate() {
            let _ = writeln!(
                out,
                "core {i}: loads {} (hits {}), stores {} (hits {}), amos {}, nacks {}",
                l1.loads, l1.load_hits, l1.stores, l1.store_hits, l1.amos, l1.nacks
            );
            let _ = writeln!(
                out,
                "  writebacks: enqueued {}, skipped(SkipIt) {}, coalesced {}, \
                 RootReleases {} ({} with data)",
                l1.writebacks_enqueued,
                l1.writebacks_skipped,
                l1.writebacks_coalesced,
                l1.root_releases_sent,
                l1.root_releases_with_data
            );
            let _ = writeln!(
                out,
                "  probes {} ({} with data), evictions {} ({} dirty), \
                 flush-entry fixups: probe {} / evict {}",
                l1.probes_handled,
                l1.probes_with_data,
                l1.evictions,
                l1.dirty_evictions,
                l1.flush_entries_probe_invalidated,
                l1.flush_entries_evict_invalidated
            );
        }
        let _ = writeln!(
            out,
            "L2: acquires {} (clean {}, dirty {}), RootRelease flush {} / clean {}, \
             DRAM writes {} (trivially skipped {}), probes {}, releases {}, \
             evictions {} ({} dirty), list-buffered {}",
            self.l2.acquires,
            self.l2.grants_clean,
            self.l2.grants_dirty,
            self.l2.root_release_flush,
            self.l2.root_release_clean,
            self.l2.root_release_dram_writes,
            self.l2.root_release_dram_skipped,
            self.l2.probes_sent,
            self.l2.releases,
            self.l2.evictions,
            self.l2.dirty_evictions,
            self.l2.list_buffered
        );
        let _ = writeln!(
            out,
            "DRAM: reads {}, writes {}",
            self.mem.reads, self.mem.writes
        );
        out
    }
}

enum Frontend {
    Idle,
    Program {
        ops: Vec<Op>,
        next: usize,
        nop_until: u64,
    },
    /// Thread mode (see [`crate::workload::Threads`]): the worker future
    /// itself lives in the run loop and is lent to each frontend step.
    Thread {
        busy: Option<OpToken>,
        nop_until: Option<u64>,
        finished: bool,
    },
    /// Trace replay (see [`crate::workload::ReplaySchedule`]): like
    /// `Program`, but each op additionally waits for its recorded cycle
    /// (`base + ops[next].at`) before issuing.
    Replay {
        ops: Vec<TimedOp>,
        next: usize,
        nop_until: u64,
        /// Absolute cycle the run started at; stamps are relative to it.
        base: u64,
    },
}

/// The simulated SoC. See the [crate docs](crate) for the two drive modes.
pub struct System {
    cfg: SystemConfig,
    now: u64,
    lsus: Vec<Lsu>,
    l1s: Vec<DataCache>,
    l2: InclusiveCache,
    dram: Dram,
    frontends: Vec<Frontend>,
    next_token: OpToken,
    // Per-core channel links (L1 side index == core index).
    a: Vec<Link<ChannelA>>,
    b: Vec<Link<ChannelB>>,
    c: Vec<Link<ChannelC>>,
    d: Vec<Link<ChannelD>>,
    e: Vec<Link<ChannelE>>,
    /// Absolute cycle after which thread-mode responses carry `halted`.
    deadline: u64,
    /// Fast-forward engine bookkeeping.
    engine: EngineStats,
    /// Component-wheel scheduler state (see [`Wheel`]).
    wheel: Wheel,
    /// Persistent worker threads for [`EngineKind::ParallelWheel`], created
    /// lazily at the first parallel-eligible cycle (so serial engines and
    /// serialized workloads never spawn threads). Host-side only.
    pool: Option<crate::pool::WheelPool>,
    /// Event sink of the fast-forward engine itself
    /// ([`TraceEvent::FastForwardJump`] markers). Installed by
    /// [`System::set_trace`]; host-side, never part of simulated
    /// state.
    engine_sink: Option<TraceSink>,
    /// Interval telemetry sampler ([`TraceConfig::telemetry`]); host-side
    /// observation only, never part of simulated state or digests.
    telemetry: Option<Telemetry>,
    /// The tracing setup currently installed (see [`System::set_trace`]).
    trace_cfg: TraceConfig,
    /// Capture-mode buffer ([`System::start_capture`]): the committed
    /// memory-op stream of every frontend, in issue order. Host-side
    /// observation only — never part of simulated state, digests or
    /// snapshots, and recording changes nothing the simulation can see.
    capture: Option<Vec<CapturedOp>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cfg.cores)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a quiesced system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is 0 or exceeds 32, or a sub-config is invalid.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!((1..=32).contains(&cfg.cores), "1..=32 cores supported");
        macro_rules! links {
            () => {
                (0..cfg.cores)
                    .map(|_| Link::new(cfg.link_latency, cfg.link_capacity))
                    .collect()
            };
        }
        let mut sys = System {
            now: 0,
            lsus: (0..cfg.cores).map(|i| Lsu::new(i, cfg.lsu)).collect(),
            l1s: (0..cfg.cores).map(|i| DataCache::new(i, cfg.l1)).collect(),
            l2: InclusiveCache::new(cfg.cores, cfg.l2),
            dram: Dram::new(cfg.dram),
            frontends: (0..cfg.cores).map(|_| Frontend::Idle).collect(),
            next_token: 0,
            a: links!(),
            b: links!(),
            c: links!(),
            d: links!(),
            e: links!(),
            deadline: u64::MAX,
            engine: EngineStats::default(),
            wheel: Wheel::default(),
            pool: None,
            engine_sink: None,
            telemetry: None,
            trace_cfg: TraceConfig::off(),
            capture: None,
            cfg,
        };
        if cfg.perturb.is_active() {
            for i in 0..cfg.cores {
                sys.a[i].set_perturb(link_site('A', i), cfg.perturb);
                sys.b[i].set_perturb(link_site('B', i), cfg.perturb);
                sys.c[i].set_perturb(link_site('C', i), cfg.perturb);
                sys.d[i].set_perturb(link_site('D', i), cfg.perturb);
                sys.e[i].set_perturb(link_site('E', i), cfg.perturb);
                sys.l1s[i].set_perturb(cfg.perturb);
            }
            sys.l2.set_perturb(cfg.perturb);
        }
        sys
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Aggregated counters.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cycles: self.now,
            l1: self.l1s.iter().map(|c| c.stats()).collect(),
            l2: self.l2.stats(),
            mem: self.dram.stats(),
        }
    }

    /// Counters of the fast-forward engine (cycles skipped, jumps taken,
    /// component steps/slots). All zero under [`EngineKind::Naive`].
    /// With the `profile` feature compiled in, [`EngineStats::phase`]
    /// carries the wheel engines' wall-time phase attribution, with the
    /// pool's barrier/worker wait counters folded in here (they accumulate
    /// in shared atomics while worker threads run).
    pub fn engine_stats(&self) -> EngineStats {
        let mut stats = self.engine;
        if let Some(pool) = &self.pool {
            let (caller, worker) = pool.wait_ns();
            stats.phase.barrier_ns = caller;
            stats.phase.worker_wait_ns = worker;
        }
        stats
    }

    /// The persisted memory image (what a crash-recovery procedure sees).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Direct (test/bench setup) access to memory. Invalidates the
    /// component wheel: a direct poke mutates state behind the scheduler's
    /// back, so its due bounds must be recomputed.
    pub fn dram_mut(&mut self) -> &mut Dram {
        self.wheel.valid = false;
        &mut self.dram
    }

    /// Per-core L1 peek helpers for tests and examples.
    pub fn l1(&self, core: usize) -> &DataCache {
        &self.l1s[core]
    }

    /// L2 peek helpers for tests and examples.
    pub fn l2(&self) -> &InclusiveCache {
        &self.l2
    }

    /// The persisted memory image a power failure *right now* would leave
    /// behind: every cache's contents are lost; only writes that DRAM has
    /// completed survive (§2.5). Non-consuming — the live system is
    /// untouched, so a crash-point explorer can snapshot many candidate
    /// failure instants from one simulation.
    pub fn durable_image(&self) -> Dram {
        self.dram.durable_image()
    }

    /// Starts capture mode: from now on every committed memory operation —
    /// from any frontend (program, thread or replay mode), on any engine —
    /// is recorded as a [`CapturedOp`] with its issuing core and the exact
    /// cycle it entered the LSU ([`Op::Nop`] think time included, so a
    /// replay reproduces trailing idle cycles too). This is the capture
    /// hook the trace-replay subsystem builds on: feed the buffer to
    /// `skipit_replay::MemTrace::from_capture` to obtain a portable trace.
    ///
    /// Capture is host-side observation only — it changes nothing the
    /// simulation can see, is excluded from digests and snapshots, and
    /// restarting it discards any previous buffer. Stop and harvest with
    /// [`System::take_capture`].
    pub fn start_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Whether capture mode is active.
    pub fn capture_active(&self) -> bool {
        self.capture.is_some()
    }

    /// Stops capture mode and returns the recorded op stream, in issue
    /// order (empty if capture was never started).
    pub fn take_capture(&mut self) -> Vec<CapturedOp> {
        self.capture.take().unwrap_or_default()
    }

    /// Installs the tracing setup described by `cfg` — the single entry
    /// point for both tracing facilities:
    ///
    /// * [`TraceConfig::events`] installs cycle-stamped event-ring sinks on
    ///   every component (each LSU, L1 front end + flush unit, per-core
    ///   TileLink links, L2, DRAM, and the fast-forward engine), optionally
    ///   narrowed by [`TraceConfig::filter`]. Harvest with
    ///   [`System::trace_events`] or the exporters in [`crate::export`].
    /// * [`TraceConfig::latency`] starts per-op completion-latency
    ///   recording on every core (see [`crate::trace`],
    ///   [`System::trace_records`], [`System::latency_histograms`]).
    /// * [`TraceConfig::telemetry`] installs the interval counter-series
    ///   sampler (see [`Telemetry`], [`System::telemetry`],
    ///   [`System::telemetry_snapshot`]).
    ///
    /// Facilities absent from `cfg` are uninstalled, so
    /// `set_trace(TraceConfig::off())` returns the system to the
    /// zero-overhead untraced state. The call is idempotent: re-applying
    /// the currently installed setup leaves buffered events and records in
    /// place (use [`System::clear_event_trace`] / [`System::clear_traces`]
    /// to discard those).
    ///
    /// # Example
    ///
    /// ```
    /// use skipit_boom::{System, SystemConfig};
    /// use skipit_trace::TraceConfig;
    ///
    /// let mut sys = System::new(SystemConfig::default());
    /// sys.set_trace(TraceConfig::new().events(1 << 14).latency(1024));
    /// ```
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        let cur = self.trace_cfg;
        if (cfg.event_capacity(), cfg.event_filter()) != (cur.event_capacity(), cur.event_filter())
        {
            match cfg.event_capacity() {
                Some(capacity) => self.install_event_sinks(capacity, cfg.event_filter()),
                None => self.uninstall_event_sinks(),
            }
        }
        if cfg.latency_capacity() != cur.latency_capacity() {
            match cfg.latency_capacity() {
                Some(capacity) => {
                    for lsu in &mut self.lsus {
                        lsu.enable_tracing(capacity);
                    }
                }
                None => {
                    for lsu in &mut self.lsus {
                        lsu.disable_tracing();
                    }
                }
            }
        }
        if (cfg.telemetry_interval(), cfg.telemetry_capacity())
            != (cur.telemetry_interval(), cur.telemetry_capacity())
        {
            self.telemetry = cfg.telemetry_interval().map(|interval| {
                Telemetry::new(
                    interval,
                    cfg.telemetry_capacity(),
                    self.now,
                    self.telemetry_counters(),
                )
            });
        }
        self.trace_cfg = cfg;
    }

    /// The tracing setup currently installed.
    pub fn trace_config(&self) -> TraceConfig {
        self.trace_cfg
    }

    /// Cumulative counters + gauges in the shape the telemetry sampler
    /// consumes. Pure observation of existing counters.
    fn telemetry_counters(&self) -> TelemetryCounters {
        TelemetryCounters {
            cores: (0..self.cfg.cores)
                .map(|i| {
                    let l1 = &self.l1s[i];
                    let s = l1.stats();
                    CoreCounters {
                        ops: s.loads + s.stores + s.amos,
                        mshr_occupancy: l1.mshr_occupancy() as u64,
                        fshr_occupancy: l1.fshr_occupancy() as u64,
                        flush_queue_depth: l1.flush_queue_depth() as u64,
                        skips: s.writebacks_skipped,
                        enqueued: s.writebacks_enqueued,
                        link_pushed: [
                            self.a[i].pushed(),
                            self.b[i].pushed(),
                            self.c[i].pushed(),
                            self.d[i].pushed(),
                            self.e[i].pushed(),
                        ],
                    }
                })
                .collect(),
            l2_mshr_occupancy: self.l2.mshr_occupancy() as u64,
            dram_reads: self.dram.stats().reads,
            dram_writes: self.dram.stats().writes,
        }
    }

    /// Samples every telemetry boundary the clock has reached. Called at
    /// the top of each tick variant and right after fast-forward landings,
    /// so boundary `B` always captures the machine state at the start of
    /// cycle `B` — for jumped-over boundaries that state is provably the
    /// window-start state, which is exactly what the call passes (no
    /// counter changes inside a skipped window), keeping the sample series
    /// engine-independent. Idempotent; one branch when nothing is due.
    #[inline]
    fn poll_telemetry(&mut self) {
        if self.telemetry.as_ref().is_some_and(|t| t.due(self.now)) {
            let counters = self.telemetry_counters();
            if let Some(t) = self.telemetry.as_mut() {
                t.record_up_to(self.now, &counters);
            }
        }
    }

    /// The installed telemetry sampler, synced to every boundary the clock
    /// has reached. `None` unless [`TraceConfig::telemetry`] is installed.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// A copy of the sampler with a final partial sample appended covering
    /// the tail `(last boundary, now]` — so the samples' deltas sum
    /// exactly to the end-of-run cumulative totals. The live sampler is
    /// left untouched (still boundary-aligned). `None` unless telemetry is
    /// installed.
    pub fn telemetry_snapshot(&self) -> Option<Telemetry> {
        let t = self.telemetry.as_ref()?;
        let counters = self.telemetry_counters();
        let mut snap = t.clone();
        snap.record_up_to(self.now, &counters);
        snap.finish(self.now, &counters);
        Some(snap)
    }

    /// All trace records across cores, merged into one stream ordered by
    /// completion cycle (ties broken by core, then token, so the merge is
    /// deterministic regardless of per-core log layout).
    pub fn trace_records(&self) -> Vec<crate::trace::TraceRecord> {
        let mut records: Vec<crate::trace::TraceRecord> = self
            .lsus
            .iter()
            .filter_map(|l| l.trace())
            .flat_map(|t| t.records().iter().copied())
            .collect();
        records.sort_by_key(|r| (r.completed_at, r.core, r.token));
        records
    }

    /// Per-op-kind completion-latency histograms merged across all cores
    /// (empty unless op-latency tracing is installed via
    /// [`System::set_trace`]). Histograms keep
    /// counting after the bounded record logs fill, so the percentiles
    /// cover every completion of the run.
    pub fn latency_histograms(
        &self,
    ) -> std::collections::BTreeMap<&'static str, crate::trace::LatencyHistogram> {
        let mut out = std::collections::BTreeMap::new();
        for lsu in &self.lsus {
            if let Some(t) = lsu.trace() {
                for (kind, h) in t.histograms() {
                    out.entry(*kind)
                        .or_insert_with(crate::trace::LatencyHistogram::new)
                        .merge(h);
                }
            }
        }
        out
    }

    /// Clears every core's trace log.
    pub fn clear_traces(&mut self) {
        for lsu in &mut self.lsus {
            lsu.clear_trace();
        }
    }

    /// Builds and installs one fresh sink per component (the
    /// [`System::set_trace`] event-side install path).
    fn install_event_sinks(&mut self, capacity: usize, filter: TraceFilter) {
        let sink = || TraceSink::with_filter(capacity, filter);
        self.engine_sink = Some(sink());
        for i in 0..self.cfg.cores {
            self.lsus[i].set_event_trace(sink());
            self.l1s[i].set_trace(sink());
            self.l1s[i].set_flush_trace(sink());
            self.a[i].set_trace(i, sink());
            self.b[i].set_trace(i, sink());
            self.c[i].set_trace(i, sink());
            self.d[i].set_trace(i, sink());
            self.e[i].set_trace(i, sink());
        }
        self.l2.set_trace(sink());
        self.dram.set_trace(sink());
    }

    /// Uninstalls every event sink (event tracing returns to its
    /// zero-overhead disabled state; buffered events are discarded). Any
    /// op-latency tracing stays installed — equivalent to
    /// `set_trace(sys.trace_config().without_events())`.
    pub fn disable_event_trace(&mut self) {
        self.trace_cfg = self.trace_cfg.without_events();
        self.uninstall_event_sinks();
    }

    /// Drops every component's event sink (the [`System::set_trace`]
    /// event-side uninstall path).
    fn uninstall_event_sinks(&mut self) {
        self.engine_sink = None;
        for i in 0..self.cfg.cores {
            self.lsus[i].take_event_trace();
            self.l1s[i].take_trace();
            self.l1s[i].take_flush_trace();
            self.a[i].take_trace();
            self.b[i].take_trace();
            self.c[i].take_trace();
            self.d[i].take_trace();
            self.e[i].take_trace();
        }
        self.l2.take_trace();
        self.dram.take_trace();
    }

    /// Discards all buffered events, keeping the sinks installed. Sequence
    /// counters keep running, so orderings stay stable across clears.
    pub fn clear_event_trace(&mut self) {
        if let Some(s) = self.engine_sink.as_mut() {
            s.clear();
        }
        for i in 0..self.cfg.cores {
            if let Some(s) = self.lsus[i].event_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.l1s[i].trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.l1s[i].flush_trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.a[i].trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.b[i].trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.c[i].trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.d[i].trace_sink_mut() {
                s.clear();
            }
            if let Some(s) = self.e[i].trace_sink_mut() {
                s.clear();
            }
        }
        if let Some(s) = self.l2.trace_sink_mut() {
            s.clear();
        }
        if let Some(s) = self.dram.trace_sink_mut() {
            s.clear();
        }
    }

    /// Number of event-stream tracks: the engine, eight per core (LSU, L1
    /// front end, flush unit, links A–E), the L2, and DRAM. `order` values
    /// in [`System::trace_events`] index this fixed enumeration.
    fn track_count(&self) -> u32 {
        1 + 8 * self.cfg.cores as u32 + 2
    }

    /// Harvests every sink into one deterministic stream ordered by
    /// `(cycle, track, seq)` where `track` follows a fixed component
    /// enumeration (engine; per core LSU, L1, flush unit, links A–E; L2;
    /// DRAM). Under the engine-invariance contract the stream — with
    /// [`TraceEvent::is_engine_event`] markers filtered out — is identical
    /// between the naive and fast-forward engines.
    pub fn trace_events(&self) -> Vec<StreamEvent> {
        fn harvest(out: &mut Vec<StreamEvent>, order: u32, sink: Option<&TraceSink>) {
            if let Some(s) = sink {
                out.extend(s.events().map(|e| StreamEvent {
                    cycle: e.cycle,
                    order,
                    seq: e.seq,
                    event: e.event,
                }));
            }
        }
        let mut out = Vec::new();
        harvest(&mut out, 0, self.engine_sink.as_ref());
        for i in 0..self.cfg.cores {
            let base = 1 + 8 * i as u32;
            harvest(&mut out, base, self.lsus[i].event_sink());
            harvest(&mut out, base + 1, self.l1s[i].trace_sink());
            harvest(&mut out, base + 2, self.l1s[i].flush_trace_sink());
            harvest(&mut out, base + 3, self.a[i].trace_sink());
            harvest(&mut out, base + 4, self.b[i].trace_sink());
            harvest(&mut out, base + 5, self.c[i].trace_sink());
            harvest(&mut out, base + 6, self.d[i].trace_sink());
            harvest(&mut out, base + 7, self.e[i].trace_sink());
        }
        harvest(&mut out, self.track_count() - 2, self.l2.trace_sink());
        harvest(&mut out, self.track_count() - 1, self.dram.trace_sink());
        skipit_trace::merge_streams(out)
    }

    /// Total events dropped by ring-buffer bounds across all sinks (a
    /// nonzero value means the exported timeline has holes; enlarge the
    /// capacity passed to [`System::set_trace`]).
    pub fn trace_events_dropped(&self) -> u64 {
        let mut dropped = self.engine_sink.as_ref().map_or(0, |s| s.dropped());
        for i in 0..self.cfg.cores {
            for s in [
                self.lsus[i].event_sink(),
                self.l1s[i].trace_sink(),
                self.l1s[i].flush_trace_sink(),
                self.a[i].trace_sink(),
                self.b[i].trace_sink(),
                self.c[i].trace_sink(),
                self.d[i].trace_sink(),
                self.e[i].trace_sink(),
            ]
            .into_iter()
            .flatten()
            {
                dropped += s.dropped();
            }
        }
        dropped += self.l2.trace_sink().map_or(0, |s| s.dropped());
        dropped += self.dram.trace_sink().map_or(0, |s| s.dropped());
        dropped
    }

    /// Cumulative messages pushed per channel (`'A'`–`'E'`) and core, for
    /// the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics on a channel letter outside `'A'`–`'E'`.
    pub fn link_pushed(&self, channel: char, core: usize) -> u64 {
        match channel {
            'A' => self.a[core].pushed(),
            'B' => self.b[core].pushed(),
            'C' => self.c[core].pushed(),
            'D' => self.d[core].pushed(),
            'E' => self.e[core].pushed(),
            _ => panic!("unknown TileLink channel {channel:?}"),
        }
    }

    /// Cumulative messages popped per channel (`'A'`–`'E'`) and core, for
    /// the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics on a channel letter outside `'A'`–`'E'`.
    pub fn link_popped(&self, channel: char, core: usize) -> u64 {
        match channel {
            'A' => self.a[core].popped(),
            'B' => self.b[core].popped(),
            'C' => self.c[core].popped(),
            'D' => self.d[core].popped(),
            'E' => self.e[core].popped(),
            _ => panic!("unknown TileLink channel {channel:?}"),
        }
    }

    /// Advances the system by one cycle.
    pub fn tick(&mut self) {
        self.tick_full(&mut []);
    }

    /// [`System::tick`] with the thread-mode workers of the running
    /// [`crate::workload::Threads`] run (empty outside one).
    fn tick_full(&mut self, workers: &mut [Worker<'_>]) {
        self.poll_telemetry();
        // A full sweep may step components the wheel believed idle, so its
        // due bounds are stale afterwards.
        self.wheel.valid = false;
        let now = self.now;
        {
            let mut ports = L2Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
                mem: &mut self.dram,
            };
            self.l2.step(now, &mut ports);
        }
        for i in 0..self.cfg.cores {
            let mut ports = skipit_dcache::L1Ports {
                a: &mut self.a[i],
                b: &mut self.b[i],
                c: &mut self.c[i],
                d: &mut self.d[i],
                e: &mut self.e[i],
            };
            self.l1s[i].step(now, &mut ports);
            self.lsus[i].step(now, &mut self.l1s[i]);
        }
        self.step_frontends(workers);
        self.now += 1;
    }

    /// Which components have work at the current cycle. Computed before the
    /// tick, from the same conservative per-component predicates as
    /// [`System::next_event`], so a cleared gate proves the component's step
    /// would be a no-op and can be skipped outright.
    fn plan_tick(&self) -> TickPlan {
        let now = self.now;
        let mut plan = TickPlan::default();
        let arrived = |t: Option<u64>| t.is_some_and(|t| t <= now);
        for i in 0..self.cfg.cores {
            // A future C/E/A head arrival gates the L2 (the consumer) *and*
            // the sending core: the pop frees a slot that a blocked L1
            // sender can use the same cycle (L2 steps first in tick order).
            match self.c[i].next_ready() {
                Some(t) if t <= now => plan.l2 = true,
                Some(t) => plan.merge_future(t, true, 1 << i, false),
                None => {}
            }
            match self.e[i].next_ready() {
                Some(t) if t <= now => plan.l2 = true,
                Some(t) => plan.merge_future(t, true, 1 << i, false),
                None => {}
            }
            match self.a[i].next_ready() {
                // An arrived Acquire is only an event while the L2 can sink
                // it; the L2 transition clearing the backpressure is evented
                // on its own and re-raises the head.
                Some(t) if t <= now => {
                    if let Some(&ChannelA::AcquireBlock { addr, .. }) = self.a[i].peek(now) {
                        if self.l2.can_accept_acquire(addr) {
                            plan.l2 = true;
                        }
                    }
                }
                Some(t) => plan.merge_future(t, true, 1 << i, false),
                None => {}
            }
        }
        match self.l2.next_event(now, &self.dram, &self.b, &self.d) {
            Some(t) if t <= now => plan.l2 = true,
            Some(t) => plan.merge_future(t, true, 0, false),
            None => {}
        }
        match self.dram.next_event(now) {
            Some(t) if t <= now => plan.l2 = true,
            Some(t) => plan.merge_future(t, true, 0, false),
            None => {}
        }
        // With zero-latency links an L2 push can arrive the same cycle the
        // receiving L1 steps (L2 runs first in tick order), so the pre-tick
        // gates cannot see it; wake every core whenever the L2 runs.
        let l2_wakes_cores = plan.l2 && self.cfg.link_latency == 0;
        for i in 0..self.cfg.cores {
            let mut gate = l2_wakes_cores;
            match self.d[i].next_ready() {
                Some(t) if t <= now => gate = true,
                Some(t) => plan.merge_future(t, false, 1 << i, false),
                None => {}
            }
            match self.b[i].next_ready() {
                // The L1 pops a probe only while its probe unit is idle; a
                // busy probe unit reports its own progress below.
                Some(t) if t <= now => gate |= self.l1s[i].probe_rdy(),
                Some(t) => plan.merge_future(t, false, 1 << i, false),
                None => {}
            }
            // Link heads the L2 will pop this cycle (it steps before the
            // L1s) free a slot a blocked L1 sender can use the same cycle.
            let a_rdy = self.a[i].can_push() || arrived(self.a[i].next_ready());
            let c_rdy = self.c[i].can_push() || arrived(self.c[i].next_ready());
            let e_rdy = self.e[i].can_push() || arrived(self.e[i].next_ready());
            match self.l1s[i].next_event(now, a_rdy, c_rdy, e_rdy) {
                Some(t) if t <= now => gate = true,
                Some(t) => plan.merge_future(t, false, 1 << i, false),
                None => {}
            }
            match self.lsus[i].next_event(now, &self.l1s[i]) {
                Some(t) if t <= now => gate = true,
                Some(t) => plan.merge_future(t, false, 1 << i, false),
                None => {}
            }
            if gate {
                plan.cores |= 1 << i;
            }
            match self.frontend_next_event(i) {
                Some(t) if t <= now => plan.frontend = true,
                Some(t) => plan.merge_future(t, false, 0, true),
                None => {}
            }
        }
        plan
    }

    /// Executes one cycle stepping only the components whose
    /// [`System::plan_tick`] gate fired. Frontends always run: they are
    /// cheap, and a worker poll must not be deferred. Produces exactly
    /// the state the full [`System::tick`] sweep would — skipped components
    /// have no due event, no consumable link head, and no freed output slot,
    /// so their step functions could only fall through.
    fn tick_gated(&mut self, plan: &TickPlan, workers: &mut [Worker<'_>]) {
        self.poll_telemetry();
        self.wheel.valid = false;
        self.engine.component_slots += 1 + self.cfg.cores as u64;
        self.engine.component_steps += plan.l2 as u64 + u64::from(plan.cores.count_ones());
        let now = self.now;
        if plan.l2 {
            let mut ports = L2Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
                mem: &mut self.dram,
            };
            self.l2.step(now, &mut ports);
        }
        for i in 0..self.cfg.cores {
            if plan.cores & (1 << i) != 0 {
                let mut ports = skipit_dcache::L1Ports {
                    a: &mut self.a[i],
                    b: &mut self.b[i],
                    c: &mut self.c[i],
                    d: &mut self.d[i],
                    e: &mut self.e[i],
                };
                self.l1s[i].step(now, &mut ports);
                self.lsus[i].step(now, &mut self.l1s[i]);
            }
        }
        self.step_frontends(workers);
        self.now += 1;
    }

    /// One step of the configured engine toward `done`, which run loops
    /// re-check after every clock movement. Returns `true` when `done`
    /// holds — crucially also right after a fast-forward jump, *before* the
    /// tick at the jump target, because termination predicates such as a
    /// trailing Nop's expiry are conditions on `now` (the naive engine
    /// observes every cycle; the fast engines must observe the jump target
    /// before executing it).
    fn step_engine<F: Fn(&Self) -> bool>(&mut self, workers: &mut [Worker<'_>], done: F) -> bool {
        if done(self) {
            return true;
        }
        match self.cfg.engine {
            EngineKind::Naive => {
                self.tick_full(workers);
                false
            }
            EngineKind::GlobalGate => self.step_gated(workers, done),
            // The parallel wheel shares the serial wheel's scheduling (jump
            // planning, due bookkeeping, oracle); only the intra-cycle core
            // phase inside `tick_wheel` differs.
            EngineKind::ComponentWheel | EngineKind::ParallelWheel => {
                self.step_wheel(workers, done)
            }
        }
    }

    /// Accounts a full-sweep [`System::tick`] executed by a fast engine's
    /// fallback path (every slot burned, nothing skipped), then runs it.
    fn tick_full_accounted(&mut self, workers: &mut [Worker<'_>]) {
        let slots = 1 + self.cfg.cores as u64;
        self.engine.component_slots += slots;
        self.engine.component_steps += slots;
        self.tick_full(workers);
    }

    /// One step of the [`EngineKind::GlobalGate`] engine (PR 1): plan the
    /// cycle, jump over a globally idle window, and execute busy cycles
    /// through [`System::tick_gated`] — only the components whose gate fires
    /// are stepped, everything else is provably a no-op this cycle (same
    /// argument as the idle-window jump, applied per component).
    ///
    /// The saturation backoff that used to live here is retired: the
    /// component wheel makes planned-but-busy cycles cheap instead of
    /// wasted, and keeping this engine deterministic in its per-cycle work
    /// makes the three-way equivalence suite sharper.
    fn step_gated<F: Fn(&Self) -> bool>(&mut self, workers: &mut [Worker<'_>], done: F) -> bool {
        let plan = self.plan_tick();
        if plan.any() {
            self.tick_gated(&plan, workers);
            return false;
        }
        match plan.bound {
            Some(t) if t > self.now => {
                let window = t - self.now;
                self.engine.skipped_cycles += window;
                self.engine.jumps += 1;
                self.engine.component_slots += (1 + self.cfg.cores as u64) * window;
                skipit_trace::trace!(
                    self.engine_sink,
                    self.now,
                    TraceEvent::FastForwardJump {
                        from: self.now,
                        to: t,
                        l2: plan.bound_l2,
                        cores: plan.bound_cores,
                        frontend: plan.bound_frontend,
                    }
                );
                if self.cfg.lockstep_oracle {
                    self.verify_window(t, workers);
                } else {
                    self.now = t;
                }
                // Sample boundaries the jump crossed before `done` can end
                // the run (no state changed inside the window, so the
                // current counters are each boundary's counters).
                self.poll_telemetry();
                if done(self) {
                    return true;
                }
                // No state changed during the jump, so the sources recorded
                // at the bound are exactly the gates due at the target.
                let mut jump = TickPlan {
                    l2: plan.bound_l2,
                    cores: plan.bound_cores,
                    frontend: plan.bound_frontend,
                    ..TickPlan::default()
                };
                if jump.l2 && self.cfg.link_latency == 0 {
                    jump.cores = (1u64 << self.cfg.cores) - 1;
                }
                self.tick_gated(&jump, workers);
            }
            // Nothing bounds the future: keep the full sweep so the
            // frontends and watchdogs still run.
            _ => self.tick_full_accounted(workers),
        }
        false
    }

    /// (Re)computes every wheel slot's due cycle from scratch. Needed on
    /// entry to a run loop and after any state mutation outside the wheel's
    /// view; steady-state operation re-arms slots incrementally instead.
    fn wheel_rebuild(&mut self) {
        let cores = self.cfg.cores;
        self.wheel.due_comp.resize(cores, NEVER);
        self.wheel.due_fe.resize(cores, NEVER);
        self.wheel.streak_comp.clear();
        self.wheel.streak_comp.resize(cores, 0);
        self.wheel.streak_l2 = 0;
        self.wheel.due_l2 = self.l2_due();
        for i in 0..cores {
            self.wheel.due_comp[i] = self.core_comp_due(i);
            self.wheel.due_fe[i] = self.fe_due(i);
        }
        self.wheel.valid = true;
    }

    /// Self-contained due bound of core `i`'s L1 + LSU slot: the earliest
    /// cycle the pair can change state given only its own timers and the
    /// *current* link endpoints. State changes caused by neighbors acting
    /// later (an L2 push/pop, a frontend enqueue) are injected as wake
    /// edges when they happen, so this bound deliberately ignores them.
    fn core_comp_due(&self, i: usize) -> u64 {
        core_lane_due(
            self.now,
            &self.a[i],
            &self.b[i],
            &self.c[i],
            &self.d[i],
            &self.e[i],
            &self.l1s[i],
            &self.lsus[i],
        )
    }

    /// Self-contained due bound of the L2 + DRAM slot (same wake-edge
    /// caveat as [`System::core_comp_due`]).
    fn l2_due(&self) -> u64 {
        let now = self.now;
        let mut due = NEVER;
        for i in 0..self.cfg.cores {
            if let Some(t) = self.c[i].next_ready() {
                due = due.min(t);
            }
            if let Some(t) = self.e[i].next_ready() {
                due = due.min(t);
            }
            // An arrived Acquire is only an event while the L2 can sink
            // it; the L2 transition clearing the backpressure re-raises
            // the head on re-arm.
            match self.a[i].next_ready() {
                Some(t) if t <= now => {
                    if let Some(&ChannelA::AcquireBlock { addr, .. }) = self.a[i].peek(now) {
                        if self.l2.can_accept_acquire(addr) {
                            due = due.min(t);
                        }
                    }
                }
                Some(t) => due = due.min(t),
                None => {}
            }
        }
        if let Some(t) = self.l2.next_event(now, &self.dram, &self.b, &self.d) {
            due = due.min(t);
        }
        if let Some(t) = self.dram.next_event(now) {
            due = due.min(t);
        }
        due
    }

    /// The frontend's due bound as a wheel slot value.
    fn fe_due(&self, i: usize) -> u64 {
        self.frontend_next_event(i).unwrap_or(NEVER)
    }

    /// Executes one cycle stepping only the wheel slots that are due,
    /// re-arming each stepped slot from its own bound and propagating wake
    /// edges to neighbors (the explicit cross-component handoffs of
    /// DESIGN.md §5): an L2 B/D push arms the receiving core at head
    /// arrival (possibly this very cycle — the L2 steps before the L1s,
    /// matching naive tick order); an L2 A/C/E pop frees a sender slot
    /// usable the same cycle; a core's A/C/E push arms the L2 at head
    /// arrival and its B/D pop at the next cycle (the L2 steps first, so it
    /// cannot observe either before then); a frontend enqueue arms its core
    /// for the next cycle. Frontends run every executed cycle: they are
    /// cheap, and a worker poll must not be deferred.
    fn tick_wheel(&mut self, workers: &mut [Worker<'_>]) {
        self.poll_telemetry();
        let mut lap = crate::prof::Timer::start();
        let now = self.now;
        let cores = self.cfg.cores;
        self.engine.component_slots += 1 + cores as u64;
        if self.wheel.due_l2 <= now {
            // Snapshot the receiver-facing link conditions whose *edge
            // transitions* are wake edges: an empty→non-empty B/D means a
            // new head the core's bound has never seen; a full→non-full
            // A/C/E re-opens a slot a blocked sender's bound ignored.
            // (A push behind an existing head leaves the head — and thus
            // the receiver's bound — unchanged; a pop from a non-full link
            // leaves `can_push` true, which the sender's bound already
            // assumed.) A core already due this cycle needs no wake edge —
            // it steps regardless and re-arms from full current state — so
            // its links are not snapshotted at all.
            self.wheel.scratch.clear();
            for i in 0..cores {
                self.wheel.scratch.push(if self.wheel.due_comp[i] > now {
                    [
                        self.b[i].is_empty(),
                        self.d[i].is_empty(),
                        self.a[i].can_push(),
                        self.c[i].can_push(),
                        self.e[i].can_push(),
                    ]
                } else {
                    [false; 5]
                });
            }
            {
                let mut ports = L2Ports {
                    a: &mut self.a,
                    b: &mut self.b,
                    c: &mut self.c,
                    d: &mut self.d,
                    e: &mut self.e,
                    mem: &mut self.dram,
                };
                self.l2.step(now, &mut ports);
            }
            self.engine.component_steps += 1;
            for i in 0..cores {
                if self.wheel.due_comp[i] <= now {
                    continue;
                }
                let [b_empty, d_empty, a_can, c_can, e_can] = self.wheel.scratch[i];
                let mut wake = NEVER;
                if b_empty {
                    if let Some(t) = self.b[i].next_ready() {
                        wake = wake.min(t);
                    }
                }
                if d_empty {
                    if let Some(t) = self.d[i].next_ready() {
                        wake = wake.min(t);
                    }
                }
                if (!a_can && self.a[i].can_push())
                    || (!c_can && self.c[i].can_push())
                    || (!e_can && self.e[i].can_push())
                {
                    // The freed slot is usable this very cycle: the L2
                    // steps before the L1s, matching naive tick order.
                    wake = now;
                }
                if wake != NEVER {
                    let wake = wake.max(now);
                    if wake < self.wheel.due_comp[i] {
                        // A genuinely sleeping slot is being rescued: its
                        // first post-wake steps should probe their real
                        // bound eagerly. (A busy slot already due next
                        // cycle keeps its streak — B/D heads churn every
                        // cycle in a burst, and resetting here would defeat
                        // the probe hysteresis.)
                        self.wheel.due_comp[i] = wake;
                        self.wheel.streak_comp[i] = 0;
                    }
                }
            }
            self.wheel.streak_l2 += 1;
            let streak = self.wheel.streak_l2;
            self.wheel.due_l2 =
                if streak <= WHEEL_EAGER_PROBES || streak.is_multiple_of(WHEEL_PROBE_PERIOD) {
                    let due = self.l2_due().max(now + 1);
                    if due > now + 1 {
                        self.wheel.streak_l2 = 0;
                    }
                    due
                } else {
                    now + 1
                };
        }
        lap.lap(&mut self.engine.phase.serial_ns);
        // Mirror guard: wake edges toward the L2 can never arrive before
        // `now + 1` (the L2 steps first), so when the L2 is already due by
        // then the edge scan below is skipped entirely.
        let l2_sleeping = self.wheel.due_l2 > now + 1;
        let l2_wake = if self.cfg.engine == EngineKind::ParallelWheel {
            self.core_phase_parallel(now, l2_sleeping)
        } else {
            let mut wake = NEVER;
            for i in 0..cores {
                if self.wheel.due_comp[i] <= now {
                    wake = wake.min(self.step_core_slot(i, now, l2_sleeping));
                    self.engine.component_steps += 1;
                    self.wheel.due_fe[i] = self.fe_due(i).max(now + 1);
                }
            }
            wake
        };
        if l2_wake != NEVER {
            let l2_wake = l2_wake.max(now + 1);
            if l2_wake < self.wheel.due_l2 {
                self.wheel.due_l2 = l2_wake;
                self.wheel.streak_l2 = 0;
            }
        }
        lap.lap(&mut self.engine.phase.core_ns);
        let (enqueued, active) = self.step_frontends(workers);
        let mut m = active;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            self.wheel.due_fe[i] = self.fe_due(i).max(now + 1);
        }
        let mut m = enqueued;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if now + 1 < self.wheel.due_comp[i] {
                self.wheel.due_comp[i] = now + 1;
                self.wheel.streak_comp[i] = 0;
            }
        }
        lap.lap(&mut self.engine.phase.frontend_ns);
        self.now += 1;
    }

    /// Steps one due core slot (L1 + LSU + the five per-core link
    /// endpoints) and re-arms its due bound; returns the slot's wake edge
    /// toward the L2 ([`NEVER`] when none). The borrow split into a
    /// [`CoreLane`] is exactly the state partition the parallel engine
    /// hands each worker thread, so serial and parallel stepping share one
    /// body by construction.
    fn step_core_slot(&mut self, i: usize, now: u64, l2_sleeping: bool) -> u64 {
        step_core_lane(
            now,
            l2_sleeping,
            CoreLane {
                a: &mut self.a[i],
                b: &mut self.b[i],
                c: &mut self.c[i],
                d: &mut self.d[i],
                e: &mut self.e[i],
                l1: &mut self.l1s[i],
                lsu: &mut self.lsus[i],
                due: &mut self.wheel.due_comp[i],
                streak: &mut self.wheel.streak_comp[i],
            },
        )
    }

    /// The parallel engine's core phase: lists the due core slots, steps
    /// them on the thread pool (strided partition, one exclusive
    /// [`CoreLane`] per slot), and commits the staged wake edges at the
    /// barrier. Falls back to serial stepping below [`PARALLEL_MIN_DUE`]
    /// due slots or when only one thread resolved. Returns the merged
    /// core→L2 wake edge.
    ///
    /// Bit-identity with the serial core loop holds because the loop's
    /// only cross-slot dataflow is commutative: per-slot state (L1, LSU,
    /// links, due/streak bookkeeping, trace sinks, perturbation counters)
    /// is touched by exactly one thread, the wake edges merge by `min`,
    /// and the step counter by sum. The frontend due re-arms move after
    /// the barrier — value-identical, since stepping core `j` never
    /// touches core `i`'s frontend or LSU.
    fn core_phase_parallel(&mut self, now: u64, l2_sleeping: bool) -> u64 {
        let cores = self.cfg.cores;
        let mut due_list = std::mem::take(&mut self.wheel.par_due);
        due_list.clear();
        for i in 0..cores {
            if self.wheel.due_comp[i] <= now {
                due_list.push(i as u32);
            }
        }
        let n = due_list.len();
        let threads = if n >= PARALLEL_MIN_DUE {
            self.ensure_pool().min(n)
        } else {
            1
        };
        let wake = if threads <= 1 {
            let mut wake = NEVER;
            for &i in &due_list {
                wake = wake.min(self.step_core_slot(i as usize, now, l2_sleeping));
            }
            wake
        } else {
            self.wheel.wake_stage.reset(cores);
            let ctx = ParCoreCtx {
                a: self.a.as_mut_ptr(),
                b: self.b.as_mut_ptr(),
                c: self.c.as_mut_ptr(),
                d: self.d.as_mut_ptr(),
                e: self.e.as_mut_ptr(),
                l1s: self.l1s.as_mut_ptr(),
                lsus: self.lsus.as_mut_ptr(),
                due_comp: self.wheel.due_comp.as_mut_ptr(),
                streak_comp: self.wheel.streak_comp.as_mut_ptr(),
                wake: self.wheel.wake_stage.lanes_mut().as_mut_ptr(),
                due_list: due_list.as_ptr(),
                n,
                threads,
                now,
                l2_sleeping,
            };
            // Taking the pool out keeps the dispatch free of any live
            // borrow of `self` while worker threads mutate core slots
            // through `ctx`'s raw pointers.
            let pool = self.pool.take().expect("ensure_pool installed the pool");
            pool.run(&|slot| {
                let mut k = slot;
                while k < ctx.n {
                    // SAFETY: the strided partition visits each index of
                    // `due_list` exactly once across all slots, and
                    // `due_list` holds distinct core indices — every lane
                    // is touched by exactly one thread.
                    unsafe { ctx.step(k) };
                    k += ctx.threads;
                }
            });
            self.pool = Some(pool);
            self.wheel.wake_stage.commit()
        };
        // Post-barrier bookkeeping in fixed slot order.
        self.engine.component_steps += n as u64;
        for &i in &due_list {
            let i = i as usize;
            self.wheel.due_fe[i] = self.fe_due(i).max(now + 1);
        }
        self.wheel.par_due = due_list;
        wake
    }

    /// Creates the thread pool on first use and returns its thread count.
    /// Resolution order: [`SystemConfig::engine_threads`] if nonzero, else
    /// `SKIPIT_ENGINE_THREADS` (panicking on unparseable or zero values),
    /// else the host's available parallelism; always clamped to the core
    /// count. The environment is read once per [`System`].
    fn ensure_pool(&mut self) -> usize {
        if self.pool.is_none() {
            let requested = if self.cfg.engine_threads > 0 {
                self.cfg.engine_threads
            } else {
                match std::env::var("SKIPIT_ENGINE_THREADS") {
                    Ok(v) => crate::pool::parse_threads_env("SKIPIT_ENGINE_THREADS", &v),
                    Err(_) => std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                }
            };
            self.pool = Some(crate::pool::WheelPool::new(requested.min(self.cfg.cores)));
        }
        self.pool.as_ref().unwrap().threads()
    }

    /// One step of the [`EngineKind::ComponentWheel`] engine: jump the
    /// clock to the earliest due slot, then execute that cycle stepping
    /// only the due slots. Under [`SystemConfig::lockstep_oracle`], every
    /// jumped window is naively re-verified *and* every skipped slot's due
    /// bound is recomputed from scratch each executed cycle — a component
    /// that would have acted while its slot claimed idle panics.
    fn step_wheel<F: Fn(&Self) -> bool>(&mut self, workers: &mut [Worker<'_>], done: F) -> bool {
        if !self.wheel.valid {
            self.wheel_rebuild();
        }
        let target = self.wheel.next_due();
        if target == NEVER {
            // Nothing bounds the future: full sweep so the frontends and
            // watchdogs still run. `tick` invalidates the wheel; the next
            // step rebuilds.
            self.tick_full_accounted(workers);
            return false;
        }
        if target > self.now {
            let window = target - self.now;
            self.engine.skipped_cycles += window;
            self.engine.jumps += 1;
            self.engine.component_slots += (1 + self.cfg.cores as u64) * window;
            if skipit_trace::TRACE_COMPILED && self.engine_sink.is_some() {
                let mut cores_mask = 0u64;
                let mut frontend = false;
                for i in 0..self.cfg.cores {
                    if self.wheel.due_comp[i] == target {
                        cores_mask |= 1 << i;
                    }
                    frontend |= self.wheel.due_fe[i] == target;
                }
                skipit_trace::trace!(
                    self.engine_sink,
                    self.now,
                    TraceEvent::FastForwardJump {
                        from: self.now,
                        to: target,
                        l2: self.wheel.due_l2 == target,
                        cores: cores_mask,
                        frontend,
                    }
                );
            }
            if self.cfg.lockstep_oracle {
                self.verify_window(target, workers);
                // `verify_window` ticks naively, invalidating the wheel —
                // but it also proved no state changed, so a rebuild
                // reproduces (at worst tightens) the due values.
                self.wheel_rebuild();
            } else {
                self.now = target;
            }
            // Sample boundaries the jump crossed before `done` can end the
            // run (window is state-change-free, so current counters are
            // each boundary's counters).
            self.poll_telemetry();
            if done(self) {
                return true;
            }
        }
        if self.cfg.lockstep_oracle {
            self.oracle_check_wheel();
        }
        self.tick_wheel(workers);
        false
    }

    /// Component-granular half of the lockstep oracle: on an executed
    /// cycle, any slot the wheel is about to skip must also be not-due per
    /// a from-scratch recomputation of its bound. Catches missed wake
    /// edges (a neighbor handed the component work without re-arming it)
    /// at the cycle they would first diverge from the naive engine.
    fn oracle_check_wheel(&self) {
        let now = self.now;
        if self.wheel.due_l2 > now {
            assert!(
                self.l2_due() > now,
                "lockstep oracle: L2 slot skipped at cycle {now} but its \
                 recomputed bound is due (missed wake edge)"
            );
        }
        for i in 0..self.cfg.cores {
            if self.wheel.due_comp[i] > now {
                assert!(
                    self.core_comp_due(i) > now,
                    "lockstep oracle: core {i} slot skipped at cycle {now} \
                     but its recomputed bound is due (missed wake edge)"
                );
            }
            if self.wheel.due_fe[i] > now {
                assert!(
                    self.fe_due(i) > now,
                    "lockstep oracle: frontend {i} slot skipped at cycle \
                     {now} but its recomputed bound is due (missed wake edge)"
                );
            }
        }
    }

    /// One step of the event-driven engine (see DESIGN.md §5 "Clocking"):
    /// if no component reports work at the current cycle, jump the clock
    /// straight to the minimum [`System::next_event`] bound, then execute a
    /// normal [`System::tick`] there. When nothing bounds the future (every
    /// component is blocked on an external command), falls back to a plain
    /// tick so watchdogs and frontends still run.
    pub fn tick_fast(&mut self) {
        self.fast_forward_clock();
        self.tick();
    }

    /// Advances the clock (without ticking) to the next-event bound if it
    /// lies in the future; returns whether the clock moved. Skipped cycles
    /// are provably idle: no component state can change within the window,
    /// which [`SystemConfig::lockstep_oracle`] re-verifies cycle by cycle.
    pub fn fast_forward_clock(&mut self) -> bool {
        match self.next_event() {
            Some(t) if t > self.now => {
                self.engine.skipped_cycles += t - self.now;
                self.engine.jumps += 1;
                self.engine.component_slots += (1 + self.cfg.cores as u64) * (t - self.now);
                // This path plans no per-component gates, so the jump
                // carries no attribution.
                skipit_trace::trace!(
                    self.engine_sink,
                    self.now,
                    TraceEvent::FastForwardJump {
                        from: self.now,
                        to: t,
                        l2: false,
                        cores: 0,
                        frontend: false,
                    }
                );
                if self.cfg.lockstep_oracle {
                    self.verify_window(t, &mut []);
                } else {
                    self.now = t;
                }
                self.poll_telemetry();
                true
            }
            _ => false,
        }
    }

    /// Lockstep oracle: instead of trusting a claimed idle window
    /// `[self.now, target)`, run it with the naive engine and panic on the
    /// first cycle whose state — components, links, statistics, frontends,
    /// everything but the clock — differs from the window start.
    fn verify_window(&mut self, target: u64, workers: &mut [Worker<'_>]) {
        let reference = self.state_bytes();
        while self.now < target {
            self.tick_full(workers);
            assert!(
                self.state_bytes() == reference,
                "lockstep oracle: state changed at cycle {} inside a window \
                 the fast engine claimed idle (next event {})",
                self.now - 1,
                target
            );
        }
    }

    /// Hash of every piece of simulated state except the clock, used by
    /// engine-equivalence tests to compare whole machines (the bytes it
    /// hashes are what the lockstep oracle compares inside a claimed-idle
    /// window).
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.state_bytes().hash(&mut h);
        h.finish()
    }

    /// Every piece of simulated state except the clock, as bytes. The
    /// snapshot codec (DESIGN.md §11) covers the deep state (queues,
    /// arrays, MSHRs, stats) and collapses never-touched cache ways to a
    /// flag byte, so the cost follows the touched state rather than the
    /// full arrays; frontends are summarized by hand (their issue position
    /// and timers; a thread-mode worker's future is host state).
    fn state_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, fe) in self.frontends.iter().enumerate() {
            match fe {
                Frontend::Idle => {
                    let _ = write!(s, "[{i} idle]");
                }
                Frontend::Program {
                    next, nop_until, ..
                } => {
                    let _ = write!(s, "[{i} prog {next} {nop_until}]");
                }
                Frontend::Thread {
                    busy,
                    nop_until,
                    finished,
                    ..
                } => {
                    let _ = write!(s, "[{i} thr {busy:?} {nop_until:?} {finished}]");
                }
                Frontend::Replay {
                    next,
                    nop_until,
                    base,
                    ..
                } => {
                    let _ = write!(s, "[{i} rpl {next} {nop_until} {base}]");
                }
            }
        }
        let mut w = SnapWriter::new();
        s.encode(&mut w);
        self.next_token.encode(&mut w);
        self.encode_components(&mut w);
        w.into_bytes()
    }

    /// Conservative lower bound on the earliest cycle at which any component
    /// can change state on its own — the fast engine's jump target. Each
    /// subsystem answers for itself (`Link::next_ready`, `Dram::next_event`,
    /// the cache/LSU/L2 `next_event` methods, the frontend summary below);
    /// `None` means only an external worker command can create work.
    ///
    /// Channel A gets special treatment: an *arrived* Acquire is only an
    /// event while the L2 can sink it. While it is back-pressured (per-line
    /// MSHR conflict or MSHR exhaustion), the L2 transition that clears the
    /// conflict is itself evented, and re-evaluation after that tick
    /// re-raises the Acquire. Channel B is gated symmetrically: the L1 pops
    /// a probe only while its probe unit is idle, and a busy probe unit
    /// reports its own progress (or its blockers are evented elsewhere).
    ///
    /// Any event due *now* is the global minimum, so the scan returns
    /// immediately — on the common busy cycle this skips most of the walk.
    pub fn next_event(&self) -> Option<u64> {
        let now = self.now;
        let mut next: Option<u64> = None;
        let merge = |next: &mut Option<u64>, t: u64| {
            *next = Some(next.map_or(t, |n| n.min(t)));
        };
        for i in 0..self.cfg.cores {
            if let Some(t) = self.a[i].next_ready() {
                if t > now {
                    merge(&mut next, t);
                } else if let Some(&ChannelA::AcquireBlock { addr, .. }) = self.a[i].peek(now) {
                    if self.l2.can_accept_acquire(addr) {
                        return Some(now);
                    }
                }
            }
            if let Some(t) = self.b[i].next_ready() {
                if t > now {
                    merge(&mut next, t);
                } else if self.l1s[i].probe_rdy() {
                    return Some(now);
                }
            }
            for t in [
                self.c[i].next_ready(),
                self.d[i].next_ready(),
                self.e[i].next_ready(),
            ]
            .into_iter()
            .flatten()
            {
                if t <= now {
                    return Some(now);
                }
                merge(&mut next, t);
            }
            if let Some(t) = self.l1s[i].next_event(
                now,
                self.a[i].can_push(),
                self.c[i].can_push(),
                self.e[i].can_push(),
            ) {
                if t <= now {
                    return Some(now);
                }
                merge(&mut next, t);
            }
            if let Some(t) = self.lsus[i].next_event(now, &self.l1s[i]) {
                if t <= now {
                    return Some(now);
                }
                merge(&mut next, t);
            }
            if let Some(t) = self.frontend_next_event(i) {
                if t <= now {
                    return Some(now);
                }
                merge(&mut next, t);
            }
        }
        if let Some(t) = self.l2.next_event(now, &self.dram, &self.b, &self.d) {
            if t <= now {
                return Some(now);
            }
            merge(&mut next, t);
        }
        if let Some(t) = self.dram.next_event(now) {
            if t <= now {
                return Some(now);
            }
            merge(&mut next, t);
        }
        next
    }

    /// The frontend's contribution to the next-event bound. `None` means
    /// only an LSU completion (evented through the cache) can wake it.
    fn frontend_next_event(&self, i: usize) -> Option<u64> {
        let now = self.now;
        match &self.frontends[i] {
            Frontend::Idle => None,
            Frontend::Program {
                ops,
                next,
                nop_until,
            } => {
                if *next >= ops.len() {
                    // Nothing left to issue, but a trailing Nop delay still
                    // has to elapse before `program_done` holds.
                    return (now < *nop_until).then_some(*nop_until);
                }
                if now < *nop_until {
                    return Some(*nop_until);
                }
                match ops[*next] {
                    Op::Nop { .. } => Some(now),
                    op => self.lsus[i].has_room(op).then_some(now),
                }
            }
            Frontend::Thread {
                busy,
                nop_until,
                finished,
                ..
            } => {
                if *finished {
                    return None;
                }
                if let Some(tok) = *busy {
                    return self.lsus[i].has_finished(tok).then_some(now);
                }
                if let Some(until) = *nop_until {
                    return Some(until.max(now));
                }
                // About to poll the worker: its host code takes zero
                // simulated time and must run this cycle.
                Some(now)
            }
            Frontend::Replay {
                ops,
                next,
                nop_until,
                base,
            } => {
                if *next >= ops.len() {
                    return (now < *nop_until).then_some(*nop_until);
                }
                // The head op can only issue once both its recorded cycle
                // and any pending think time have elapsed — the exact gate
                // is the max, so that is the next self-driven event.
                let gate = (*nop_until).max(base + ops[*next].at);
                if now < gate {
                    return Some(gate);
                }
                match ops[*next].op {
                    Op::Nop { .. } => Some(now),
                    op => self.lsus[i].has_room(op).then_some(now),
                }
            }
        }
    }

    /// Steps every frontend (they run each executed cycle regardless of
    /// wheel slots). Returns two per-core bitmasks for the wheel's wake
    /// edges: `enqueued` — cores whose LSU received an op this cycle (the
    /// core slot must run next cycle); `active` — cores whose frontend
    /// changed state at all (its due bound must be recomputed). The naive
    /// and global-gate engines ignore both.
    fn step_frontends(&mut self, workers: &mut [Worker<'_>]) -> (u64, u64) {
        let now = self.now;
        let issue_width = self.cfg.issue_width;
        let deadline = self.deadline;
        let mut enqueued = 0u64;
        let mut active = 0u64;
        // Disjoint field borrows: each frontend is stepped in place instead
        // of being moved out and back every tick.
        let System {
            frontends,
            lsus,
            next_token,
            capture,
            ..
        } = self;
        // Capture mode records every committed op with its issue cycle;
        // recording is observation only and must not influence issue.
        let mut record = |core: usize, op: Op| {
            if let Some(cap) = capture.as_mut() {
                cap.push(CapturedOp {
                    cycle: now,
                    core: core as u32,
                    op,
                });
            }
        };
        for (i, fe) in frontends.iter_mut().enumerate() {
            let bit = 1u64 << i;
            match fe {
                Frontend::Idle => {}
                Frontend::Program {
                    ops,
                    next,
                    nop_until,
                } => {
                    lsus[i].drain_finished();
                    let mut issued = 0;
                    while issued < issue_width && *next < ops.len() && now >= *nop_until {
                        match ops[*next] {
                            Op::Nop { cycles } => {
                                *nop_until = now + cycles;
                                *next += 1;
                                issued += 1;
                                record(i, Op::Nop { cycles });
                            }
                            op => {
                                if !lsus[i].has_room(op) {
                                    break;
                                }
                                let tok = *next_token + 1;
                                *next_token = tok;
                                lsus[i].enqueue(tok, op, now);
                                *next += 1;
                                issued += 1;
                                enqueued |= bit;
                                record(i, op);
                            }
                        }
                    }
                    if issued > 0 {
                        active |= bit;
                    }
                }
                Frontend::Replay {
                    ops,
                    next,
                    nop_until,
                    base,
                } => {
                    lsus[i].drain_finished();
                    let mut issued = 0;
                    while issued < issue_width
                        && *next < ops.len()
                        && now >= *nop_until
                        && now >= *base + ops[*next].at
                    {
                        match ops[*next].op {
                            Op::Nop { cycles } => {
                                *nop_until = now + cycles;
                                *next += 1;
                                issued += 1;
                                record(i, Op::Nop { cycles });
                            }
                            op => {
                                if !lsus[i].has_room(op) {
                                    break;
                                }
                                let tok = *next_token + 1;
                                *next_token = tok;
                                lsus[i].enqueue(tok, op, now);
                                *next += 1;
                                issued += 1;
                                enqueued |= bit;
                                record(i, op);
                            }
                        }
                    }
                    if issued > 0 {
                        active |= bit;
                    }
                }
                Frontend::Thread {
                    busy,
                    nop_until,
                    finished,
                } => {
                    if *finished {
                        continue;
                    }
                    let worker = &mut workers[i];
                    let halted = now >= deadline;
                    // Deliver a completed op's result.
                    if let Some(tok) = *busy {
                        match lsus[i].take_finished(tok) {
                            Some(value) => {
                                *busy = None;
                                worker.deliver(Resp { value, halted });
                            }
                            None => continue,
                        }
                    }
                    if let Some(until) = *nop_until {
                        if now < until {
                            continue;
                        }
                        *nop_until = None;
                        worker.deliver(Resp { value: 0, halted });
                    }
                    // Run the worker up to its next op (its host-side
                    // computation takes zero simulated time).
                    active |= bit;
                    match worker.poll(now, halted) {
                        Some(Op::Nop { cycles }) => {
                            *nop_until = Some(now + cycles);
                            record(i, Op::Nop { cycles });
                        }
                        Some(op) => {
                            let tok = *next_token + 1;
                            *next_token = tok;
                            // Thread mode has at most one op in flight;
                            // room is guaranteed.
                            lsus[i].enqueue(tok, op, now);
                            *busy = Some(tok);
                            enqueued |= bit;
                            record(i, op);
                        }
                        None => {
                            // Capture the worker's return as a zero-cycle
                            // think time: the thread run executes this
                            // cycle to retire the worker, so a replay must
                            // execute it too for the final cycle count to
                            // match (a trailing Nop's expiry alone is a
                            // pure time bound a fast-forward engine can
                            // satisfy without executing the cycle).
                            *finished = true;
                            record(i, Op::Nop { cycles: 0 });
                        }
                    }
                }
            }
        }
        (enqueued, active)
    }

    #[cfg(test)]
    pub(crate) fn debug_event_blame(&self) -> Vec<&'static str> {
        let now = self.now;
        let mut blames = Vec::new();
        for i in 0..self.cfg.cores {
            if self.a[i].next_ready().is_some_and(|t| t <= now) {
                if let Some(&ChannelA::AcquireBlock { addr, .. }) = self.a[i].peek(now) {
                    if self.l2.can_accept_acquire(addr) {
                        blames.push("A");
                    }
                }
            }
            if self.b[i].next_ready().is_some_and(|t| t <= now) && self.l1s[i].probe_rdy() {
                blames.push("B");
            }
            if self.c[i].next_ready().is_some_and(|t| t <= now) {
                blames.push("C");
            }
            if self.d[i].next_ready().is_some_and(|t| t <= now) {
                blames.push("D");
            }
            if self.e[i].next_ready().is_some_and(|t| t <= now) {
                blames.push("E");
            }
            if self.l1s[i]
                .next_event(
                    now,
                    self.a[i].can_push(),
                    self.c[i].can_push(),
                    self.e[i].can_push(),
                )
                .is_some_and(|t| t <= now)
            {
                blames.push("L1");
            }
            if self.lsus[i]
                .next_event(now, &self.l1s[i])
                .is_some_and(|t| t <= now)
            {
                blames.push("LSU");
            }
            if self.frontend_next_event(i).is_some_and(|t| t <= now) {
                blames.push("FE");
            }
        }
        if self
            .l2
            .next_event(now, &self.dram, &self.b, &self.d)
            .is_some_and(|t| t <= now)
        {
            blames.push("L2");
        }
        if self.dram.next_event(now).is_some_and(|t| t <= now) {
            blames.push("DRAM");
        }
        blames
    }

    fn program_done(&self, core: usize) -> bool {
        match &self.frontends[core] {
            Frontend::Idle => true,
            Frontend::Program {
                ops,
                next,
                nop_until,
            } => *next >= ops.len() && self.now >= *nop_until && self.lsus[core].is_empty(),
            Frontend::Thread { finished, .. } => *finished && self.lsus[core].is_empty(),
            Frontend::Replay {
                ops,
                next,
                nop_until,
                ..
            } => *next >= ops.len() && self.now >= *nop_until && self.lsus[core].is_empty(),
        }
    }

    /// Runs any [`Workload`] to completion — the single entry point for
    /// every drive mode. See [`crate::workload`] for the first-party
    /// workloads ([`crate::workload::Programs`],
    /// [`crate::workload::Threads`], [`crate::workload::ReplaySchedule`])
    /// and the [`RunReport`] contract. Callable repeatedly — cache and
    /// memory state persists between runs, which is how benchmarks separate
    /// warm-up from the measured phase.
    ///
    /// ```
    /// use skipit_boom::{Op, Programs, System, SystemConfig};
    ///
    /// let mut sys = System::new(SystemConfig::default());
    /// let cycles = sys
    ///     .run(Programs(vec![vec![
    ///         Op::Store { addr: 0x1000, value: 42 },
    ///         Op::Flush { addr: 0x1000 },
    ///         Op::Fence,
    ///     ]]))
    ///     .cycles;
    /// assert!(cycles > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// As the workload: see its type-level docs.
    pub fn run<W: Workload>(&mut self, workload: W) -> RunReport<W::Output> {
        workload.run(self)
    }

    /// Program mode's engine loop ([`crate::workload::Programs`]).
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied, or if the programs
    /// fail to finish within a watchdog budget (an interlock bug).
    pub(crate) fn run_programs_inner(&mut self, programs: Vec<Vec<Op>>) -> u64 {
        match self.run_programs_observed(programs, |_| Ok::<(), std::convert::Infallible>(())) {
            Ok(cycles) => cycles,
            Err((_, e)) => match e {},
        }
    }

    /// Replay mode's engine loop ([`crate::workload::ReplaySchedule`]):
    /// installs one replay frontend per lane with the current cycle as the
    /// stamp base and steps the engine until every lane has drained.
    ///
    /// # Panics
    ///
    /// Panics if more lanes than cores are supplied, or if the replay fails
    /// to finish within a watchdog budget.
    pub(crate) fn run_replay_inner(&mut self, lanes: Vec<Vec<TimedOp>>) -> u64 {
        assert!(
            lanes.len() <= self.cfg.cores,
            "{} replay lanes for {} cores",
            lanes.len(),
            self.cfg.cores
        );
        let start = self.now;
        self.wheel.valid = false;
        for (i, ops) in lanes.into_iter().enumerate() {
            self.frontends[i] = Frontend::Replay {
                ops,
                next: 0,
                nop_until: 0,
                base: start,
            };
        }
        let watchdog = self.now + 2_000_000_000;
        loop {
            if self.step_engine(&mut [], |s| (0..s.cfg.cores).all(|i| s.program_done(i))) {
                break;
            }
            assert!(self.now < watchdog, "replay run exceeded watchdog budget");
        }
        for fe in &mut self.frontends {
            *fe = Frontend::Idle;
        }
        self.wheel.valid = false;
        self.now - start
    }

    /// Program mode ([`run(Programs(…))`](Self::run)) with a continuous
    /// observer: `observe` is called
    /// at every executed cycle boundary (before the cycle runs, and once more
    /// at completion). Cycles the fast-forward engines skip are provably free
    /// of state changes, so observing only executed boundaries sees every
    /// distinct machine state the run passes through — this is the hook the
    /// exploration harness uses for its always-on invariant oracle and
    /// crash-point snapshots.
    ///
    /// The first `Err(e)` aborts the run (frontends reset to idle) and
    /// returns `Err((cycle, e))` with the cycle at which the observer
    /// rejected the state; otherwise returns `Ok(elapsed_cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied, or if the programs
    /// fail to finish within a watchdog budget (an interlock bug).
    pub fn run_programs_observed<E>(
        &mut self,
        programs: Vec<Vec<Op>>,
        mut observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<u64, (u64, E)> {
        assert!(
            programs.len() <= self.cfg.cores,
            "{} programs for {} cores",
            programs.len(),
            self.cfg.cores
        );
        let start = self.now;
        // Installing frontends mutates state outside the wheel's view.
        self.wheel.valid = false;
        for (i, ops) in programs.into_iter().enumerate() {
            self.frontends[i] = Frontend::Program {
                ops,
                next: 0,
                nop_until: 0,
            };
        }
        let watchdog = self.now + 2_000_000_000;
        let result = loop {
            if let Err(e) = observe(self) {
                break Err((self.now, e));
            }
            if self.step_engine(&mut [], |s| (0..s.cfg.cores).all(|i| s.program_done(i))) {
                break Ok(self.now - start);
            }
            assert!(self.now < watchdog, "program run exceeded watchdog budget");
        };
        for fe in &mut self.frontends {
            *fe = Frontend::Idle;
        }
        self.wheel.valid = false;
        result
    }

    /// Runs the system until every cache and the L2 are quiescent (drains
    /// asynchronous writebacks that no fence waited for).
    pub fn quiesce(&mut self) {
        match self.quiesce_observed(|_| Ok::<(), std::convert::Infallible>(())) {
            Ok(()) => {}
            Err((_, e)) => match e {},
        }
    }

    /// [`Self::quiesce`] with a continuous observer, under the same contract
    /// as [`Self::run_programs_observed`].
    pub fn quiesce_observed<E>(
        &mut self,
        mut observe: impl FnMut(&System) -> Result<(), E>,
    ) -> Result<(), (u64, E)> {
        self.wheel.valid = false;
        let watchdog = self.now + 1_000_000;
        loop {
            if let Err(e) = observe(self) {
                return Err((self.now, e));
            }
            if self.step_engine(&mut [], |s| {
                s.l1s.iter().all(|c| c.is_quiescent()) && s.l2.is_quiescent()
            }) {
                return Ok(());
            }
            assert!(self.now < watchdog, "quiesce exceeded watchdog budget");
        }
    }

    /// Thread mode's engine loop ([`crate::workload::Threads`]): runs one
    /// async closure per core (missing cores idle), each driving its core
    /// through a [`CoreHandle`]; returns `(elapsed_cycles, results,
    /// budget_expired)`. The worker futures live in this frame and are
    /// polled by the frontend step on the calling thread.
    ///
    /// **Budget semantics** (preserved by [`RunReport`]): `budget` is a
    /// *soft* stop measured from the call. Once `budget` cycles have
    /// elapsed, every [`CoreHandle`] response carries `halted = true` and
    /// well-behaved workers wind down — but the run continues until every
    /// worker actually returns, so the elapsed cycles *include* the
    /// post-deadline drain and every worker's result is present in the
    /// returned `Vec` (in worker order). Expiry never truncates results.
    ///
    /// # Panics
    ///
    /// Panics if more workers than cores are supplied; a worker's panic
    /// unwinds through this call with the worker's own message.
    pub(crate) fn run_threads_inner<R, F, Fut>(
        &mut self,
        workers: Vec<F>,
        budget: Option<u64>,
    ) -> (u64, Vec<R>, bool)
    where
        F: FnOnce(CoreHandle) -> Fut,
        Fut: Future<Output = R>,
    {
        assert!(
            workers.len() <= self.cfg.cores,
            "{} workers for {} cores",
            workers.len(),
            self.cfg.cores
        );
        let start = self.now;
        self.wheel.valid = false;
        self.deadline = budget.map_or(u64::MAX, |b| start + b);
        let mut results: Vec<Option<R>> = workers.iter().map(|_| None).collect();
        {
            let mut live: Vec<Worker<'_>> = workers
                .into_iter()
                .zip(results.iter_mut())
                .enumerate()
                .map(|(i, (w, out))| Worker::new(i, w, out))
                .collect();
            for fe in self.frontends.iter_mut().take(live.len()) {
                *fe = Frontend::Thread {
                    busy: None,
                    nop_until: None,
                    finished: false,
                };
            }
            while !self.step_engine(&mut live, |s| (0..s.cfg.cores).all(|i| s.program_done(i))) {}
        }
        let expired = self.deadline != u64::MAX && self.now >= self.deadline;
        for fe in &mut self.frontends {
            *fe = Frontend::Idle;
        }
        self.wheel.valid = false;
        self.deadline = u64::MAX;
        let results = results
            .into_iter()
            .map(|r| r.expect("every thread-mode worker returns before the run ends"))
            .collect();
        (self.now - start, results, expired)
    }
}

// --- snapshot & restore (DESIGN.md §11) ---

use crate::snapshot::Snapshot;
use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

impl Frontend {
    /// Thread-mode frontends stand for live worker futures that no byte
    /// encoding can capture; snapshotting them is a typed error.
    fn encode(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        match self {
            Frontend::Idle => w.put_u8(0),
            Frontend::Program {
                ops,
                next,
                nop_until,
            } => {
                w.put_u8(1);
                ops.encode(w);
                next.encode(w);
                nop_until.encode(w);
            }
            Frontend::Thread { .. } => return Err(SnapError::LiveThreads),
            Frontend::Replay {
                ops,
                next,
                nop_until,
                base,
            } => {
                w.put_u8(2);
                ops.encode(w);
                next.encode(w);
                nop_until.encode(w);
                base.encode(w);
            }
        }
        Ok(())
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(Frontend::Idle),
            1 => {
                let ops = Vec::<Op>::decode(r)?;
                let next = usize::decode(r)?;
                if next > ops.len() {
                    return Err(SnapError::Corrupt("frontend program cursor"));
                }
                Ok(Frontend::Program {
                    ops,
                    next,
                    nop_until: u64::decode(r)?,
                })
            }
            2 => {
                let ops = Vec::<TimedOp>::decode(r)?;
                let next = usize::decode(r)?;
                if next > ops.len() {
                    return Err(SnapError::Corrupt("frontend replay cursor"));
                }
                Ok(Frontend::Replay {
                    ops,
                    next,
                    nop_until: u64::decode(r)?,
                    base: u64::decode(r)?,
                })
            }
            _ => Err(SnapError::Corrupt("frontend tag")),
        }
    }
}

/// Fingerprint of the configuration fields that shape simulated state:
/// geometry, latencies, queue depths and the perturbation setup. The
/// engine choice, thread count and the lockstep oracle are deliberately
/// *excluded* — they are host-side scheduling decisions whose observable
/// behaviour is bit-identical by contract, so a snapshot taken under one
/// engine restores under any other.
fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!(
        "{}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
        cfg.cores,
        cfg.l1,
        cfg.l2,
        cfg.dram,
        cfg.link_latency,
        cfg.link_capacity,
        cfg.issue_width,
        cfg.lsu,
        cfg.perturb
    )
    .hash(&mut h);
    h.finish()
}

impl System {
    /// Captures every piece of simulated state into a versioned,
    /// self-describing [`Snapshot`]: per-core frontends and LSUs, L1
    /// arrays + flush units + MSHRs, all five TileLink links per core, the
    /// L2, DRAM, the clock, token allocator, deadline and engine counters
    /// (including the perturbation draw positions, so a perturbed run
    /// resumes on the exact jitter sequence it would have seen).
    ///
    /// Host-side observation machinery — trace sinks, telemetry, the wheel
    /// scheduler and thread pool — is not captured; [`System::restore`]
    /// rebuilds it from the offered configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::LiveThreads`] if any core is in thread mode (inside a
    /// [`crate::workload::Threads`] run): live worker futures cannot be
    /// encoded. Snapshot between runs, or from program mode's observer hook.
    pub fn snapshot(&self) -> Result<Snapshot, SnapError> {
        let mut w = SnapWriter::new();
        Snapshot::write_header(&mut w, config_fingerprint(&self.cfg));
        w.put_u64(self.cfg.cores as u64);
        self.now.encode(&mut w);
        self.next_token.encode(&mut w);
        self.deadline.encode(&mut w);
        self.engine.encode(&mut w);
        for fe in &self.frontends {
            fe.encode(&mut w)?;
        }
        self.encode_components(&mut w);
        Ok(Snapshot::from_writer(w))
    }

    /// Encodes the hardware: LSUs, L1s, L2, DRAM and every link.
    fn encode_components(&self, w: &mut SnapWriter) {
        for lsu in &self.lsus {
            lsu.encode_state(w);
        }
        for l1 in &self.l1s {
            l1.encode_state(w);
        }
        self.l2.encode_state(w);
        self.dram.encode_state(w);
        for i in 0..self.cfg.cores {
            self.a[i].encode_state(w);
            self.b[i].encode_state(w);
            self.c[i].encode_state(w);
            self.d[i].encode_state(w);
            self.e[i].encode_state(w);
        }
    }

    /// Rebuilds a live system from `snap` under `cfg`. The restored system
    /// is bit-identical to the snapshotted one going forward — same cycle
    /// count, statistics, durable image, state digests and trace streams —
    /// on any engine at any thread count: `cfg` may differ from the
    /// snapshotting configuration in [`SystemConfig::engine`],
    /// [`SystemConfig::engine_threads`] and
    /// [`SystemConfig::lockstep_oracle`] (host-side scheduling choices),
    /// but in nothing that shapes simulated state.
    ///
    /// Tracing and telemetry come up uninstalled (the snapshot carries no
    /// host-side observers); call [`System::set_trace`] afterwards.
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] if `cfg` disagrees with the
    /// snapshot's fingerprint; any other [`SnapError`] for corrupt,
    /// truncated, foreign or wrong-version bytes. Never panics on bad
    /// input.
    pub fn restore(snap: &Snapshot, cfg: &SystemConfig) -> Result<System, SnapError> {
        let mut r = snap.payload_reader()?;
        if r.get_u64()? != config_fingerprint(cfg) {
            return Err(SnapError::ConfigMismatch);
        }
        if r.get_u64()? != cfg.cores as u64 {
            return Err(SnapError::ConfigMismatch);
        }
        let mut sys = System::new(*cfg);
        sys.now = u64::decode(&mut r)?;
        sys.next_token = OpToken::decode(&mut r)?;
        sys.deadline = u64::decode(&mut r)?;
        sys.engine = EngineStats::decode(&mut r)?;
        for fe in &mut sys.frontends {
            *fe = Frontend::decode(&mut r)?;
        }
        for lsu in &mut sys.lsus {
            lsu.decode_state(&mut r)?;
        }
        for l1 in &mut sys.l1s {
            l1.decode_state(&mut r)?;
        }
        sys.l2.decode_state(&mut r)?;
        sys.dram.decode_state(&mut r)?;
        for i in 0..cfg.cores {
            sys.a[i].decode_state(&mut r)?;
            sys.b[i].decode_state(&mut r)?;
            sys.c[i].decode_state(&mut r)?;
            sys.d[i].decode_state(&mut r)?;
            sys.e[i].decode_state(&mut r)?;
        }
        r.finish()?;
        // The fresh wheel has never seen this state; force a replan.
        sys.wheel.valid = false;
        Ok(sys)
    }

    /// Continues a run restored mid-flight: steps the system until every
    /// program frontend has drained (immediately returning `0` if all
    /// cores are idle), then resets frontends to idle — exactly the tail
    /// of the [`crate::workload::Programs`] run the snapshot interrupted,
    /// so a restore-then-resume reaches the same final state, cycle count
    /// and statistics as the uninterrupted run.
    ///
    /// # Panics
    ///
    /// As a program-mode run (watchdog budget).
    pub fn resume_programs(&mut self) -> u64 {
        let start = self.now;
        self.wheel.valid = false;
        let watchdog = self.now + 2_000_000_000;
        let elapsed = loop {
            if self.step_engine(&mut [], |s| (0..s.cfg.cores).all(|i| s.program_done(i))) {
                break self.now - start;
            }
            assert!(self.now < watchdog, "program run exceeded watchdog budget");
        };
        for fe in &mut self.frontends {
            *fe = Frontend::Idle;
        }
        self.wheel.valid = false;
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Programs, Threads};

    fn sys(cores: usize, skip_it: bool) -> System {
        System::new(SystemConfig {
            cores,
            l1: L1Config {
                skip_it,
                ..L1Config::default()
            },
            ..SystemConfig::default()
        })
    }

    #[test]
    #[ignore = "diagnostic: per-cycle event-source histogram for fig09-shaped runs"]
    fn blame_fig09_event_sources() {
        for cores in [1usize, 8] {
            let mut s = sys(cores, false);
            let lines: Vec<Vec<u64>> = (0..cores as u64)
                .map(|t| {
                    (0..512 / cores as u64)
                        .map(|i| 0x100_0000 + t * 0x10_0000 + i * 64)
                        .collect()
                })
                .collect();
            let phases: [(&str, Vec<Vec<Op>>); 2] = [
                (
                    "dirty",
                    lines
                        .iter()
                        .map(|ls| {
                            ls.iter()
                                .map(|&a| Op::Store { addr: a, value: a })
                                .collect()
                        })
                        .collect(),
                ),
                (
                    "writeback",
                    lines
                        .iter()
                        .map(|ls| {
                            let mut p: Vec<Op> =
                                ls.iter().map(|&a| Op::Clean { addr: a }).collect();
                            p.push(Op::Fence);
                            p
                        })
                        .collect(),
                ),
            ];
            for (name, progs) in phases {
                for (i, ops) in progs.into_iter().enumerate() {
                    s.frontends[i] = Frontend::Program {
                        ops,
                        next: 0,
                        nop_until: 0,
                    };
                }
                let mut hist: std::collections::HashMap<&'static str, u64> = Default::default();
                let mut busy = 0u64;
                let mut total = 0u64;
                while !(0..s.cfg.cores).all(|i| s.program_done(i)) {
                    let blames = s.debug_event_blame();
                    if blames.is_empty() {
                        *hist.entry("idle").or_default() += 1;
                    } else {
                        busy += 1;
                        for b in blames {
                            *hist.entry(b).or_default() += 1;
                        }
                    }
                    total += 1;
                    s.tick();
                }
                for fe in &mut s.frontends {
                    *fe = Frontend::Idle;
                }
                let mut v: Vec<_> = hist.into_iter().collect();
                v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
                eprintln!("cores={cores} phase={name}: {total} cycles, {busy} busy, {v:?}");
            }
        }
    }

    #[test]
    #[ignore = "diagnostic: host-side cost breakdown of an idle tick"]
    fn time_idle_tick_components() {
        use std::time::Instant;
        for cores in [1usize, 8] {
            let mut s = sys(cores, false);
            // Warm the system up with one store per core, then quiesce so
            // every component is idle but internally non-trivial.
            let progs = (0..cores as u64)
                .map(|t| {
                    vec![Op::Store {
                        addr: 0x100_0000 + t * 0x10_0000,
                        value: t,
                    }]
                })
                .collect();
            s.run(Programs(progs));
            const N: u64 = 1_000_000;
            let t0 = Instant::now();
            for _ in 0..N {
                s.tick();
            }
            let tick_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(s.next_event().unwrap_or(0));
            }
            let ne_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                let p = s.plan_tick();
                acc = acc.wrapping_add(p.cores);
            }
            let plan_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let now = s.now;
            let t0 = Instant::now();
            for _ in 0..N {
                let mut ports = skipit_dcache::L1Ports {
                    a: &mut s.a[0],
                    b: &mut s.b[0],
                    c: &mut s.c[0],
                    d: &mut s.d[0],
                    e: &mut s.e[0],
                };
                s.l1s[0].step(now, &mut ports);
            }
            let l1_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                s.lsus[0].step(now, &mut s.l1s[0]);
            }
            let lsu_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                let mut ports = L2Ports {
                    a: &mut s.a,
                    b: &mut s.b,
                    c: &mut s.c,
                    d: &mut s.d,
                    e: &mut s.e,
                    mem: &mut s.dram,
                };
                s.l2.step(now, &mut ports);
            }
            let l2_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            let t0 = Instant::now();
            for _ in 0..N {
                s.step_frontends(&mut []);
            }
            let fe_ns = t0.elapsed().as_nanos() as f64 / N as f64;
            eprintln!(
                "cores={cores}: tick {tick_ns:.0}ns, next_event {ne_ns:.0}ns, \
                 plan_tick {plan_ns:.0}ns, l1.step {l1_ns:.0}ns, lsu.step \
                 {lsu_ns:.0}ns, l2.step {l2_ns:.0}ns, frontends {fe_ns:.0}ns \
                 (acc {acc})"
            );
        }
    }

    #[test]
    fn single_core_store_flush_fence_persists() {
        let mut s = sys(1, false);
        let cycles = s
            .run(Programs(vec![vec![
                Op::Store {
                    addr: 0x1000,
                    value: 0xdead,
                },
                Op::Flush { addr: 0x1000 },
                Op::Fence,
            ]]))
            .cycles;
        assert!(cycles > 0);
        assert_eq!(s.dram().read_word_direct(0x1000), 0xdead);
    }

    #[test]
    fn store_without_writeback_is_not_persisted() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x1000,
            value: 7,
        }]]));
        s.quiesce();
        let dram = s.durable_image();
        assert_eq!(
            dram.read_word_direct(0x1000),
            0,
            "unwritten-back data must be lost on crash"
        );
    }

    #[test]
    fn clean_persists_but_keeps_line() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![
            Op::Store {
                addr: 0x2000,
                value: 3,
            },
            Op::Clean { addr: 0x2000 },
            Op::Fence,
            Op::Load { addr: 0x2000 },
        ]]));
        assert_eq!(s.dram().read_word_direct(0x2000), 3);
        assert_eq!(s.stats().l1[0].load_hits, 1, "clean must not invalidate");
    }

    #[test]
    fn flush_forces_refetch() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![
            Op::Store {
                addr: 0x3000,
                value: 4,
            },
            Op::Flush { addr: 0x3000 },
            Op::Fence,
            Op::Load { addr: 0x3000 },
        ]]));
        let st = s.stats();
        assert_eq!(st.l1[0].load_hits, 0, "flush must invalidate the line");
        assert_eq!(st.l1[0].loads, 1);
        assert_eq!(s.dram().read_word_direct(0x3000), 4);
    }

    #[test]
    fn cross_core_coherence_transfers_value() {
        let mut s = sys(2, false);
        s.run(Programs(vec![
            vec![Op::Store {
                addr: 0x4000,
                value: 11,
            }],
            vec![],
        ]));
        let (_, vals) = s
            .run(Threads::new(vec![|h: CoreHandle| async move {
                let v = h.load(0x4000).await;
                h.finish();
                v
            }]))
            .into_parts();
        // Core 0 wrote; core 1 must read 11 through coherence... but note
        // the thread ran on core 0 here (workers map to cores in order), so
        // run a proper 2-core variant below. This checks basic re-read.
        assert_eq!(vals[0], 11);
    }

    #[test]
    fn two_threads_communicate_through_simulated_memory() {
        let mut s = sys(2, false);
        let (_, results) = s
            .run(
                Threads::new(vec![
                    |h: CoreHandle| async move {
                        if h.core_id() == 0 {
                            h.store(0x5000, 21).await;
                            // Signal readiness through another line.
                            h.store(0x5040, 1).await;
                            h.finish();
                            return 0u64;
                        }
                        // Spin on the flag (coherent read).
                        while h.load(0x5040).await == 0 {
                            if h.halted() {
                                return u64::MAX;
                            }
                        }
                        let v = h.load(0x5000).await;
                        h.finish();
                        v
                    };
                    2
                ])
                .budget(2_000_000),
            )
            .into_parts();
        assert_eq!(results[1], 21);
    }

    #[test]
    fn skip_it_system_drops_redundant_writebacks() {
        let mut s = sys(1, true);
        let mut prog = vec![
            Op::Store {
                addr: 0x6000,
                value: 1,
            },
            Op::Clean { addr: 0x6000 },
            Op::Fence,
        ];
        for _ in 0..10 {
            prog.push(Op::Clean { addr: 0x6000 });
            prog.push(Op::Fence);
        }
        s.run(Programs(vec![prog]));
        let st = s.stats();
        assert_eq!(st.l1[0].writebacks_skipped, 10);
        assert_eq!(st.l1[0].writebacks_enqueued, 1);
    }

    #[test]
    fn naive_system_sends_all_writebacks_but_l2_skips_dram() {
        let mut s = sys(1, false);
        let mut prog = vec![
            Op::Store {
                addr: 0x6000,
                value: 1,
            },
            Op::Clean { addr: 0x6000 },
            Op::Fence,
        ];
        for _ in 0..10 {
            prog.push(Op::Clean { addr: 0x6000 });
            prog.push(Op::Fence);
        }
        s.run(Programs(vec![prog]));
        let st = s.stats();
        assert_eq!(st.l1[0].writebacks_skipped, 0);
        assert_eq!(st.l1[0].writebacks_enqueued, 11);
        // The L2 dirty-bit check eliminates the redundant DRAM writes
        // (§5.5): only the first clean writes memory.
        assert_eq!(st.l2.root_release_dram_writes, 1);
        assert_eq!(st.l2.root_release_dram_skipped, 10);
    }

    #[test]
    fn fence_after_many_flushes_waits_for_all() {
        let mut s = sys(1, false);
        let mut prog = Vec::new();
        for i in 0..32u64 {
            prog.push(Op::Store {
                addr: 0x8000 + i * 64,
                value: i + 1,
            });
        }
        for i in 0..32u64 {
            prog.push(Op::Flush {
                addr: 0x8000 + i * 64,
            });
        }
        prog.push(Op::Fence);
        s.run(Programs(vec![prog]));
        for i in 0..32u64 {
            assert_eq!(s.dram().read_word_direct(0x8000 + i * 64), i + 1);
        }
    }

    #[test]
    fn flush_latency_is_near_paper_calibration() {
        // §7.2: a single-line clean/flush has a median latency of ≈100
        // cycles. Allow a generous band; EXPERIMENTS.md tracks the value.
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x9000,
            value: 1,
        }]]));
        let cycles = s
            .run(Programs(vec![vec![Op::Flush { addr: 0x9000 }, Op::Fence]]))
            .cycles;
        assert!(
            (40..=250).contains(&cycles),
            "single-line flush+fence took {cycles} cycles"
        );
    }

    #[test]
    fn rdcycle_advances() {
        let mut s = sys(1, false);
        let (_, vals) = s
            .run(Threads::new(vec![|h: CoreHandle| async move {
                let t0 = h.rdcycle();
                h.store(0x100, 1).await;
                let t1 = h.rdcycle();
                h.finish();
                (t0, t1)
            }]))
            .into_parts();
        assert!(vals[0].1 > vals[0].0);
    }

    #[test]
    fn work_occupies_cycles() {
        let mut s = sys(1, false);
        let (_, vals) = s
            .run(Threads::new(vec![|h: CoreHandle| async move {
                let t0 = h.rdcycle();
                h.work(100).await;
                let t1 = h.rdcycle();
                h.finish();
                t1 - t0
            }]))
            .into_parts();
        assert!(vals[0] >= 100, "work(100) took only {} cycles", vals[0]);
    }

    #[test]
    fn budget_halts_threads() {
        let mut s = sys(1, false);
        let (_, ops) = s
            .run(
                Threads::new(vec![|h: CoreHandle| async move {
                    let mut n = 0u64;
                    while !h.halted() {
                        h.store(0x100, n).await;
                        n += 1;
                    }
                    h.finish();
                    n
                }])
                .budget(10_000),
            )
            .into_parts();
        assert!(ops[0] > 0);
    }

    /// Two contending cores with long idle stretches — plenty of windows for
    /// the fast engine to skip, plenty of races it must not reorder.
    fn contended_programs() -> Vec<Vec<Op>> {
        let line = |i: u64| 0x1_0000 + i * 64;
        let mut p0 = Vec::new();
        for i in 0..8 {
            p0.push(Op::Store {
                addr: line(i),
                value: i + 1,
            });
        }
        for i in 0..8 {
            p0.push(Op::Clean { addr: line(i) });
        }
        p0.push(Op::Fence);
        p0.push(Op::Nop { cycles: 500 });
        p0.push(Op::Load { addr: line(0) });
        let mut p1 = vec![Op::Nop { cycles: 37 }];
        for i in 0..8 {
            p1.push(Op::Store {
                addr: line(i),
                value: 100 + i,
            });
            p1.push(Op::Flush { addr: line(i) });
        }
        p1.push(Op::Fence);
        vec![p0, p1]
    }

    fn engine_run(kind: EngineKind, threads: usize) -> (u64, SystemStats, Vec<u64>, EngineStats) {
        let mut s = System::new(SystemConfig {
            cores: 2,
            engine: kind,
            engine_threads: threads,
            ..SystemConfig::default()
        });
        let cycles = s.run(Programs(contended_programs())).cycles;
        s.quiesce();
        let words = (0..8)
            .map(|i| s.dram().read_word_direct(0x1_0000 + i * 64))
            .collect();
        (cycles, s.stats(), words, s.engine_stats())
    }

    #[test]
    fn fast_engines_match_naive_engine_exactly() {
        let (naive_cycles, naive_stats, naive_mem, naive_engine) = engine_run(EngineKind::Naive, 0);
        for (kind, threads) in [
            (EngineKind::GlobalGate, 0),
            (EngineKind::ComponentWheel, 0),
            (EngineKind::ParallelWheel, 1),
            (EngineKind::ParallelWheel, 2),
        ] {
            let (cycles, stats, mem, engine) = engine_run(kind, threads);
            assert_eq!(naive_cycles, cycles, "elapsed cycles diverge ({kind:?})");
            assert_eq!(naive_stats, stats, "statistics diverge ({kind:?})");
            assert_eq!(naive_mem, mem, "DRAM contents diverge ({kind:?})");
            assert!(
                engine.jumps > 0 && engine.skipped_cycles > 0,
                "{kind:?} never skipped on an idle-heavy workload: {engine:?}"
            );
            assert!(
                engine.component_steps < engine.component_slots,
                "{kind:?} skipped no component work: {engine:?}"
            );
        }
        assert_eq!(
            naive_engine,
            EngineStats::default(),
            "naive engine must not count jumps"
        );
    }

    /// The wheel's `EngineStats` (jump structure, per-slot step counts) are
    /// scheduling decisions, not just outcomes — the parallel engine must
    /// reproduce them bit-for-bit at every thread count, or its due-cycle
    /// bookkeeping has drifted from the serial wheel's.
    #[test]
    fn parallel_wheel_reproduces_wheel_engine_stats_exactly() {
        let wheel = engine_run(EngineKind::ComponentWheel, 0);
        for threads in [1, 2] {
            let par = engine_run(EngineKind::ParallelWheel, threads);
            assert_eq!(wheel, par, "parallel wheel @ {threads} threads diverges");
        }
    }

    /// An all-cores-busy workload on more cores than [`PARALLEL_MIN_DUE`],
    /// so the pool genuinely dispatches (no serial fallback): cycles,
    /// stats, durable words and engine counters must match the serial
    /// wheel at several thread counts.
    #[test]
    fn parallel_wheel_is_exact_on_saturated_workload() {
        let run = |kind: EngineKind, threads: usize| {
            let mut s = System::new(SystemConfig {
                cores: 8,
                engine: kind,
                engine_threads: threads,
                ..SystemConfig::default()
            });
            let progs = (0..8u64)
                .map(|t| {
                    let base = 0x10_0000 + t * 0x1_0000;
                    let mut p = Vec::new();
                    for i in 0..24 {
                        p.push(Op::Store {
                            addr: base + i * 64,
                            value: t << 32 | i,
                        });
                    }
                    for i in 0..24 {
                        p.push(Op::Clean {
                            addr: base + i * 64,
                        });
                    }
                    p.push(Op::Fence);
                    p
                })
                .collect();
            let cycles = s.run(Programs(progs)).cycles;
            s.quiesce();
            let words: Vec<u64> = (0..8u64)
                .flat_map(|t| (0..24).map(move |i| (0x10_0000 + t * 0x1_0000) + i * 64))
                .map(|a| s.dram().read_word_direct(a))
                .collect();
            (cycles, s.stats(), words, s.engine_stats())
        };
        let wheel = run(EngineKind::ComponentWheel, 0);
        for threads in [2, 3, 8] {
            let par = run(EngineKind::ParallelWheel, threads);
            assert_eq!(
                wheel, par,
                "saturated parallel wheel @ {threads} threads diverges"
            );
        }
    }

    #[test]
    fn wheel_skips_idle_cores_inside_busy_cycles() {
        // Four cores, only core 0 busy: even on executed (non-jumped)
        // cycles the wheel must leave the three idle core slots asleep, so
        // well over half of all component slots go unstepped.
        let mut s = System::new(SystemConfig {
            cores: 4,
            ..SystemConfig::default()
        });
        let mut prog = Vec::new();
        for i in 0..16u64 {
            prog.push(Op::Store {
                addr: 0x2_0000 + i * 64,
                value: i + 1,
            });
        }
        for i in 0..16u64 {
            prog.push(Op::Clean {
                addr: 0x2_0000 + i * 64,
            });
        }
        prog.push(Op::Fence);
        s.run(Programs(vec![prog]));
        let e = s.engine_stats();
        let pct = e.component_skipped_pct().unwrap();
        assert!(
            pct > 50.0,
            "wheel burned idle-core slots: {pct:.1}% skipped, {e:?}"
        );
    }

    #[test]
    fn lockstep_oracle_accepts_real_windows() {
        let mut s = System::new(SystemConfig {
            cores: 2,
            lockstep_oracle: true,
            ..SystemConfig::default()
        });
        s.run(Programs(contended_programs()));
        assert!(
            s.engine_stats().jumps > 0,
            "oracle mode must still take (verified) jumps"
        );
    }

    #[test]
    fn thread_mode_matches_naive_engine() {
        let run = |kind: EngineKind| {
            let mut s = System::new(SystemConfig {
                cores: 2,
                engine: kind,
                ..SystemConfig::default()
            });
            s.run(Threads::new(vec![
                |h: CoreHandle| async move {
                    if h.core_id() == 0 {
                        for i in 0..6u64 {
                            h.store(0x7000 + i * 64, i + 1).await;
                        }
                        h.work(200).await;
                        let v = h.load(0x7000).await;
                        h.flush(0x7000).await;
                        h.fence().await;
                        h.finish();
                        return v;
                    }
                    h.work(50).await;
                    let v = h.fetch_add(0x7000, 10).await;
                    h.fence().await;
                    h.finish();
                    v
                };
                2
            ]))
            .into_parts()
        };
        let naive = run(EngineKind::Naive);
        assert_eq!(naive, run(EngineKind::GlobalGate));
        assert_eq!(naive, run(EngineKind::ComponentWheel));
        assert_eq!(naive, run(EngineKind::ParallelWheel));
    }

    #[test]
    #[should_panic(expected = "injected workload failure")]
    fn worker_panic_propagates_instead_of_wedging() {
        let mut s = sys(2, false);
        let _ = s
            .run(
                Threads::new(vec![
                    |h: CoreHandle| async move {
                        if h.core_id() == 0 {
                            h.store(0x100, 1).await;
                            panic!("injected workload failure");
                        }
                        h.store(0x140, 2).await;
                        h.finish();
                        0u64
                    };
                    2
                ])
                .budget(1_000_000),
            )
            .into_parts();
    }

    #[test]
    #[should_panic(expected = "may await only CoreHandle ops")]
    fn worker_awaiting_a_foreign_future_is_rejected() {
        let mut s = sys(1, false);
        s.run(Threads::new(vec![|h: CoreHandle| async move {
            h.store(0x100, 1).await;
            std::future::pending::<()>().await;
        }]));
    }

    /// Snapshots the contended 2-core run at the first observed cycle
    /// `>= at`, restores it under `restore_cfg`, resumes, and checks the
    /// resumed tail reaches the exact final state of the uninterrupted
    /// run (digest, cycles, stats, engine counters, durable words).
    fn snapshot_resume_matches(at: u64, restore_cfg: SystemConfig) {
        let base_cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        // Uninterrupted reference.
        let mut reference = System::new(base_cfg);
        let ref_cycles = reference.run(Programs(contended_programs())).cycles;
        let ref_digest = reference.state_digest();

        // Interrupted run: snapshot mid-flight, discard the original.
        let mut s = System::new(base_cfg);
        let mut snap = None;
        s.run_programs_observed(contended_programs(), |sys| {
            if sys.now() >= at && snap.is_none() {
                snap = Some(sys.snapshot().expect("program mode snapshots"));
            }
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        let snap = snap.expect("observer fired");
        let pre_cycles = {
            let r = System::restore(&snap, &base_cfg).unwrap();
            assert!(r.now() >= at, "snapshot taken at the requested cycle");
            r.now()
        };

        let mut resumed = System::restore(&snap, &restore_cfg).unwrap();
        let tail = resumed.resume_programs();
        assert_eq!(pre_cycles + tail, ref_cycles, "cycle counts agree");
        assert_eq!(resumed.state_digest(), ref_digest, "digests agree");
        assert_eq!(resumed.stats(), reference.stats(), "stats agree");
        // Engine counters are per-engine-kind bookkeeping; they only track
        // the reference when the tail runs under the same engine. Even
        // then, exact `component_steps` may differ by a step or two at the
        // resume boundary — the fresh wheel's replan can prove idle a
        // component the continuous run's incrementally-armed wheel stepped
        // as a no-op. Wheel arming history is host-side, not simulated
        // state; the cycle-derived slot count must agree exactly.
        if restore_cfg.engine == base_cfg.engine {
            assert_eq!(
                resumed.engine_stats().component_slots,
                reference.engine_stats().component_slots,
                "component slots agree"
            );
        }
        for i in 0..8 {
            let addr = 0x1_0000 + i * 64;
            assert_eq!(
                resumed.durable_image().read_word_direct(addr),
                reference.durable_image().read_word_direct(addr)
            );
        }
    }

    #[test]
    fn snapshot_restore_resume_is_bit_identical() {
        snapshot_resume_matches(
            40,
            SystemConfig {
                cores: 2,
                ..SystemConfig::default()
            },
        );
    }

    #[test]
    fn snapshot_restores_under_any_engine() {
        // Snapshot under the default wheel engine; resume under each of the
        // other engines (and a fixed parallel thread count) — the simulated
        // tail must be bit-identical.
        for engine in [
            EngineKind::Naive,
            EngineKind::GlobalGate,
            EngineKind::ParallelWheel,
        ] {
            snapshot_resume_matches(
                60,
                SystemConfig {
                    cores: 2,
                    engine,
                    engine_threads: 2,
                    ..SystemConfig::default()
                },
            );
        }
    }

    #[test]
    fn quiesced_snapshot_roundtrips_exactly() {
        let mut s = sys(2, true);
        s.run(Programs(contended_programs()));
        s.quiesce();
        let snap = s.snapshot().unwrap();
        let restored = System::restore(&snap, s.config()).unwrap();
        assert_eq!(restored.state_digest(), s.state_digest());
        assert_eq!(restored.now(), s.now());
        assert_eq!(restored.stats(), s.stats());
        // And the restored image re-snapshots to the same bytes.
        assert_eq!(restored.snapshot().unwrap(), snap);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut s = sys(1, false);
        s.run(Programs(vec![vec![Op::Store {
            addr: 0x40,
            value: 1,
        }]]));
        let snap = s.snapshot().unwrap();
        let other = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        assert!(matches!(
            System::restore(&snap, &other),
            Err(SnapError::ConfigMismatch)
        ));
    }

    #[test]
    fn restore_rejects_truncated_and_trailing_bytes() {
        let s = sys(1, false);
        let bytes = s.snapshot().unwrap().into_bytes();

        let truncated = Snapshot::from_bytes(bytes[..bytes.len() - 1].to_vec()).unwrap();
        assert!(System::restore(&truncated, s.config()).is_err());

        let mut padded = bytes.clone();
        padded.push(0);
        let padded = Snapshot::from_bytes(padded).unwrap();
        assert!(matches!(
            System::restore(&padded, s.config()),
            Err(SnapError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn live_thread_frontends_refuse_to_snapshot() {
        let mut s = sys(1, false);
        s.frontends[0] = Frontend::Thread {
            busy: None,
            nop_until: None,
            finished: false,
        };
        assert_eq!(s.snapshot().unwrap_err(), SnapError::LiveThreads);
    }
}
