//! The inclusive L2 transaction engine.
//!
//! Structure follows the SiFive inclusive cache of §3.4 / Fig. 4: TL-C
//! requests arrive through *SinkC* (here: per-core channel C links), are
//! allocated to MSHRs immediately or deferred through the *ListBuffer*;
//! probes go out on channel B; responses leave through *SourceD* (channel D);
//! DRAM traffic leaves through *SourceC* (the [`skipit_mem::Dram`] port).

use crate::arrays::L2Arrays;
use crate::config::L2Config;
use crate::stats::L2Stats;
use skipit_mem::{Dram, MemReq, MemResp};
use skipit_tilelink::perturb::L2_MSHR_SITE;
use skipit_tilelink::{
    AgentId, Cap, ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, GrantFlavor, Grow, LineAddr,
    LineData, Link, PerturbConfig, Shrink, SlotMask, WritebackKind,
};
use skipit_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Channel endpoints the L2 drives each cycle, one link of each kind per
/// core, plus the memory port.
#[derive(Debug)]
pub struct L2Ports<'a> {
    /// Channel A from each core's L1.
    pub a: &'a mut [Link<ChannelA>],
    /// Channel B to each core's L1.
    pub b: &'a mut [Link<ChannelB>],
    /// Channel C from each core's L1.
    pub c: &'a mut [Link<ChannelC>],
    /// Channel D to each core's L1.
    pub d: &'a mut [Link<ChannelD>],
    /// Channel E from each core's L1.
    pub e: &'a mut [Link<ChannelE>],
    /// Main memory.
    pub mem: &'a mut Dram,
}

/// The request an L2 MSHR is serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum L2Req {
    Acquire {
        source: AgentId,
        grow: Grow,
    },
    RootRelease {
        source: AgentId,
        kind: WritebackKind,
        /// Dirty data carried by the request (merged at MSHR allocation).
        data: Option<LineData>,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum L2MshrState {
    /// Directory/banked-store access latency.
    Access { until: u64 },
    /// Sending/awaiting probes that evict the inclusive victim.
    VictimProbe,
    /// Waiting to issue the dirty victim's DRAM write.
    VictimWrite,
    /// Waiting for the victim write's durability ack.
    VictimWriteWait,
    /// Waiting to issue the fill read.
    MemRead,
    /// Waiting for fill data.
    MemReadWait,
    /// Sending/awaiting probes of the request line's owners.
    OwnerProbe,
    /// RootRelease: waiting to issue the line's DRAM write.
    DramWrite,
    /// RootRelease: waiting for the durability ack.
    DramWriteWait,
    /// Ready to push the Grant / RootReleaseAck.
    SendResp,
    /// Grant pushed; waiting for the client's GrantAck.
    WaitGrantAck,
}

#[derive(Clone, Copy, Debug)]
struct L2Mshr {
    addr: LineAddr,
    req: L2Req,
    state: L2MshrState,
    /// Probes sent but not yet acknowledged.
    pending_acks: usize,
    /// Probe targets not yet sent (agent ids).
    to_probe: u32,
    /// Capability the outstanding probes demand.
    probe_cap: Cap,
    /// Reserved L2 way for the request line (Acquire fills).
    way: Option<usize>,
    /// Victim line being evicted for inclusion.
    victim: Option<LineAddr>,
    /// Token of the outstanding memory request.
    token: u64,
    /// Snapshot written by an in-flight RootRelease DRAM write; the dirty
    /// bit is cleared on completion only if the banked store still holds
    /// exactly this data (newer merges must stay dirty).
    wrote: Option<LineData>,
}

/// A TL-C request deferred because of an MSHR conflict or MSHR exhaustion
/// (the ListBuffer of §3.4).
#[derive(Clone, Copy, Debug)]
struct Deferred(ChannelC);

/// The inclusive L2 cache. See [module docs](self).
///
/// The L2 communicates with the L1s only through the [`L2Ports`] links —
/// no shared references into other components. Under the parallel wheel
/// engine the L2+DRAM slot steps serially *before* the parallel core phase
/// (its same-cycle effects are observable by the cores, exactly as in
/// serial engine order), so it is never stepped concurrently with anything;
/// the assertion below keeps it movable across host threads all the same.
#[derive(Debug)]
pub struct InclusiveCache {
    cfg: L2Config,
    arrays: L2Arrays,
    mshrs: Vec<Option<L2Mshr>>,
    /// The occupied `mshrs` slots. Every per-cycle walk (stepping, the
    /// event bound, conflict checks, response routing, the free-slot pick)
    /// goes through it, so its cost follows the live transactions rather
    /// than the (mostly empty) array.
    occupied: SlotMask,
    list_buffer: VecDeque<Deferred>,
    next_token: u64,
    stats: L2Stats,
    cores: usize,
    /// Event sink for MSHR allocation/retirement and §5.5 DRAM-write skips.
    sink: Option<TraceSink>,
    /// Adversarial MSHR-scheduling perturbation (None when rotation is off).
    perturb: Option<PerturbConfig>,
    /// Count of MSHR allocations; keys the rotation draw so it depends only
    /// on simulated state transitions, never on how often a cycle is probed.
    alloc_seq: u64,
}

/// Parallel-stepping audit: the L2 must be movable across host threads.
#[allow(dead_code)]
fn _assert_l2_send() {
    fn send<T: Send>() {}
    send::<InclusiveCache>();
}

impl InclusiveCache {
    /// Creates an L2 managing `cores` L1 clients.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or `cores` is 0 or exceeds 32 (the
    /// directory owner bitmask width).
    pub fn new(cores: usize, cfg: L2Config) -> Self {
        cfg.validate();
        assert!((1..=32).contains(&cores), "1..=32 cores supported");
        assert!(
            cfg.mshrs <= SlotMask::MAX_SLOTS,
            "occupancy bitmask is 64 bits wide"
        );
        InclusiveCache {
            arrays: L2Arrays::new(&cfg),
            mshrs: vec![None; cfg.mshrs],
            occupied: SlotMask::default(),
            list_buffer: VecDeque::with_capacity(cfg.list_buffer_depth),
            next_token: 0,
            stats: L2Stats::default(),
            cores,
            sink: None,
            perturb: None,
            alloc_seq: 0,
            cfg,
        }
    }

    /// Enables seeded MSHR-scheduling perturbation: each allocation picks its
    /// slot starting from a pseudo-random rotation of the free-slot scan,
    /// which reorders the MSHR service walk relative to the deterministic
    /// lowest-free-slot policy. A no-op unless `cfg.mshr_rotation` is set.
    pub fn set_perturb(&mut self, cfg: PerturbConfig) {
        self.perturb = cfg.mshr_rotation.then_some(cfg);
    }

    /// Installs an event sink; MSHR lifecycle and §5.5 trivial-completion
    /// events emit through it.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    /// The installed event sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// Mutable access to the installed event sink (for clearing).
    pub fn trace_sink_mut(&mut self) -> Option<&mut TraceSink> {
        self.sink.as_mut()
    }

    /// Removes and returns the event sink.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.sink.take()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> L2Stats {
        self.stats
    }

    /// MSHRs currently live (telemetry gauge).
    pub fn mshr_occupancy(&self) -> usize {
        self.occupied.len()
    }

    /// Configuration.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Whether no transaction is in flight (tests / quiesce detection).
    pub fn is_quiescent(&self) -> bool {
        self.occupied.is_empty() && self.list_buffer.is_empty()
    }

    /// Dirty bit of a resident line (`false` if absent) — test/debug helper.
    pub fn peek_dirty(&self, addr: LineAddr) -> bool {
        self.arrays
            .lookup(addr)
            .map(|w| self.arrays.dir(self.arrays.set_index(addr), w).dirty)
            .unwrap_or(false)
    }

    /// Whether a line is resident — test/debug helper.
    pub fn peek_valid(&self, addr: LineAddr) -> bool {
        self.arrays.lookup(addr).is_some()
    }

    /// Whether a line is resident *or* referenced by an active MSHR (as the
    /// transaction address or as an inclusive-eviction victim) — the
    /// invariant-oracle's notion of "the L2 still accounts for this line".
    /// Mid-transaction a line can be directory-invalid yet fully tracked
    /// (e.g. a victim between its last probe ack and the fill's
    /// re-installation); such a line is not an inclusion violation.
    pub fn peek_tracked(&self, addr: LineAddr) -> bool {
        self.peek_valid(addr) || self.mshr_conflict(addr)
    }

    /// The MSHR in occupied slot `idx`.
    fn live(&self, idx: usize) -> &L2Mshr {
        self.mshrs[idx].as_ref().expect("occupied slot is live")
    }

    /// The first live MSHR, in slot order, for which `f` holds.
    fn find_live(&self, mut f: impl FnMut(&L2Mshr) -> bool) -> Option<usize> {
        self.occupied.iter().find(|&i| f(self.live(i)))
    }

    fn mshr_conflict(&self, addr: LineAddr) -> bool {
        self.find_live(|m| m.addr == addr || m.victim == Some(addr))
            .is_some()
    }

    /// First free MSHR slot under the current scan rotation. A pure function
    /// of simulated state (`alloc_seq` advances only when a slot is actually
    /// allocated), so repeated calls within a cycle — including the
    /// [`Self::can_accept_acquire`] pre-check — agree on the answer.
    fn free_mshr(&self) -> Option<usize> {
        let start = match self.perturb {
            Some(cfg) => {
                cfg.draw(L2_MSHR_SITE, self.alloc_seq, self.mshrs.len() as u64 - 1) as usize
            }
            None => 0,
        };
        self.free_mshr_from(start)
    }

    /// First free slot of the scan `start, start + 1, …` wrapping at the
    /// MSHR count.
    fn free_mshr_from(&self, start: usize) -> Option<usize> {
        self.occupied.first_free_from(self.mshrs.len(), start)
    }

    /// Whether an Acquire for `addr` arriving this cycle would be sunk into
    /// an MSHR (rather than left in the channel A link by back-pressure).
    /// The event-driven scheduler uses this to avoid busy-waiting on a
    /// blocked Acquire: the MSHR transition that clears the conflict is an
    /// event of its own.
    pub fn can_accept_acquire(&self, addr: LineAddr) -> bool {
        !self.mshr_conflict(addr) && self.free_mshr().is_some()
    }

    /// Conservative lower bound on the next cycle at which the L2 can change
    /// state on its own: directory-access completions, probe/response/DRAM
    /// issue work due now, or the memory controller's issue gate for MSHRs
    /// waiting to talk to DRAM. Wait states advanced only by TileLink or
    /// memory arrivals report nothing — the scheduler events those sources
    /// separately (channel C/E links, [`Dram::next_event`]).
    ///
    /// `b`/`d` are the outbound per-core links: a sender blocked on a full
    /// one is not an event (the L1's pop that frees the slot is evented
    /// through that link's head; the freed slot becomes usable at the next
    /// tick, which a re-evaluation then reports as `now`).
    pub fn next_event(
        &self,
        now: u64,
        mem: &Dram,
        b: &[Link<ChannelB>],
        d: &[Link<ChannelD>],
    ) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut merge = |t: u64| next = Some(next.map_or(t, |n| n.min(t)));
        for idx in self.occupied.iter() {
            let m = self.live(idx);
            match m.state {
                L2MshrState::Access { until } => {
                    if until <= now {
                        return Some(now);
                    }
                    merge(until);
                }
                L2MshrState::VictimProbe | L2MshrState::OwnerProbe => {
                    // A fully acknowledged phase completes this cycle; unsent
                    // probes progress iff some target's channel B has room.
                    // Outstanding acks arrive on channel C (evented
                    // separately).
                    if m.to_probe == 0 && m.pending_acks == 0 {
                        return Some(now);
                    }
                    if (0..self.cores).any(|a| m.to_probe & (1 << a) != 0 && b[a].can_push()) {
                        return Some(now);
                    }
                }
                // MemRead invalidates its victim unconditionally before
                // consulting the memory issue gate — that is progress even
                // while DRAM is busy.
                L2MshrState::MemRead if m.victim.is_some() => return Some(now),
                L2MshrState::VictimWrite | L2MshrState::MemRead | L2MshrState::DramWrite => {
                    let t = mem.next_accept(now);
                    if t <= now {
                        return Some(now);
                    }
                    merge(t);
                }
                L2MshrState::SendResp => {
                    let (L2Req::Acquire { source, .. } | L2Req::RootRelease { source, .. }) = m.req;
                    if d[source].can_push() {
                        return Some(now);
                    }
                }
                L2MshrState::VictimWriteWait
                | L2MshrState::MemReadWait
                | L2MshrState::DramWriteWait
                | L2MshrState::WaitGrantAck => {}
            }
        }
        if self
            .list_buffer
            .iter()
            .any(|&Deferred(msg)| self.can_accept_acquire(msg.addr()))
        {
            return Some(now);
        }
        next
    }

    /// Advances the L2 by one cycle.
    pub fn step(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        self.drain_mem(now, ports);
        self.drain_grant_acks(now, ports);
        self.drain_channel_c(now, ports);
        self.drain_list_buffer(now);
        self.accept_acquires(now, ports);
        self.step_mshrs(now, ports);
        debug_assert_eq!(
            self.occupied,
            SlotMask::from_fn(self.mshrs.len(), |i| self.mshrs[i].is_some()),
            "MSHR live mask out of step with the slots"
        );
    }

    fn drain_mem(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        ports.mem.step(now);
        while let Some(resp) = ports.mem.pop_response() {
            let token = resp.token();
            let Some(idx) = self.find_live(|m| {
                m.token == token
                    && matches!(
                        m.state,
                        L2MshrState::MemReadWait
                            | L2MshrState::VictimWriteWait
                            | L2MshrState::DramWriteWait
                    )
            }) else {
                panic!("memory response with unknown token {token}");
            };
            let m = self.mshrs[idx].as_mut().expect("checked");
            match (resp, m.state) {
                (MemResp::ReadDone { data, .. }, L2MshrState::MemReadWait) => {
                    let way = m.way.expect("fill way reserved");
                    self.arrays.install(m.addr, way, data);
                    self.stats.mem_fills += 1;
                    // A fresh fill has no owners to probe.
                    m.state = L2MshrState::SendResp;
                }
                (MemResp::WriteDone { .. }, L2MshrState::VictimWriteWait) => {
                    m.state = L2MshrState::MemRead;
                }
                (MemResp::WriteDone { .. }, L2MshrState::DramWriteWait) => {
                    // The written snapshot is durable; clear the dirty bit
                    // (§5.5) — unless newer dirty data was merged into the
                    // banked store while the write was in flight (a deferred
                    // same-line RootRelease's arrival merge): that data
                    // still needs its own trip.
                    if let Some(w) = self.arrays.lookup(m.addr) {
                        let set = self.arrays.set_index(m.addr);
                        if m.wrote == Some(self.arrays.line(set, w)) {
                            self.arrays.dir_mut(set, w).dirty = false;
                        }
                    }
                    m.state = L2MshrState::SendResp;
                }
                (resp, state) => panic!("memory response {resp:?} in state {state:?}"),
            }
        }
    }

    fn drain_grant_acks(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            while let Some(ChannelE::GrantAck { addr, .. }) = ports.e[core].pop(now) {
                let Some(idx) =
                    self.find_live(|m| m.addr == addr && m.state == L2MshrState::WaitGrantAck)
                else {
                    panic!("GrantAck for {addr:?} without a waiting MSHR");
                };
                skipit_trace::trace!(
                    self.sink,
                    now,
                    TraceEvent::L2MshrFree {
                        slot: idx,
                        addr: addr.base(),
                    }
                );
                self.mshrs[idx] = None;
                self.occupied.remove(idx);
            }
        }
    }

    fn drain_channel_c(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            // Process every arrived message unless the ListBuffer would
            // overflow (back-pressure stays in the link).
            // Not a `while let`: RootRelease may leave its message in the
            // link (back-pressure) and break out explicitly.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(&msg) = ports.c[core].peek(now) else {
                    break;
                };
                match msg {
                    ChannelC::ProbeAck {
                        source,
                        addr,
                        shrink,
                        data,
                    } => {
                        ports.c[core].pop(now);
                        self.handle_probe_ack(source, addr, shrink, data);
                    }
                    ChannelC::Release {
                        source,
                        addr,
                        shrink,
                        data,
                    } => {
                        ports.c[core].pop(now);
                        self.handle_release(source, addr, shrink, data);
                        ports.d[core].push(
                            now,
                            ChannelD::ReleaseAck {
                                target: source,
                                addr,
                                root: false,
                            },
                        );
                    }
                    ChannelC::RootRelease {
                        source,
                        addr,
                        kind,
                        data,
                    } => {
                        // §5.5: "If it contains dirty data, it is
                        // simultaneously written back to the BankedStore"
                        // — immediately on arrival, even if the request is
                        // buffered, so a racing Acquire can never grant
                        // stale data. The requester's directory state is
                        // updated at the same moment (a flush self-
                        // invalidated before sending).
                        let mut msg = msg;
                        if let Some(w) = self.arrays.lookup(addr) {
                            let set = self.arrays.set_index(addr);
                            if let Some(d) = data {
                                self.arrays.set_line(set, w, d);
                                self.arrays.dir_mut(set, w).dirty = true;
                                msg = ChannelC::RootRelease {
                                    source,
                                    addr,
                                    kind,
                                    data: None,
                                };
                            }
                            if kind.invalidates() {
                                self.arrays.dir_mut(set, w).remove_owner(source);
                            } else if data.is_some() {
                                // Clean with data: the requester's copy is
                                // now clean; it keeps ownership.
                            }
                        }
                        if !self.mshr_conflict(addr) {
                            if let Some(slot) = self.free_mshr() {
                                ports.c[core].pop(now);
                                self.allocate_root_release(now, slot, msg);
                                continue;
                            }
                        }
                        if self.list_buffer.len() < self.cfg.list_buffer_depth {
                            ports.c[core].pop(now);
                            self.list_buffer.push_back(Deferred(msg));
                            self.stats.list_buffered += 1;
                        }
                        // ListBuffer full: leave the message in the link.
                        break;
                    }
                }
            }
        }
    }

    fn drain_list_buffer(&mut self, now: u64) {
        // Schedule the first deferred request whose conflict has cleared.
        let mut i = 0;
        while i < self.list_buffer.len() {
            let Deferred(msg) = self.list_buffer[i];
            let addr = msg.addr();
            if !self.mshr_conflict(addr) {
                if let Some(slot) = self.free_mshr() {
                    self.list_buffer.remove(i);
                    self.allocate_root_release(now, slot, msg);
                    continue;
                }
                break; // no free MSHRs; try again next cycle
            }
            i += 1;
        }
    }

    fn handle_probe_ack(
        &mut self,
        source: AgentId,
        addr: LineAddr,
        shrink: Shrink,
        data: Option<LineData>,
    ) {
        // Update the directory with the client's transition.
        if let Some(w) = self.arrays.lookup(addr) {
            let set = self.arrays.set_index(addr);
            if let Some(d) = data {
                self.arrays.set_line(set, w, d);
                self.arrays.dir_mut(set, w).dirty = true;
            }
            let e = self.arrays.dir_mut(set, w);
            if !shrink.keeps_copy() {
                e.remove_owner(source);
            } else if !shrink.keeps_trunk() && e.trunk == Some(source) {
                e.trunk = None;
            }
        }
        // Route to the waiting MSHR: probes for a line come from exactly one
        // MSHR (per-line conflict serialization).
        let Some(idx) =
            self.find_live(|m| (m.addr == addr || m.victim == Some(addr)) && m.pending_acks > 0)
        else {
            panic!("ProbeAck for {addr:?} with no probing MSHR");
        };
        self.mshrs[idx].as_mut().expect("live").pending_acks -= 1;
    }

    fn handle_release(
        &mut self,
        source: AgentId,
        addr: LineAddr,
        shrink: Shrink,
        data: Option<LineData>,
    ) {
        self.stats.releases += 1;
        let Some(w) = self.arrays.lookup(addr) else {
            // Inclusion means a released line is resident — unless the race
            // window where we just evicted it (the client's release crossed
            // our victim probe). Data, if any, was already captured by the
            // ProbeAck path of the victim flow; a voluntary release with
            // dirty data for a non-resident line cannot occur because the
            // victim flow waits for all acks before invalidating.
            assert!(
                data.is_none(),
                "dirty Release for non-resident line {addr:?}"
            );
            return;
        };
        let set = self.arrays.set_index(addr);
        if let Some(d) = data {
            self.arrays.set_line(set, w, d);
            self.arrays.dir_mut(set, w).dirty = true;
        }
        let e = self.arrays.dir_mut(set, w);
        if !shrink.keeps_copy() {
            e.remove_owner(source);
        } else if !shrink.keeps_trunk() && e.trunk == Some(source) {
            e.trunk = None;
        }
    }

    fn accept_acquires(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        for core in 0..self.cores {
            let Some(&ChannelA::AcquireBlock { source, addr, grow }) = ports.a[core].peek(now)
            else {
                continue;
            };
            if self.mshr_conflict(addr) {
                continue;
            }
            let Some(slot) = self.free_mshr() else {
                return;
            };
            ports.a[core].pop(now);
            self.occupied.insert(slot);
            self.alloc_seq += 1;
            skipit_trace::trace!(
                self.sink,
                now,
                TraceEvent::L2MshrAlloc {
                    slot,
                    addr: addr.base(),
                    op: "Acquire",
                }
            );
            self.mshrs[slot] = Some(L2Mshr {
                addr,
                req: L2Req::Acquire { source, grow },
                state: L2MshrState::Access {
                    until: now + self.cfg.access_latency,
                },
                pending_acks: 0,
                to_probe: 0,
                probe_cap: Cap::ToN,
                way: None,
                victim: None,
                token: u64::MAX,
                wrote: None,
            });
        }
    }

    fn allocate_root_release(&mut self, now: u64, slot: usize, msg: ChannelC) {
        let ChannelC::RootRelease {
            source,
            addr,
            kind,
            data,
        } = msg
        else {
            panic!("ListBuffer held a non-RootRelease message: {msg:?}");
        };
        self.occupied.insert(slot);
        self.alloc_seq += 1;
        skipit_trace::trace!(
            self.sink,
            now,
            TraceEvent::L2MshrAlloc {
                slot,
                addr: addr.base(),
                op: "RootRelease",
            }
        );
        self.mshrs[slot] = Some(L2Mshr {
            addr,
            req: L2Req::RootRelease { source, kind, data },
            state: L2MshrState::Access {
                until: now + self.cfg.access_latency,
            },
            pending_acks: 0,
            to_probe: 0,
            probe_cap: Cap::ToN,
            way: None,
            victim: None,
            token: u64::MAX,
            wrote: None,
        });
    }

    fn step_mshrs(&mut self, now: u64, ports: &mut L2Ports<'_>) {
        // No MSHR is allocated during this walk, and an MSHR only ever frees
        // its own slot, so the mask read up front is the set of slots the
        // full ascending sweep would find live.
        for idx in self.occupied.iter() {
            match self.live(idx).state {
                L2MshrState::Access { until } => {
                    if now >= until {
                        self.plan(now, idx);
                    }
                }
                L2MshrState::VictimProbe | L2MshrState::OwnerProbe => {
                    self.send_probes(now, idx, ports);
                    let m = self.live(idx);
                    if m.to_probe == 0 && m.pending_acks == 0 {
                        self.probes_complete(now, idx);
                    }
                }
                L2MshrState::VictimWrite => {
                    if ports.mem.can_accept(now) {
                        let m = self.mshrs[idx].as_mut().expect("active");
                        let victim = m.victim.expect("victim set");
                        let set = self.arrays.set_index(victim);
                        let Some(w) = self.arrays.lookup(victim) else {
                            // Vanished between VictimProbe and here (another
                            // transaction wrote it out): skip to the fill.
                            m.state = L2MshrState::MemRead;
                            continue;
                        };
                        let data = self.arrays.line(set, w);
                        let token = self.next_token;
                        self.next_token += 1;
                        m.token = token;
                        m.state = L2MshrState::VictimWriteWait;
                        ports.mem.request(
                            now,
                            MemReq::Write {
                                addr: victim,
                                data,
                                token,
                            },
                        );
                        self.stats.dirty_evictions += 1;
                    }
                }
                L2MshrState::MemRead => {
                    // The victim (if any) is finished with: invalidate it so
                    // the fill can take the way.
                    let m = self.mshrs[idx].as_mut().expect("active");
                    if let Some(victim) = m.victim.take() {
                        if let Some(w) = self.arrays.lookup(victim) {
                            let set = self.arrays.set_index(victim);
                            let e = self.arrays.dir_mut(set, w);
                            e.valid = false;
                            e.dirty = false;
                            e.owners = 0;
                            e.trunk = None;
                        }
                    }
                    if ports.mem.can_accept(now) {
                        let token = self.next_token;
                        self.next_token += 1;
                        m.token = token;
                        m.state = L2MshrState::MemReadWait;
                        ports.mem.request(
                            now,
                            MemReq::Read {
                                addr: m.addr,
                                token,
                            },
                        );
                    }
                }
                L2MshrState::DramWrite => {
                    if ports.mem.can_accept(now) {
                        let m = self.mshrs[idx].as_mut().expect("active");
                        let addr = m.addr;
                        // Resident: banked-store contents. Not resident (the
                        // eviction race): the data carried by the request.
                        let data = match self.arrays.lookup(addr) {
                            Some(w) => self.arrays.line(self.arrays.set_index(addr), w),
                            None => match m.req {
                                L2Req::RootRelease { data: Some(d), .. } => d,
                                _ => panic!("DramWrite for non-resident {addr:?} without data"),
                            },
                        };
                        let token = self.next_token;
                        self.next_token += 1;
                        m.token = token;
                        m.wrote = Some(data);
                        m.state = L2MshrState::DramWriteWait;
                        ports.mem.request(now, MemReq::Write { addr, data, token });
                        self.stats.root_release_dram_writes += 1;
                    }
                }
                L2MshrState::SendResp => self.send_response(now, idx, ports),
                L2MshrState::VictimWriteWait
                | L2MshrState::MemReadWait
                | L2MshrState::DramWriteWait
                | L2MshrState::WaitGrantAck => {}
            }
        }
    }

    /// First directory decision after the access latency.
    fn plan(&mut self, now: u64, idx: usize) {
        let m = self.mshrs[idx].as_ref().expect("active");
        let addr = m.addr;
        match m.req {
            L2Req::Acquire { source, grow } => {
                if let Some(w) = self.arrays.lookup(addr) {
                    let set = self.arrays.set_index(addr);
                    self.arrays.dir_mut(set, w).reserved = true;
                    self.arrays.touch(set, w);
                    let e = *self.arrays.dir(set, w);
                    let mm = self.mshrs[idx].as_mut().expect("active");
                    mm.way = Some(w);
                    // Probe strategy (§2.2): writes revoke every other copy;
                    // reads only downgrade a foreign Trunk owner.
                    let (targets, cap) = if grow.wants_write() {
                        (e.owners & !(1 << source), Cap::ToN)
                    } else if let Some(t) = e.trunk.filter(|&t| t != source) {
                        (1 << t, Cap::ToB)
                    } else {
                        (0, Cap::ToB)
                    };
                    mm.to_probe = targets;
                    mm.probe_cap = cap;
                    mm.state = L2MshrState::OwnerProbe;
                } else {
                    // Miss: reserve a way, evicting inclusively if needed.
                    let Some(w) = self.arrays.victim_way(addr) else {
                        return; // every way reserved; retry next cycle
                    };
                    let set = self.arrays.set_index(addr);
                    let victim_entry = *self.arrays.dir(set, w);
                    if victim_entry.valid && self.mshr_conflict(self.arrays.addr_of(set, w)) {
                        // The candidate victim is mid-transaction in another
                        // MSHR (e.g. a RootRelease about to invalidate it);
                        // retry once that transaction completes.
                        return;
                    }
                    self.arrays.dir_mut(set, w).reserved = true;
                    let mm = self.mshrs[idx].as_mut().expect("active");
                    mm.way = Some(w);
                    if victim_entry.valid {
                        let victim = self.arrays.addr_of(set, w);
                        mm.victim = Some(victim);
                        mm.to_probe = victim_entry.owners;
                        mm.probe_cap = Cap::ToN;
                        mm.state = L2MshrState::VictimProbe;
                        self.stats.evictions += 1;
                    } else {
                        mm.state = L2MshrState::MemRead;
                    }
                }
            }
            L2Req::RootRelease { source, kind, data } => {
                let resident = self.arrays.lookup(addr);
                if let Some(w) = resident {
                    let set = self.arrays.set_index(addr);
                    if let Some(d) = data {
                        // Dirty data travels with the request and is written
                        // to the BankedStore (§5.5).
                        self.arrays.set_line(set, w, d);
                        self.arrays.dir_mut(set, w).dirty = true;
                    }
                    if kind == WritebackKind::Flush {
                        // The requester invalidated its own copy before
                        // sending (§5.2 meta_write).
                        self.arrays.dir_mut(set, w).remove_owner(source);
                    } else if data.is_some() {
                        // Clean: the requester keeps the (now clean) copy;
                        // it no longer holds dirty data but retains Trunk.
                    }
                    let e = *self.arrays.dir(set, w);
                    // Probe strategy of §5.5: flush revokes every remaining
                    // owner; clean only downgrades a *foreign* write-
                    // permission owner.
                    let (targets, cap) = match kind {
                        WritebackKind::Flush | WritebackKind::Inval => (e.owners, Cap::ToN),
                        WritebackKind::Clean => {
                            if let Some(t) = e.trunk.filter(|&t| t != source) {
                                (1u32 << t, Cap::ToB)
                            } else {
                                (0, Cap::ToB)
                            }
                        }
                    };
                    let mm = self.mshrs[idx].as_mut().expect("active");
                    mm.to_probe = targets;
                    mm.probe_cap = cap;
                    mm.state = L2MshrState::OwnerProbe;
                } else if data.is_some() {
                    // Not resident but carrying dirty data: the L2 evicted
                    // the line while this RootRelease was in flight (the
                    // victim probe crossed it on the wire). The carried data
                    // is newer than the eviction's writeback — send it
                    // straight to DRAM.
                    self.mshrs[idx].as_mut().expect("active").state = L2MshrState::DramWrite;
                } else {
                    // Not resident, no data ⇒ (inclusion) no L1 holds it
                    // dirty ⇒ memory is already up to date: trivially
                    // complete (§5.5).
                    self.stats.root_release_dram_skipped += 1;
                    skipit_trace::trace!(
                        self.sink,
                        now,
                        TraceEvent::DramWriteSkipped { addr: addr.base() }
                    );
                    self.mshrs[idx].as_mut().expect("active").state = L2MshrState::SendResp;
                }
            }
        }
    }

    fn send_probes(&mut self, now: u64, idx: usize, ports: &mut L2Ports<'_>) {
        let m = self.mshrs[idx].as_mut().expect("active");
        let addr = m.victim.unwrap_or(m.addr);
        for a in 0..self.cores {
            if m.to_probe & (1 << a) == 0 {
                continue;
            }
            if !ports.b[a].can_push() {
                continue;
            }
            ports.b[a].push(
                now,
                ChannelB::Probe {
                    target: a,
                    addr,
                    cap: m.probe_cap,
                },
            );
            m.to_probe &= !(1 << a);
            m.pending_acks += 1;
            self.stats.probes_sent += 1;
        }
    }

    /// All probes for the current phase acknowledged.
    fn probes_complete(&mut self, now: u64, idx: usize) {
        let m = self.mshrs[idx].as_ref().expect("active");
        let addr = m.addr;
        match m.state {
            L2MshrState::VictimProbe => {
                let victim = m.victim.expect("victim set");
                // The victim may have been removed by a concurrent
                // transaction while we probed; nothing left to write back.
                let dirty = self
                    .arrays
                    .lookup(victim)
                    .is_some_and(|w| self.arrays.dir(self.arrays.set_index(victim), w).dirty);
                self.mshrs[idx].as_mut().expect("active").state = if dirty {
                    L2MshrState::VictimWrite
                } else {
                    L2MshrState::MemRead
                };
            }
            L2MshrState::OwnerProbe => {
                let mm = self.mshrs[idx].as_mut().expect("active");
                match mm.req {
                    L2Req::Acquire { .. } => mm.state = L2MshrState::SendResp,
                    L2Req::RootRelease { kind, .. } => {
                        let set = self.arrays.set_index(addr);
                        let w = self.arrays.lookup(addr).expect("resident");
                        let dirty = self.arrays.dir(set, w).dirty;
                        // "The last level cache already catches and
                        // eliminates unnecessary writebacks by trivially
                        // checking its dirty bit" (§5.5). CBO.INVAL never
                        // writes back — collected dirty data is discarded.
                        if dirty && kind.writes_back() {
                            mm.state = L2MshrState::DramWrite;
                        } else {
                            if kind.writes_back() {
                                self.stats.root_release_dram_skipped += 1;
                                skipit_trace::trace!(
                                    self.sink,
                                    now,
                                    TraceEvent::DramWriteSkipped { addr: addr.base() }
                                );
                            }
                            mm.state = L2MshrState::SendResp;
                        }
                    }
                }
            }
            other => panic!("probes_complete in state {other:?}"),
        }
    }

    fn send_response(&mut self, now: u64, idx: usize, ports: &mut L2Ports<'_>) {
        let m = self.mshrs[idx].as_ref().expect("active");
        let (addr, way) = (m.addr, m.way);
        match m.req {
            L2Req::Acquire { source, grow } => {
                if !ports.d[source].can_push() {
                    return;
                }
                let set = self.arrays.set_index(addr);
                let w = way.expect("way reserved");
                let e = *self.arrays.dir(set, w);
                let others = e.owners & !(1 << source);
                // Grant Trunk for writes, and opportunistically for sole
                // readers (MESI Exclusive).
                let is_trunk = grow.wants_write() || others == 0;
                let flavor = if e.dirty {
                    GrantFlavor::Dirty
                } else {
                    GrantFlavor::Clean
                };
                ports.d[source].push(
                    now,
                    ChannelD::Grant {
                        target: source,
                        addr,
                        is_trunk,
                        data: self.arrays.line(set, w),
                        flavor,
                    },
                );
                let e = self.arrays.dir_mut(set, w);
                e.add_owner(source, is_trunk);
                if !is_trunk && e.trunk == Some(source) {
                    e.trunk = None;
                }
                e.reserved = false;
                self.stats.acquires += 1;
                match flavor {
                    GrantFlavor::Clean => self.stats.grants_clean += 1,
                    GrantFlavor::Dirty => self.stats.grants_dirty += 1,
                }
                self.mshrs[idx].as_mut().expect("active").state = L2MshrState::WaitGrantAck;
            }
            L2Req::RootRelease { source, kind, .. } => {
                if !ports.d[source].can_push() {
                    return;
                }
                // A flush or inval removes the line from the whole coherent
                // hierarchy (§2.6) — unless a racing same-line RootRelease
                // merged newer dirty data while we completed (it sits
                // deferred in the ListBuffer and needs the entry to survive
                // until its own writeback; the invalidation is then its
                // job).
                if kind.invalidates() {
                    if let Some(w) = self.arrays.lookup(addr) {
                        let set = self.arrays.set_index(addr);
                        let keep_dirty = kind.writes_back() && self.arrays.dir(set, w).dirty;
                        if !keep_dirty {
                            let e = self.arrays.dir_mut(set, w);
                            debug_assert_eq!(e.owners, 0, "flush left owners behind");
                            e.valid = false;
                            e.dirty = false;
                            e.trunk = None;
                        }
                    }
                }
                ports.d[source].push(
                    now,
                    ChannelD::ReleaseAck {
                        target: source,
                        addr,
                        root: true,
                    },
                );
                match kind {
                    WritebackKind::Flush => self.stats.root_release_flush += 1,
                    WritebackKind::Clean => self.stats.root_release_clean += 1,
                    WritebackKind::Inval => self.stats.root_release_inval += 1,
                }
                skipit_trace::trace!(
                    self.sink,
                    now,
                    TraceEvent::L2MshrFree {
                        slot: idx,
                        addr: addr.base(),
                    }
                );
                self.mshrs[idx] = None;
                self.occupied.remove(idx);
            }
        }
    }
}

// --- snapshot codec (DESIGN.md §11) ---

use skipit_snap::{Codec, SnapError, SnapReader, SnapWriter};

impl Codec for L2Req {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            L2Req::Acquire { source, grow } => {
                w.put_u8(0);
                source.encode(w);
                grow.encode(w);
            }
            L2Req::RootRelease { source, kind, data } => {
                w.put_u8(1);
                source.encode(w);
                kind.encode(w);
                data.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(L2Req::Acquire {
                source: usize::decode(r)?,
                grow: Grow::decode(r)?,
            }),
            1 => Ok(L2Req::RootRelease {
                source: usize::decode(r)?,
                kind: WritebackKind::decode(r)?,
                data: Option::decode(r)?,
            }),
            _ => Err(SnapError::Corrupt("l2 request kind")),
        }
    }
}

impl Codec for L2MshrState {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            L2MshrState::Access { until } => {
                w.put_u8(0);
                until.encode(w);
            }
            L2MshrState::VictimProbe => w.put_u8(1),
            L2MshrState::VictimWrite => w.put_u8(2),
            L2MshrState::VictimWriteWait => w.put_u8(3),
            L2MshrState::MemRead => w.put_u8(4),
            L2MshrState::MemReadWait => w.put_u8(5),
            L2MshrState::OwnerProbe => w.put_u8(6),
            L2MshrState::DramWrite => w.put_u8(7),
            L2MshrState::DramWriteWait => w.put_u8(8),
            L2MshrState::SendResp => w.put_u8(9),
            L2MshrState::WaitGrantAck => w.put_u8(10),
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => L2MshrState::Access {
                until: u64::decode(r)?,
            },
            1 => L2MshrState::VictimProbe,
            2 => L2MshrState::VictimWrite,
            3 => L2MshrState::VictimWriteWait,
            4 => L2MshrState::MemRead,
            5 => L2MshrState::MemReadWait,
            6 => L2MshrState::OwnerProbe,
            7 => L2MshrState::DramWrite,
            8 => L2MshrState::DramWriteWait,
            9 => L2MshrState::SendResp,
            10 => L2MshrState::WaitGrantAck,
            _ => return Err(SnapError::Corrupt("l2 mshr state")),
        })
    }
}

impl Codec for L2Mshr {
    fn encode(&self, w: &mut SnapWriter) {
        self.addr.encode(w);
        self.req.encode(w);
        self.state.encode(w);
        self.pending_acks.encode(w);
        self.to_probe.encode(w);
        self.probe_cap.encode(w);
        self.way.encode(w);
        self.victim.encode(w);
        self.token.encode(w);
        self.wrote.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(L2Mshr {
            addr: LineAddr::decode(r)?,
            req: L2Req::decode(r)?,
            state: L2MshrState::decode(r)?,
            pending_acks: usize::decode(r)?,
            to_probe: u32::decode(r)?,
            probe_cap: Cap::decode(r)?,
            way: Option::decode(r)?,
            victim: Option::decode(r)?,
            token: u64::decode(r)?,
            wrote: Option::decode(r)?,
        })
    }
}

impl Codec for Deferred {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Deferred(ChannelC::decode(r)?))
    }
}

impl InclusiveCache {
    /// Encodes the L2's complete simulated state: directory/data/LRU
    /// arrays, every live MSHR (the occupancy bitmask is re-derived on
    /// decode), the §3.4 list buffer, the memory-request token counter, the
    /// statistics, and the MSHR-allocation stamp that keys adversarial
    /// rotation draws. Configuration, trace sink and perturbation
    /// installation are host-side and excluded.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.tag(0x4d);
        self.arrays.encode_state(w);
        w.put_u64(self.mshrs.len() as u64);
        for m in &self.mshrs {
            m.encode(w);
        }
        self.list_buffer.encode(w);
        self.next_token.encode(w);
        self.stats.encode(w);
        self.alloc_seq.encode(w);
    }

    /// Overwrites the L2's simulated state from `r` (the inverse of
    /// [`InclusiveCache::encode_state`]); array geometry and MSHR count
    /// must match the configuration this cache was built with.
    pub fn decode_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(0x4d, "l2 section")?;
        self.arrays.decode_state(r)?;
        let n = r.get_count(64, "l2 mshr count")?;
        if n != self.mshrs.len() {
            return Err(SnapError::ConfigMismatch);
        }
        for slot in &mut self.mshrs {
            *slot = Option::decode(r)?;
        }
        self.occupied = SlotMask::from_fn(n, |i| self.mshrs[i].is_some());
        self.list_buffer = VecDeque::decode(r)?;
        self.next_token = u64::decode(r)?;
        self.stats = L2Stats::decode(r)?;
        self.alloc_seq = u64::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipit_mem::DramConfig;

    struct Harness {
        l2: InclusiveCache,
        a: Vec<Link<ChannelA>>,
        b: Vec<Link<ChannelB>>,
        c: Vec<Link<ChannelC>>,
        d: Vec<Link<ChannelD>>,
        e: Vec<Link<ChannelE>>,
        mem: Dram,
        now: u64,
    }

    impl Harness {
        fn new(cores: usize) -> Self {
            Harness {
                l2: InclusiveCache::new(cores, L2Config::default()),
                a: (0..cores).map(|_| Link::new(1, 8)).collect(),
                b: (0..cores).map(|_| Link::new(1, 8)).collect(),
                c: (0..cores).map(|_| Link::new(1, 8)).collect(),
                d: (0..cores).map(|_| Link::new(1, 8)).collect(),
                e: (0..cores).map(|_| Link::new(1, 8)).collect(),
                mem: Dram::new(DramConfig {
                    read_latency: 10,
                    write_latency: 10,
                    issue_interval: 1,
                }),
                now: 0,
            }
        }

        fn step(&mut self) {
            let mut ports = L2Ports {
                a: &mut self.a,
                b: &mut self.b,
                c: &mut self.c,
                d: &mut self.d,
                e: &mut self.e,
                mem: &mut self.mem,
            };
            self.l2.step(self.now, &mut ports);
            self.now += 1;
        }

        /// Steps until core `core` receives a D message, auto-answering any
        /// probes with `probe_reply`.
        fn await_d(
            &mut self,
            core: usize,
            mut probe_reply: impl FnMut(ChannelB) -> ChannelC,
        ) -> ChannelD {
            for _ in 0..500 {
                self.step();
                for b_core in 0..self.b.len() {
                    while let Some(p) = self.b[b_core].pop(self.now) {
                        let reply = probe_reply(p);
                        self.c[b_core].push(self.now, reply);
                    }
                }
                if let Some(msg) = self.d[core].pop(self.now) {
                    return msg;
                }
            }
            panic!("no D response for core {core}");
        }

        fn acquire(&mut self, core: usize, addr: LineAddr, grow: Grow) -> ChannelD {
            self.a[core].push(
                self.now,
                ChannelA::AcquireBlock {
                    source: core,
                    addr,
                    grow,
                },
            );
            let resp = self.await_d(core, |p| {
                let ChannelB::Probe { target, addr, cap } = p;
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: match cap {
                        Cap::ToN => Shrink::BtoN,
                        Cap::ToB => Shrink::TtoB,
                        Cap::ToT => Shrink::TtoT,
                    },
                    data: None,
                }
            });
            self.e[core].push(self.now, ChannelE::GrantAck { source: core, addr });
            self.step();
            self.step();
            resp
        }

        fn root_release(
            &mut self,
            core: usize,
            addr: LineAddr,
            kind: WritebackKind,
            data: Option<LineData>,
        ) -> ChannelD {
            self.c[core].push(
                self.now,
                ChannelC::RootRelease {
                    source: core,
                    addr,
                    kind,
                    data,
                },
            );
            self.await_d(core, |p| {
                let ChannelB::Probe { target, addr, cap } = p;
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: match cap {
                        Cap::ToN => Shrink::BtoN,
                        Cap::ToB => Shrink::BtoB,
                        Cap::ToT => Shrink::TtoT,
                    },
                    data: None,
                }
            })
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n * 64)
    }

    fn data(seed: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, seed);
        d
    }

    /// The mask-based free-MSHR pick equals the slot scan it replaced — the
    /// first empty slot of `(start + k) % n` for `k = 0..n` — for every
    /// rotation start, on empty, full, single-hole, single-live and random
    /// occupancies, at the default MSHR count and at a smaller one.
    #[test]
    fn free_mshr_pick_matches_rotating_slot_scan() {
        let dummy = L2Mshr {
            addr: line(1),
            req: L2Req::Acquire {
                source: 0,
                grow: Grow::NtoB,
            },
            state: L2MshrState::WaitGrantAck,
            pending_acks: 0,
            to_probe: 0,
            probe_cap: Cap::ToN,
            way: None,
            victim: None,
            token: u64::MAX,
            wrote: None,
        };
        for n in [L2Config::default().mshrs, 5] {
            let mut l2 = InclusiveCache::new(
                1,
                L2Config {
                    mshrs: n,
                    ..L2Config::default()
                },
            );
            let mut patterns = vec![vec![false; n], vec![true; n]];
            for i in 0..n {
                let mut hole = vec![true; n];
                hole[i] = false;
                patterns.push(hole);
                let mut single = vec![false; n];
                single[i] = true;
                patterns.push(single);
            }
            // Random occupancies at densities from 1/8 to 7/8 (xorshift).
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for density in 1..8u64 {
                for _ in 0..64 {
                    patterns.push(
                        (0..n)
                            .map(|_| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                x % 8 < density
                            })
                            .collect(),
                    );
                }
            }
            for live in &patterns {
                for (slot, &l) in l2.mshrs.iter_mut().zip(live) {
                    *slot = l.then_some(dummy);
                }
                l2.occupied = SlotMask::from_fn(n, |i| live[i]);
                for start in 0..n {
                    let scan = (0..n)
                        .map(|k| (start + k) % n)
                        .find(|&i| l2.mshrs[i].is_none());
                    assert_eq!(
                        l2.free_mshr_from(start),
                        scan,
                        "n={n} start={start} live={live:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acquire_miss_fills_from_memory_and_grants_trunk() {
        let mut h = Harness::new(1);
        h.mem.write_direct(line(5), data(77));
        let resp = h.acquire(0, line(5), Grow::NtoB);
        match resp {
            ChannelD::Grant {
                is_trunk,
                data: d,
                flavor,
                ..
            } => {
                assert!(is_trunk, "sole reader gets Exclusive");
                assert_eq!(d.word(0), 77);
                assert_eq!(flavor, GrantFlavor::Clean, "fresh fill is persisted");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.l2.stats().mem_fills, 1);
        assert!(h.l2.is_quiescent());
    }

    #[test]
    fn second_reader_gets_branch() {
        let mut h = Harness::new(2);
        h.acquire(0, line(5), Grow::NtoB);
        let resp = h.acquire(1, line(5), Grow::NtoB);
        match resp {
            ChannelD::Grant { is_trunk, .. } => {
                assert!(!is_trunk, "second sharer must get Branch")
            }
            other => panic!("unexpected {other:?}"),
        }
        // Core 0 held Trunk (E) → must have been probed ToB.
        assert!(h.l2.stats().probes_sent >= 1);
    }

    #[test]
    fn write_acquire_revokes_other_owner() {
        let mut h = Harness::new(2);
        h.acquire(0, line(9), Grow::NtoB);
        let resp = h.acquire(1, line(9), Grow::NtoT);
        match resp {
            ChannelD::Grant { is_trunk, .. } => assert!(is_trunk),
            other => panic!("unexpected {other:?}"),
        }
        assert!(h.l2.stats().probes_sent >= 1);
    }

    #[test]
    fn root_release_clean_with_data_writes_dram_and_keeps_line() {
        let mut h = Harness::new(1);
        h.acquire(0, line(7), Grow::NtoT);
        let resp = h.root_release(0, line(7), WritebackKind::Clean, Some(data(42)));
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.read_direct(line(7)), data(42), "data must be durable");
        assert!(h.l2.peek_valid(line(7)), "clean keeps the L2 copy");
        assert!(!h.l2.peek_dirty(line(7)));
        assert_eq!(h.l2.stats().root_release_clean, 1);
        assert_eq!(h.l2.stats().root_release_dram_writes, 1);
    }

    #[test]
    fn root_release_flush_invalidates_l2_copy() {
        let mut h = Harness::new(1);
        h.acquire(0, line(8), Grow::NtoT);
        let resp = h.root_release(0, line(8), WritebackKind::Flush, Some(data(13)));
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.read_direct(line(8)), data(13));
        assert!(!h.l2.peek_valid(line(8)), "flush removes the L2 copy");
        assert_eq!(h.l2.stats().root_release_flush, 1);
    }

    #[test]
    fn redundant_root_release_trivially_skips_dram() {
        let mut h = Harness::new(1);
        h.acquire(0, line(7), Grow::NtoT);
        h.root_release(0, line(7), WritebackKind::Clean, Some(data(1)));
        let writes_before = h.mem.stats().writes;
        // Second clean: nothing dirty anywhere → no DRAM write (§5.5).
        h.root_release(0, line(7), WritebackKind::Clean, None);
        assert_eq!(h.mem.stats().writes, writes_before);
        assert_eq!(h.l2.stats().root_release_dram_skipped, 1);
    }

    #[test]
    fn root_release_for_unknown_line_acks_without_memory_traffic() {
        let mut h = Harness::new(1);
        let resp = h.root_release(0, line(100), WritebackKind::Flush, None);
        assert!(matches!(resp, ChannelD::ReleaseAck { root: true, .. }));
        assert_eq!(h.mem.stats().writes, 0);
        assert_eq!(h.l2.stats().root_release_dram_skipped, 1);
    }

    #[test]
    fn grant_flavor_tracks_l2_dirty_bit() {
        let mut h = Harness::new(2);
        // Core 0 writes the line and evicts it dirty into L2.
        h.acquire(0, line(3), Grow::NtoT);
        h.c[0].push(
            h.now,
            ChannelC::Release {
                source: 0,
                addr: line(3),
                shrink: Shrink::TtoN,
                data: Some(data(9)),
            },
        );
        // Wait for the ReleaseAck.
        let ack = h.await_d(0, |_| panic!("no probes expected"));
        assert!(matches!(ack, ChannelD::ReleaseAck { root: false, .. }));
        assert!(h.l2.peek_dirty(line(3)));
        // Core 1 acquires: line is dirty in L2 → GrantDataDirty (§6.1).
        let resp = h.acquire(1, line(3), Grow::NtoB);
        match resp {
            ChannelD::Grant {
                flavor, data: d, ..
            } => {
                assert_eq!(flavor, GrantFlavor::Dirty);
                assert_eq!(d.word(0), 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.l2.stats().grants_dirty, 1);
    }

    #[test]
    fn release_updates_directory_and_data() {
        let mut h = Harness::new(1);
        h.acquire(0, line(4), Grow::NtoT);
        h.c[0].push(
            h.now,
            ChannelC::Release {
                source: 0,
                addr: line(4),
                shrink: Shrink::TtoN,
                data: Some(data(5)),
            },
        );
        let ack = h.await_d(0, |_| panic!("no probes expected"));
        assert!(matches!(ack, ChannelD::ReleaseAck { root: false, .. }));
        assert!(h.l2.peek_dirty(line(4)));
        assert_eq!(h.l2.stats().releases, 1);
    }

    #[test]
    fn inclusive_eviction_probes_owner_and_writes_back() {
        // Tiny L2 (2 sets × 1 way) forces an eviction on the second line.
        let mut h = Harness {
            l2: InclusiveCache::new(
                1,
                L2Config {
                    sets: 2,
                    ways: 1,
                    ..L2Config::default()
                },
            ),
            ..Harness::new(1)
        };
        h.acquire(0, line(0), Grow::NtoT);
        // Same set (stride 2 lines), forces eviction of line 0, which core 0
        // owns dirty: the probe reply carries data.
        h.a[0].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 0,
                addr: line(2),
                grow: Grow::NtoT,
            },
        );
        let resp = h.await_d(0, |p| {
            let ChannelB::Probe { target, addr, cap } = p;
            assert_eq!(addr, line(0), "victim line must be probed");
            assert_eq!(cap, Cap::ToN);
            ChannelC::ProbeAck {
                source: target,
                addr,
                shrink: Shrink::TtoN,
                data: Some(data(66)),
            }
        });
        assert!(matches!(resp, ChannelD::Grant { .. }));
        assert_eq!(h.mem.read_direct(line(0)), data(66));
        assert_eq!(h.l2.stats().evictions, 1);
        assert_eq!(h.l2.stats().dirty_evictions, 1);
    }

    #[test]
    fn conflicting_root_release_defers_to_list_buffer() {
        let mut h = Harness::new(2);
        h.acquire(0, line(6), Grow::NtoT);
        // Start an acquire from core 1 (will probe core 0) but do not answer
        // the probe yet; meanwhile a RootRelease for the same line arrives.
        h.a[1].push(
            h.now,
            ChannelA::AcquireBlock {
                source: 1,
                addr: line(6),
                grow: Grow::NtoB,
            },
        );
        for _ in 0..30 {
            h.step();
        }
        h.c[0].push(
            h.now,
            ChannelC::RootRelease {
                source: 0,
                addr: line(6),
                kind: WritebackKind::Clean,
                data: None,
            },
        );
        for _ in 0..10 {
            h.step();
        }
        assert_eq!(h.l2.stats().list_buffered, 1);
        // Now answer the probe; both transactions must complete.
        while let Some(ChannelB::Probe { target, addr, .. }) = h.b[0].pop(h.now) {
            h.c[0].push(
                h.now,
                ChannelC::ProbeAck {
                    source: target,
                    addr,
                    shrink: Shrink::TtoB,
                    data: Some(data(2)),
                },
            );
        }
        let g = h.await_d(1, |_| panic!("probe already answered"));
        assert!(matches!(g, ChannelD::Grant { .. }));
        h.e[1].push(
            h.now,
            ChannelE::GrantAck {
                source: 1,
                addr: line(6),
            },
        );
        let ack = h.await_d(0, |p| {
            let ChannelB::Probe { target, addr, cap } = p;
            ChannelC::ProbeAck {
                source: target,
                addr,
                shrink: match cap {
                    Cap::ToB => Shrink::BtoB,
                    Cap::ToN => Shrink::BtoN,
                    Cap::ToT => Shrink::TtoT,
                },
                data: None,
            }
        });
        assert!(matches!(ack, ChannelD::ReleaseAck { root: true, .. }));
    }
}
