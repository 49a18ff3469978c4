//! The engine layer: event queue, clock, and dispatch loop.
//!
//! [`Simulator`] owns the three lower layers and wires them together:
//!
//! - **time** — one [`CalendarQueue`] of `(t, seq)`-ordered events; the
//!   monotonically increasing `seq` makes same-timestamp ordering (and
//!   therefore every run) deterministic,
//! - **hosts** — [`Flow`] state driven by a pluggable
//!   [`Transport`] (DCTCP by default; see [`crate::host`]),
//! - **fabric** — directed channels ([`Channels`](crate::channel::Channels),
//!   struct-of-arrays) with per-port
//!   [`QueueDiscipline`](crate::switch::QueueDiscipline)s (see
//!   [`crate::switch`]), degraded by the fault layer ([`crate::fault`]).
//!
//! # The event loop
//!
//! One sequential loop pops the earliest `(t, seq)` event and dispatches
//! it (`FlowStart`, `TxFree`, `Deliver`, `Rto`); every effect — trace
//! lines, telemetry byte counts, drop and goodput accounting — is applied
//! where it happens. Control-plane events (faults, reconvergence) and
//! telemetry sampling run inline too, before any data event at the same
//! `t`: the loop drains data events up to the earliest of those
//! deadlines, then runs whichever is due.
//!
//! In-flight packets live in one [`PacketArena`] slab and travel through
//! events and queues as dense [`PktId`]s — the per-packet path does no
//! heap allocation and no pointer chasing.
//!
//! Servers are explicit endpoints attached to their ToR by a pair of host
//! channels; switches are source-routed (the path is chosen per flowlet at
//! the sender, which exactly reproduces per-hop ECMP hashing because the
//! selector hashes per hop — see `dcn-routing`).
//!
//! The default transport is DCTCP (Alizadeh et al., SIGCOMM 2010) with the
//! paper's constants: ECN marking at 20 full packets, flowlet gap 50 µs.
//! Loss recovery is fast-retransmit on 3 duplicate ACKs plus a go-back-N
//! RTO. The engine owns the transport-independent halves of recovery
//! (timer arming/backoff, sequence rewinding, flowlet re-salting);
//! transports decide what happens to the window.

use crate::calendar::{CalEntry, CalendarQueue};
use crate::channel::Offer;
use crate::counters::{EngineCounters, ShardCounters, WallClockCounters};
use crate::fault::{component_labels, gray_drop, FaultController, FaultPlan, RemappedSelector};
use crate::host::{transport_for, ChannelPath, Flow, FlowRx, Transport};
use crate::slab::{PacketArena, PktId};
use crate::stats::{DropCounters, FlowRecord, TraceCounters};
use crate::switch::{DisciplineFactory, Fabric};
use crate::telemetry::{Sample, Telemetry};
use crate::trace::{Conservation, NopTracer, TraceEvent, Tracer};
use crate::types::{Ns, Packet, SimConfig, MS};
use dcn_routing::ecmp::hash3;
use dcn_routing::{KspSelector, PathSelector};
use dcn_topology::{NodeId, Topology};
use dcn_workloads::FlowEvent;
use std::sync::Arc;
use std::time::Instant;

const HEADER_BYTES: u32 = 40;

/// Data-plane events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    FlowStart(u32),
    TxFree(u32),
    Deliver(PktId),
    Rto(u32, u32),
}

/// Control-plane events; these mutate global state (channel up/down, the
/// path selector) and run before any data event at the same time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CtrlEv {
    /// A scheduled fault fires (index into the installed plan's events).
    Fault(u32),
    /// The control plane finishes reconverging. Tagged with an epoch so
    /// that of several queued rebuilds only the newest takes effect.
    Reconverge(u64),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct CtrlEntry {
    pub(crate) t: Ns,
    pub(crate) seq: u64,
    pub(crate) ev: CtrlEv,
}

/// The packet-level simulator.
pub struct Simulator {
    pub(crate) cfg: SimConfig,
    pub(crate) fabric: Fabric,
    /// Sender halves of every injected flow, indexed by flow id.
    pub(crate) flows: Vec<Flow>,
    /// Receiver halves, indexed like `flows`.
    pub(crate) rx: Vec<FlowRx>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) selector: Box<dyn PathSelector>,
    /// Congestion-oracle routing (§7.1 exploration): when set, flowlet
    /// paths are chosen as the least-queued of the k shortest paths,
    /// scored against live global queue occupancy.
    pub(crate) oracle: Option<KspSelector>,
    /// Seed of the installed fault plan (drives counter-based gray loss).
    pub(crate) plan_seed: u64,
    /// Cached `tracer.enabled()`: every emission site guards on this one
    /// bool so untraced runs skip event construction entirely.
    pub(crate) trace_on: bool,
    /// Pending data-plane events.
    pub(crate) queue: CalendarQueue,
    /// In-flight and queued packets, addressed by [`PktId`].
    pub(crate) pkts: PacketArena,
    pub(crate) now: Ns,
    pub(crate) window: (Ns, Ns),
    pub(crate) window_remaining: usize,
    pub(crate) events_processed: u64,
    /// The full (pre-fault) topology, kept to derive survivor views.
    pub(crate) topo: Topology,
    pub(crate) faults: FaultController,
    /// Control-plane schedule, sorted by `(t, seq)`; `ctrl_pos` is the
    /// cursor of the next entry to fire.
    pub(crate) ctrl: Vec<CtrlEntry>,
    pub(crate) ctrl_pos: usize,
    pub(crate) ctrl_seq: u64,
    /// Bytes newly acknowledged per 1-ms bin (goodput timeline).
    pub(crate) goodput_bins: Vec<u64>,
    /// The observability sink ([`crate::trace`]); [`NopTracer`] by
    /// default.
    pub(crate) tracer: Box<dyn Tracer>,
    /// The time-series sampler ([`crate::telemetry`]); `None` by default.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Cached next sample deadline (`u64::MAX` when telemetry is off).
    pub(crate) telemetry_next: Ns,
    /// Packets created (data + ACKs) — intrinsic conservation accounting.
    pub(crate) pkts_sent: u64,
    /// Packets that reached their end host.
    pub(crate) pkts_delivered: u64,
    /// The down-link / down-switch vectors behind the selector's last
    /// reconvergence rebuild (`None` while routing still sees the full
    /// topology). Checkpoints persist this so a restore can rebuild the
    /// identical survivor view.
    pub(crate) routing_down: Option<(Vec<bool>, Vec<bool>)>,
    /// Wall-clock time spent inside the event loop (zero unless
    /// `SimConfig::wall_counters`; never checkpointed).
    pub(crate) wall_drain_ns: u64,
}

/// Inserts a control event keeping `ctrl[pos..]` sorted by `(t, seq)`.
pub(crate) fn ctrl_insert(ctrl: &mut Vec<CtrlEntry>, pos: usize, seq: &mut u64, t: Ns, ev: CtrlEv) {
    let s = *seq;
    *seq += 1;
    let at = pos + ctrl[pos..].partition_point(|e| (e.t, e.seq) <= (t, s));
    ctrl.insert(at, CtrlEntry { t, seq: s, ev });
}

impl Simulator {
    /// Builds a simulator over `topo` using `selector` for ToR-to-ToR
    /// paths, with the transport and queue discipline named in `cfg`
    /// ([`SimConfig::transport`] / [`SimConfig::queue_disc`]; DCTCP over
    /// tail-drop+ECN by default). Server count and placement come from the
    /// topology's per-switch server counts.
    pub fn new(topo: &Topology, selector: Box<dyn PathSelector>, cfg: SimConfig) -> Self {
        Self::with_transport(topo, selector, cfg, transport_for(cfg.transport))
    }

    /// Like [`Simulator::new`] but with a caller-supplied [`Transport`]
    /// (external congestion-control implementations plug in here).
    pub fn with_transport(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        transport: Box<dyn Transport>,
    ) -> Self {
        let kind = cfg.queue_disc;
        Self::with_parts(topo, selector, cfg, transport, &move |cap, ecn| {
            kind.build(cap, ecn)
        })
    }

    /// Fully explicit constructor: caller-supplied transport *and* a
    /// per-channel queue-discipline factory (called with each channel's
    /// byte capacity and ECN threshold).
    pub fn with_parts(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        transport: Box<dyn Transport>,
        disc: DisciplineFactory,
    ) -> Self {
        Simulator {
            fabric: Fabric::build(topo, &cfg, disc),
            cfg,
            flows: Vec::new(),
            rx: Vec::new(),
            transport,
            selector,
            oracle: None,
            plan_seed: 0,
            trace_on: false,
            queue: CalendarQueue::new(),
            pkts: PacketArena::new(),
            now: 0,
            window: (0, Ns::MAX),
            window_remaining: 0,
            events_processed: 0,
            topo: topo.clone(),
            faults: FaultController::new(topo.num_links(), topo.num_nodes()),
            ctrl: Vec::new(),
            ctrl_pos: 0,
            ctrl_seq: 0,
            goodput_bins: Vec::new(),
            tracer: Box::new(NopTracer),
            telemetry: None,
            telemetry_next: Ns::MAX,
            pkts_sent: 0,
            pkts_delivered: 0,
            routing_down: None,
            wall_drain_ns: 0,
        }
    }

    /// Installs a [`Tracer`]; call before [`Simulator::run`]. The default
    /// is [`NopTracer`], which disables event construction altogether.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.trace_on = tracer.enabled();
        self.tracer = tracer;
    }

    /// The folded counters of the installed tracer, when it keeps any
    /// (a [`crate::trace::CountingTracer`] does).
    pub fn trace_counters(&self) -> Option<&TraceCounters> {
        self.tracer.counters()
    }

    /// Monotone-clock violations the installed tracer has observed, when
    /// it tracks them (a [`crate::trace::CountingTracer`] does; 0 on
    /// every well-behaved run).
    pub fn trace_time_regressions(&self) -> Option<u64> {
        self.tracer.time_regressions()
    }

    /// Installs a time-series [`Telemetry`] sampler; call before
    /// [`Simulator::run`]. The first sample lands on the first cadence
    /// boundary the simulation clock crosses.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry_next = telemetry.every_ns();
        self.telemetry = Some(Box::new(telemetry));
    }

    /// The installed telemetry sampler, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The conservation identity from the engine's own counters — no
    /// tracer required. `dropped` covers congestion (tail + eviction) and
    /// fault losses; no-route refusals are excluded because those packets
    /// are never created (see [`Simulator::drop_breakdown`]).
    pub fn conservation(&self) -> Conservation {
        Conservation {
            sent: self.pkts_sent,
            delivered: self.pkts_delivered,
            dropped: self.fabric.total_congestion_drops() + self.fabric.total_fault_drops(),
            in_flight: self.packets_in_flight(),
        }
    }

    /// High-water mark of the event-queue population over the run so far
    /// (the name predates the calendar queue; manifests report it).
    pub fn heap_peak(&self) -> usize {
        self.queue.peak
    }

    /// Installs a fault plan: every event goes onto the control-plane
    /// schedule and the gray-loss hash is reseeded from the plan, so the
    /// same plan (and seed) reproduces the identical run. Call before
    /// [`Simulator::run`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        plan.validate(&self.topo);
        self.plan_seed = plan.seed;
        for (at_ns, idx) in self.faults.install(plan) {
            ctrl_insert(
                &mut self.ctrl,
                self.ctrl_pos,
                &mut self.ctrl_seq,
                at_ns,
                CtrlEv::Fault(idx),
            );
        }
    }

    /// Switches the simulator to oracle congestion-aware routing: each
    /// flowlet takes whichever of the `k` shortest ToR paths currently has
    /// the least queued bytes (ties broken by the flowlet hash). This uses
    /// global instantaneous queue state no real scheme could see — use it
    /// as the adaptive-routing upper bound the paper's §7.1 asks about.
    ///
    /// The oracle scores paths on the topology it was given and is *not*
    /// rebuilt on reconvergence — don't combine it with a fault plan.
    pub fn enable_oracle_routing(&mut self, topo: &Topology, k: usize) {
        self.oracle = Some(KspSelector::new(topo, k));
    }

    /// Number of servers in the simulated network.
    pub fn num_servers(&self) -> usize {
        self.fabric.num_servers()
    }

    /// Name of the active congestion-control transport (e.g. `"dctcp"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Sets the measurement window `[start, end)`; flows starting inside
    /// it gate [`Simulator::run`]'s completion condition.
    pub fn set_window(&mut self, start: Ns, end: Ns) {
        self.window = (start, end);
    }

    /// Injects workload flows (times in seconds are converted to ns).
    /// Call after `set_window`.
    pub fn inject(&mut self, events: &[FlowEvent]) {
        for e in events {
            let start_ns = (e.start_s * 1e9) as Ns;
            let src = self.fabric.server_id(e.src.rack, e.src.server);
            let dst = self.fabric.server_id(e.dst.rack, e.dst.server);
            assert_ne!(src, dst, "flow with identical endpoints");
            let total_pkts = e.bytes.div_ceil(self.cfg.mss as u64).max(1) as u32;
            let in_window = start_ns >= self.window.0 && start_ns < self.window.1;
            if in_window {
                self.window_remaining += 1;
            }
            let id = self.flows.len() as u32;
            let f = Flow::new(
                src,
                dst,
                e.src.rack,
                e.dst.rack,
                e.bytes,
                start_ns,
                total_pkts,
                self.transport.initial_cwnd(&self.cfg),
                in_window,
            );
            self.rx.push(FlowRx::new(&f));
            self.flows.push(f);
            self.queue.push(start_ns, Ev::FlowStart(id));
        }
    }

    /// Runs until every measurement-window flow completes (or the queues
    /// drain / `max_time` is hit). Returns per-flow records.
    pub fn run(&mut self, max_time: Ns) -> Vec<FlowRecord> {
        self.run_loop(max_time, Ns::MAX);
        self.finish()
    }

    /// Runs until the simulated clock would pass `t_stop`, leaving every
    /// event after `t_stop` queued. Returns `true` if the run completed —
    /// window drained or queues empty — and `false` if it merely paused
    /// at the stop time; a paused simulator can be checkpointed and later
    /// driven on with `run` or `run_until`.
    pub fn run_until(&mut self, t_stop: Ns) -> bool {
        self.run_loop(Ns::MAX, t_stop)
    }

    /// [`Simulator::event_loop`], timed when the wall-clock counter set
    /// is on.
    fn run_loop(&mut self, max_time: Ns, t_stop: Ns) -> bool {
        if !self.cfg.wall_counters {
            return self.event_loop(max_time, t_stop);
        }
        let t0 = Instant::now();
        let done = self.event_loop(max_time, t_stop);
        self.wall_drain_ns += t0.elapsed().as_nanos() as u64;
        done
    }

    /// The loop behind [`Simulator::run`] and [`Simulator::run_until`].
    /// Returns `true` when the run completed (window drained or queues
    /// empty), `false` when it paused at `t_stop`.
    fn event_loop(&mut self, max_time: Ns, t_stop: Ns) -> bool {
        let budget = match self.cfg.max_events {
            0 => u64::MAX,
            n => n,
        };
        let end = max_time.min(t_stop);
        loop {
            let ctrl_t = self.ctrl.get(self.ctrl_pos).map(|e| e.t);
            // Data events run up to (excluding) the next control event or
            // telemetry deadline, and through `end`.
            let limit = ctrl_t
                .unwrap_or(Ns::MAX)
                .min(self.telemetry_next)
                .min(end.saturating_add(1));
            while let Some(item) = self.queue.pop_before(limit) {
                self.dispatch(item);
                if self.events_processed > budget {
                    self.watchdog();
                }
                if self.done() {
                    return true;
                }
            }
            let Some(tnext) = [self.queue.peek_t(), ctrl_t].into_iter().flatten().min() else {
                return true; // nothing left to run
            };
            if tnext > max_time {
                return true;
            }
            if tnext > t_stop {
                return false;
            }
            if self.telemetry_next <= tnext {
                self.telemetry_sample(tnext);
            } else {
                // Control plane runs before data events at the same t.
                debug_assert_eq!(ctrl_t, Some(tnext), "data event missed by the drain");
                self.fire_ctrl();
                if self.done() {
                    return true;
                }
            }
        }
    }

    fn watchdog(&self) -> ! {
        panic!(
            "event budget exceeded: {} events at t={} ns with {} window flows outstanding",
            self.events_processed, self.now, self.window_remaining
        );
    }

    fn done(&self) -> bool {
        self.window_remaining == 0 && !self.flows.is_empty()
    }

    fn dispatch(&mut self, item: CalEntry) {
        self.now = item.t;
        self.events_processed += 1;
        match item.ev {
            Ev::FlowStart(f) => self.on_flow_start(f),
            Ev::TxFree(ch) => self.on_tx_free(ch),
            Ev::Deliver(id) => self.on_deliver(id),
            Ev::Rto(f, epoch) => self.on_rto(f, epoch),
        }
    }

    /// Ends the run: fails unfinished flows, flushes the observability
    /// sinks, and returns per-flow records. [`Simulator::run`] calls this
    /// itself; callers pausing via [`Simulator::run_until`] call it once
    /// after the final segment.
    pub fn finish(&mut self) -> Vec<FlowRecord> {
        // Anything still unfinished when the run stops counts as failed,
        // so completed + failed covers every injected flow.
        for fid in 0..self.flows.len() as u32 {
            self.fail_flow(fid);
        }
        self.tracer.finish();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.finish().expect("telemetry sink flush failed");
        }
        self.records()
    }

    /// Terminates an unfinished flow as failed.
    fn fail_flow(&mut self, fid: u32) {
        let rx = &mut self.rx[fid as usize];
        let f = &mut self.flows[fid as usize];
        if rx.finished_ns.is_some() || f.failed {
            return;
        }
        f.failed = true;
        rx.failed = true;
        rx.rcv_bitmap = Vec::new();
        if f.in_window {
            self.window_remaining -= 1;
        }
        if self.trace_on {
            self.tracer
                .event(self.now, &TraceEvent::FlowFail { flow: fid });
        }
    }

    /// Per-flow outcomes.
    pub fn records(&self) -> Vec<FlowRecord> {
        self.flows
            .iter()
            .zip(&self.rx)
            .map(|(f, rx)| FlowRecord {
                start_ns: f.start_ns,
                size_bytes: f.size_bytes,
                fct_ns: rx.finished_ns.map(|t| t - f.start_ns),
                failed: f.failed,
                recovery_ns: match (f.fault_hit_ns, f.recovery_ns) {
                    (Some(hit), Some(rec)) => Some(rec - hit),
                    _ => None,
                },
            })
            .collect()
    }

    /// Total congestion tail drops across all channels.
    pub fn total_congestion_drops(&self) -> u64 {
        self.fabric.total_congestion_drops()
    }

    /// Packets lost to injected faults: dead or gray channels, plus
    /// packets that never left the host because no route existed.
    pub fn total_fault_drops(&self) -> u64 {
        self.fabric.total_fault_drops() + self.faults.noroute_drops
    }

    /// All drops, congestion and fault; equals
    /// [`Simulator::total_congestion_drops`] in fault-free runs.
    pub fn total_drops(&self) -> u64 {
        self.total_congestion_drops() + self.total_fault_drops()
    }

    /// Drops split by cause, from the fabric's own counters (no tracer
    /// required). `total()` equals [`Simulator::total_drops`].
    pub fn drop_breakdown(&self) -> DropCounters {
        let eviction = self.fabric.total_evictions();
        DropCounters {
            congestion: self.fabric.total_congestion_drops() - eviction,
            eviction,
            fault: self.fabric.total_fault_drops(),
            noroute: self.faults.noroute_drops,
        }
    }

    /// Packets currently queued at channels or on the wire (scheduled for
    /// delivery) — the in-flight term of the conservation identity when a
    /// run stops at its horizon.
    pub fn packets_in_flight(&self) -> u64 {
        let queued: u64 = (0..self.fabric.channels.len() as u32)
            .map(|id| self.fabric.channels.queue_len(id) as u64)
            .sum();
        let on_wire = self
            .queue
            .iter()
            .filter(|i| matches!(i.ev, Ev::Deliver(_)))
            .count() as u64;
        queued + on_wire
    }

    /// Bytes newly acknowledged per 1-ms bin since t=0 — the goodput
    /// timeline robustness plots are drawn from.
    pub fn goodput_timeline_ms(&self) -> &[u64] {
        &self.goodput_bins
    }

    /// Total ECN marks across all channels.
    pub fn total_marks(&self) -> u64 {
        self.fabric.total_marks()
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The deterministic engine counter set (see [`crate::counters`]):
    /// reproduced exactly by a same-seed run and preserved exactly across
    /// checkpoint/restore.
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            epochs: 0,
            shards: vec![ShardCounters {
                events: self.events_processed,
                calendar_peak: self.queue.peak as u64,
                ladder_spills: self.queue.ladder_spills,
                scatter_fallbacks: self.queue.scatter_fallbacks,
                arena_live: self.pkts.live_count() as u64,
                arena_high_water: self.pkts.high_water() as u64,
            }],
        }
    }

    /// The wall-clock counter set — all zero unless the simulator ran
    /// with [`SimConfig::wall_counters`] set. Never part of checkpoints
    /// or determinism comparisons.
    pub fn wall_clock_counters(&self) -> WallClockCounters {
        WallClockCounters {
            drain_ns: vec![self.wall_drain_ns],
            barrier_wait_ns: 0,
            mailbox_flush_ns: 0,
        }
    }

    /// Current simulated time in ns (the time of the last event run).
    pub fn now(&self) -> Ns {
        self.now
    }

    // ------------------------------------------------------ control plane

    fn fire_ctrl(&mut self) {
        let e = self.ctrl[self.ctrl_pos];
        self.ctrl_pos += 1;
        if e.t > self.now {
            self.now = e.t;
        }
        self.events_processed += 1;
        match e.ev {
            CtrlEv::Fault(i) => self.on_fault(i),
            CtrlEv::Reconverge(epoch) => self.on_reconverge(epoch),
        }
    }

    fn on_fault(&mut self, idx: u32) {
        if self.trace_on {
            let k = self.faults.kind(idx);
            self.tracer.event(
                self.now,
                &TraceEvent::Fault {
                    kind: k.label(),
                    id: k.target(),
                    loss_ppm: k.loss_ppm(),
                },
            );
        }
        if self.faults.fire(idx, &mut self.fabric) {
            // Hard (control-plane-visible) fault: reconverge after the
            // configured delay.
            let epoch = self.faults.next_epoch();
            let t = self.now + self.cfg.reconverge_delay_ns;
            ctrl_insert(
                &mut self.ctrl,
                self.ctrl_pos,
                &mut self.ctrl_seq,
                t,
                CtrlEv::Reconverge(epoch),
            );
        }
    }

    fn on_reconverge(&mut self, epoch: u64) {
        if epoch != self.faults.epoch() {
            return; // a newer fault superseded this rebuild
        }
        if self.trace_on {
            self.tracer
                .event(self.now, &TraceEvent::Reconverge { epoch });
        }
        let (survivor, map) = self.faults.survivor_topology(&self.topo);
        self.routing_down = Some(self.faults.down_state());
        let rebuilt = self.selector.rebuild(&survivor);
        self.selector = Box::new(RemappedSelector::new(rebuilt, map));
        // With no fault event still pending, connectivity is final: fail
        // flows whose endpoints are gone or in different components
        // instead of letting them back off until max_time.
        if self.faults.pending() == 0 {
            let comp = component_labels(&survivor);
            for fid in 0..self.flows.len() as u32 {
                let f = &self.flows[fid as usize];
                let dead = self.faults.switch_is_down(f.src_tor)
                    || self.faults.switch_is_down(f.dst_tor)
                    || comp[f.src_tor as usize] != comp[f.dst_tor as usize];
                if dead {
                    self.fail_flow(fid);
                }
            }
        }
    }

    /// Snapshots fabric-wide state for the cadence boundary at or before
    /// `t`, writes one sample line, and re-arms the deadline (skipping any
    /// boundaries the event gap jumped over).
    fn telemetry_sample(&mut self, t: Ns) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        let chans = &self.fabric.channels;
        let every = tel.every_ns();
        let boundary = (t / every) * every;
        let mut queued_pkts = 0u64;
        let mut queued_bytes = 0u64;
        let mut channels = Vec::new();
        for id in 0..chans.len() as u32 {
            let qlen = chans.queue_len(id) as u32;
            let qbytes = chans.queue_bytes(id);
            let tx = tel.interval_tx(id);
            queued_pkts += qlen as u64;
            queued_bytes += qbytes;
            if qlen > 0 || tx > 0 {
                channels.push((id, qlen, qbytes, tx));
            }
        }
        let mut flows_active = 0u64;
        let mut inflight_bytes = 0u64;
        for (f, rx) in self.flows.iter().zip(&self.rx) {
            if f.is_active(rx, t) {
                flows_active += 1;
                inflight_bytes += f.inflight_bytes(self.cfg.mss);
            }
        }
        let sample = Sample {
            t: boundary,
            events: self.events_processed,
            // Field name predates the calendar queue; kept for byte-stable
            // telemetry streams.
            heap: self.queue.len() as u64,
            flows_active,
            inflight_bytes,
            queued_pkts,
            queued_bytes,
            tx_bytes: tel.interval_tx_total(),
            sent: self.pkts_sent,
            delivered: self.pkts_delivered,
            marks: self.fabric.total_marks(),
            drops_congestion: self.fabric.total_congestion_drops(),
            drops_fault: self.fabric.total_fault_drops(),
            channels,
        };
        tel.write_sample(&sample)
            .expect("telemetry sink write failed");
        self.telemetry_next = boundary + every;
    }

    // --------------------------------------------------------- data plane

    fn on_flow_start(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        if f.failed {
            return; // terminated before it began (disconnected endpoints)
        }
        f.window_end = 1;
        if self.trace_on {
            let ev = TraceEvent::FlowStart {
                flow: fid,
                src: f.src_server,
                dst: f.dst_server,
                bytes: f.size_bytes,
                pkts: f.total_pkts,
            };
            self.tracer.event(self.now, &ev);
        }
        self.arm_rto(fid);
        self.pump(fid);
    }

    fn on_tx_free(&mut self, ch_id: u32) {
        if let Some(id) = self.fabric.channels.tx_done(ch_id) {
            self.start_tx(ch_id, id);
        }
    }

    fn start_tx(&mut self, ch_id: u32, id: PktId) {
        let p = self.pkts.get(id);
        let bytes = p.bytes;
        if self.trace_on {
            let ev = TraceEvent::Dequeue {
                ch: ch_id,
                flow: p.flow,
                seq: p.seq,
                is_ack: p.is_ack,
            };
            self.tracer.event(self.now, &ev);
        }
        let chans = &self.fabric.channels;
        let ser = chans.ser_ns(ch_id, bytes);
        let prop = chans.prop_ns[ch_id as usize];
        if let Some(tel) = self.telemetry.as_mut() {
            tel.on_tx(ch_id, bytes);
        }
        self.queue.push(self.now + ser, Ev::TxFree(ch_id));
        self.queue.push(self.now + ser + prop, Ev::Deliver(id));
    }

    fn send_on(&mut self, ch_id: u32, id: PktId) {
        let chans = &mut self.fabric.channels;
        let up = chans.up(ch_id);
        let loss = chans.loss_prob(ch_id);
        // Short-circuit keeps the gray counter untouched on dead wires,
        // so gray-loss draws are independent of unrelated outages.
        let lost = !up
            || (loss > 0.0 && {
                let draw = chans.gray_bump(ch_id);
                gray_drop(self.plan_seed, ch_id, draw, loss)
            });
        if lost {
            chans.add_fault_drop(ch_id);
            self.drop_fault(ch_id, id);
            return;
        }
        // The offer may free the packet, so read its identity first.
        let (flow, seq, is_ack) = {
            let p = self.pkts.get(id);
            (p.flow, p.seq, p.is_ack)
        };
        let (offer, out) = chans.offer(ch_id, id, &mut self.pkts);
        if self.trace_on {
            match offer {
                Offer::Queued => {
                    let qlen = chans.queue_len(ch_id) as u32;
                    let qbytes = chans.queue_bytes(ch_id);
                    self.tracer.event(
                        self.now,
                        &TraceEvent::Enqueue {
                            ch: ch_id,
                            flow,
                            seq,
                            is_ack,
                            qlen,
                            qbytes,
                        },
                    );
                }
                Offer::Dropped => self.tracer.event(
                    self.now,
                    &TraceEvent::DropCongestion {
                        ch: ch_id,
                        flow,
                        seq,
                        is_ack,
                    },
                ),
                Offer::StartTx => {}
            }
            if out.marked {
                self.tracer.event(
                    self.now,
                    &TraceEvent::EcnMark {
                        ch: ch_id,
                        flow,
                        seq,
                    },
                );
            }
            for &(vf, vs) in &out.evicted {
                self.tracer.event(
                    self.now,
                    &TraceEvent::DropEviction {
                        ch: ch_id,
                        flow: vf,
                        seq: vs,
                    },
                );
            }
        }
        if offer == Offer::StartTx {
            self.start_tx(ch_id, id)
        }
    }

    /// Frees a packet lost to a fault on channel `ch` (already counted
    /// there), traces the loss, and notes the flow's first fault hit.
    fn drop_fault(&mut self, ch: u32, id: PktId) {
        let p = self.pkts.get(id);
        let (flow, seq, is_ack) = (p.flow, p.seq, p.is_ack);
        self.pkts.free(id);
        if self.trace_on {
            self.tracer.event(
                self.now,
                &TraceEvent::DropFault {
                    ch,
                    flow,
                    seq,
                    is_ack,
                },
            );
        }
        self.note_fault_hit(flow);
    }

    fn on_deliver(&mut self, id: PktId) {
        let p = self.pkts.get(id);
        let (ch, flow, seq, is_ack) = (p.path[p.hop as usize], p.flow, p.seq, p.is_ack);
        if !self.fabric.channels.up(ch) {
            // The wire died while this packet was in flight (or queued
            // behind the transmitter): it is lost.
            self.fabric.channels.add_fault_drop(ch);
            self.drop_fault(ch, id);
            return;
        }
        let node = self.fabric.channels.to_node[ch as usize];
        let p = self.pkts.get_mut(id);
        p.hop += 1;
        if node < self.fabric.num_switches {
            // Switch: source-routed forward onto the next channel.
            let next = p.path[p.hop as usize];
            self.send_on(next, id);
        } else {
            self.pkts_delivered += 1;
            if self.trace_on {
                self.tracer
                    .event(self.now, &TraceEvent::Deliver { flow, seq, is_ack });
            }
            if is_ack {
                self.on_ack(id);
            } else {
                self.on_data(id);
            }
        }
    }

    fn on_data(&mut self, id: PktId) {
        let p = self.pkts.get(id);
        let (fid, seq, ecn_ce, ts) = (p.flow, p.seq, p.ecn_ce, p.ts);
        let path = p.path.clone();
        // The data packet's arena slot is released before the ACK is
        // allocated, so (LIFO free list) the ACK usually reuses it.
        self.pkts.free(id);
        let rx = &mut self.rx[fid as usize];
        if rx.failed {
            return;
        }
        debug_assert_eq!(self.fabric.num_switches + rx.dst_server, {
            let last = *path.last().unwrap();
            self.fabric.channels.to_node[last as usize]
        });
        if rx.finished_ns.is_none() {
            if rx.rcv_bitmap.is_empty() {
                // Sized at the first arrival, so flows that never
                // deliver anything allocate nothing.
                rx.rcv_bitmap = vec![0u64; (rx.total_pkts as usize).div_ceil(64)];
            }
            rx.rcv_mark(seq);
            if rx.rcv_cum == rx.total_pkts {
                rx.finished_ns = Some(self.now);
                rx.rcv_bitmap = Vec::new();
                let fct_ns = self.now - rx.start_ns;
                if rx.in_window {
                    self.window_remaining -= 1;
                }
                if self.trace_on {
                    self.tracer
                        .event(self.now, &TraceEvent::FlowFinish { flow: fid, fct_ns });
                }
            }
        }
        // Cumulative ACK retracing the data packet's route backwards.
        let rev = match &rx.rev_cache {
            Some((fwd, rev)) if Arc::ptr_eq(fwd, &path) => rev.clone(),
            _ => {
                let rev: ChannelPath = Arc::new(path.iter().rev().map(|c| c ^ 1).collect());
                rx.rev_cache = Some((path, rev.clone()));
                rev
            }
        };
        let first = rev[0];
        let ack_seq = rx.rcv_cum;
        let ack_bytes = self.cfg.ack_bytes;
        let ack = self.pkts.alloc(Packet {
            flow: fid,
            seq: ack_seq,
            bytes: ack_bytes,
            ecn_ce: false,
            is_ack: true,
            ack_ecn: ecn_ce,
            ts,
            hop: 0,
            prio: 0,
            path: rev,
        });
        self.pkts_sent += 1;
        if self.trace_on {
            self.tracer.event(
                self.now,
                &TraceEvent::Send {
                    flow: fid,
                    seq: ack_seq,
                    is_ack: true,
                    bytes: ack_bytes,
                },
            );
        }
        self.send_on(first, ack);
    }

    fn on_ack(&mut self, id: PktId) {
        let a = self.pkts.get(id);
        let (fid, c, ack_ecn, ts) = (a.flow, a.seq, a.ack_ecn, a.ts);
        self.pkts.free(id);
        let f = &mut self.flows[fid as usize];
        if f.failed || f.acked >= f.total_pkts {
            return; // sender already done (or flow terminated)
        }
        if c > f.acked {
            // Engine-side accounting of forward progress (independent of
            // the transport's window reaction).
            let newly = c - f.acked;
            let mss64 = self.cfg.mss as u64;
            // Goodput timeline: credit this ms bin with the new bytes.
            let before = (f.acked as u64 * mss64).min(f.size_bytes);
            let after = (c as u64 * mss64).min(f.size_bytes);
            let bin = (self.now / MS) as usize;
            if self.goodput_bins.len() <= bin {
                self.goodput_bins.resize(bin + 1, 0);
            }
            self.goodput_bins[bin] += after - before;
            if f.fault_hit_ns.is_some() && f.recovery_ns.is_none() {
                // First forward progress after a fault-induced loss.
                f.recovery_ns = Some(self.now);
            }
            if ack_ecn {
                // Feedback for adaptive routing is tracked regardless of
                // the transport's reaction.
                f.ecn_total += newly as u64;
            }
        }
        let rtt_ns = self.now - ts;
        let act = self.transport.on_ack(f, c, ack_ecn, rtt_ns, &self.cfg);
        if self.trace_on {
            // The window value is reported after the transport's reaction.
            let ev = TraceEvent::Ack {
                flow: fid,
                cum: c,
                ecn: ack_ecn,
                rtt_ns,
                cwnd_bytes: f.cwnd as u64,
            };
            self.tracer.event(self.now, &ev);
        }
        if act.rearm_rto {
            self.arm_rto(fid);
        }
        if let Some(seq) = act.retransmit {
            self.send_data(fid, seq);
        }
        if act.pump {
            self.pump(fid);
        }
    }

    fn arm_rto(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        f.rto_epoch = f.rto_epoch.wrapping_add(1);
        let rto = ((2.0 * f.srtt) as Ns).max(self.cfg.min_rto_ns) * f.rto_backoff as Ns;
        self.queue.push(self.now + rto, Ev::Rto(fid, f.rto_epoch));
    }

    fn on_rto(&mut self, fid: u32, epoch: u32) {
        let f = &mut self.flows[fid as usize];
        if f.rto_epoch != epoch || f.acked >= f.total_pkts || f.failed {
            return;
        }
        // The transport decides the window reaction...
        self.transport.on_timeout(f, &self.cfg);
        // ...the engine does the transport-independent go-back-N: rewind,
        // back the timer off, force a fresh flowlet (the old path may be
        // the congested one).
        f.next_seq = f.acked;
        f.in_recovery = false;
        f.rto_backoff = (f.rto_backoff * 2).min(64);
        f.cur_path = None;
        // Re-pin the flowlet hash: if the loss was a failed link the old
        // hash would keep landing on, the salt steers the retransmission
        // onto a different equal-cost choice without control-plane help.
        f.path_salt = f.path_salt.wrapping_add(1);
        if self.trace_on {
            let (backoff, salt) = (f.rto_backoff, f.path_salt);
            self.tracer
                .event(self.now, &TraceEvent::Rto { flow: fid, backoff });
            self.tracer
                .event(self.now, &TraceEvent::PathReselect { flow: fid, salt });
        }
        self.arm_rto(fid);
        self.pump(fid);
    }

    /// Records the first fault-induced loss a flow suffers, anchoring the
    /// recovery-latency measurement.
    fn note_fault_hit(&mut self, fid: u32) {
        let f = &mut self.flows[fid as usize];
        if self.rx[fid as usize].finished_ns.is_none() && !f.failed && f.fault_hit_ns.is_none() {
            f.fault_hit_ns = Some(self.now);
        }
    }

    fn pump(&mut self, fid: u32) {
        let mss = self.cfg.mss as f64;
        loop {
            let f = &mut self.flows[fid as usize];
            if f.next_seq >= f.total_pkts {
                break;
            }
            let inflight = (f.next_seq - f.acked) as f64 * mss;
            if inflight + mss > f.cwnd + 0.5 {
                break;
            }
            let seq = f.next_seq;
            f.next_seq += 1;
            self.send_data(fid, seq);
        }
    }

    fn send_data(&mut self, fid: u32, seq: u32) {
        let f = &self.flows[fid as usize];
        let needs_new = f.cur_path.is_none() || self.now - f.last_send_ns > self.cfg.flowlet_gap_ns;
        if needs_new {
            // path_salt is 0 until the first RTO, keeping fault-free runs
            // byte-identical to the unsalted flowlet hash.
            let key = hash3(
                fid as u64 ^ f.path_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                f.flowlet_count,
                0xF10_1E7,
            );
            let bytes_sent = f.next_seq as u64 * self.cfg.mss as u64;
            let path = self.build_path(f, key, bytes_sent);
            let f = &mut self.flows[fid as usize];
            f.flowlet_count += 1;
            let flowlet = f.flowlet_count;
            match path {
                Some(p) => {
                    let hops = p.len() as u32;
                    f.cur_path = Some(Arc::new(p));
                    if self.trace_on {
                        self.tracer.event(
                            self.now,
                            &TraceEvent::FlowletSwitch {
                                flow: fid,
                                flowlet,
                                hops,
                            },
                        );
                    }
                }
                None => {
                    // No route right now (selector rebuilt on a view where
                    // the pair is disconnected): drop at the source. The
                    // RTO rewinds and retries until a recovery restores
                    // the route or the flow is failed.
                    f.cur_path = None;
                    self.faults.noroute_drops += 1;
                    if self.trace_on {
                        self.tracer
                            .event(self.now, &TraceEvent::DropNoRoute { flow: fid });
                    }
                    self.note_fault_hit(fid);
                    return;
                }
            }
        }
        let cfg = &self.cfg;
        let f = &mut self.flows[fid as usize];
        self.transport.on_send(f, seq, cfg);
        f.last_send_ns = self.now;
        let payload = if seq + 1 == f.total_pkts {
            (f.size_bytes - seq as u64 * cfg.mss as u64) as u32
        } else {
            cfg.mss
        };
        let prio = self.transport.priority(f, cfg);
        let path = f.cur_path.clone().unwrap();
        let first = path[0];
        let bytes = payload + HEADER_BYTES;
        let id = self.pkts.alloc(Packet {
            flow: fid,
            seq,
            bytes,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: self.now,
            hop: 0,
            prio,
            path,
        });
        self.pkts_sent += 1;
        if self.trace_on {
            self.tracer.event(
                self.now,
                &TraceEvent::Send {
                    flow: fid,
                    seq,
                    is_ack: false,
                    bytes,
                },
            );
        }
        self.send_on(first, id);
    }

    /// Oracle scoring: queued bytes along each KSP candidate, walking the
    /// candidate's links into directed channels from `src`.
    fn least_queued(&self, ksp: &KspSelector, src: NodeId, dst: NodeId, key: u64) -> Vec<u32> {
        let candidates = ksp.candidate_paths(src, dst);
        let mut best: Option<(u64, u64, &Vec<u32>)> = None;
        for (i, links) in candidates.iter().enumerate() {
            let mut u = src;
            let mut queued = 0u64;
            for &l in links {
                let link = self.fabric.links[l as usize];
                let ch = if link.a == u { 2 * l } else { 2 * l + 1 };
                u = link.other(u);
                queued += self.fabric.channels.queue_bytes(ch);
            }
            let tie = hash3(key, i as u64, 0x07AC1E);
            if best.is_none_or(|(q, t, _)| (queued, tie) < (q, t)) {
                best = Some((queued, tie, links));
            }
        }
        best.expect("ksp returns at least one path").2.clone()
    }

    /// Builds the channel path server→…→server for a flowlet, or `None`
    /// when the selector has no route for the pair (post-fault view).
    fn build_path(&self, f: &Flow, key: u64, bytes_sent: u64) -> Option<Vec<u32>> {
        let fabric = &self.fabric;
        let up = fabric.host_ch_base + 2 * f.src_server;
        let down = fabric.host_ch_base + 2 * f.dst_server + 1;
        let mut path = Vec::with_capacity(8);
        path.push(up);
        if f.src_tor != f.dst_tor {
            let links = match &self.oracle {
                Some(ksp) => self.least_queued(ksp, f.src_tor, f.dst_tor, key),
                None => self.selector.select_with_feedback(
                    f.src_tor,
                    f.dst_tor,
                    key,
                    bytes_sent,
                    f.ecn_total,
                ),
            };
            if links.is_empty() {
                return None;
            }
            let mut u = f.src_tor;
            for l in links {
                let link = fabric.links[l as usize];
                if link.a == u {
                    path.push(2 * l);
                    u = link.b;
                } else {
                    debug_assert_eq!(link.b, u);
                    path.push(2 * l + 1);
                    u = link.a;
                }
            }
            debug_assert_eq!(u, f.dst_tor);
        }
        path.push(down);
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::compute_metrics;
    use crate::types::{MS, SEC, US};
    use dcn_routing::RoutingSuite;
    use dcn_topology::fattree::FatTree;
    use dcn_topology::xpander::Xpander;
    use dcn_workloads::tm::Endpoint;

    fn flow(start_s: f64, src: (u32, u32), dst: (u32, u32), bytes: u64) -> FlowEvent {
        FlowEvent {
            start_s,
            src: Endpoint {
                rack: src.0,
                server: src.1,
            },
            dst: Endpoint {
                rack: dst.0,
                server: dst.1,
            },
            bytes,
        }
    }

    fn fat_tree_sim() -> Simulator {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default())
    }

    #[test]
    fn single_small_flow_completes_fast() {
        let mut sim = fat_tree_sim();
        // Rack 0 server 0 → rack 12 (other pod) server 1, 10 KB.
        sim.inject(&[flow(0.0, (0, 0), (12, 1), 10_000)]);
        let rec = sim.run(SEC);
        let fct = rec[0].fct_ns.expect("flow must finish");
        // 7 packets, cwnd 10 ⇒ one window: ~6 hops × (1.2 µs + 0.1 µs).
        assert!(fct > 5 * US && fct < 100 * US, "fct {fct} ns");
    }

    #[test]
    fn long_flow_achieves_near_line_rate() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 10_000_000)]);
        let rec = sim.run(10 * SEC);
        let fct = rec[0].fct_ns.unwrap() as f64;
        let gbps = 10_000_000.0 * 8.0 / fct;
        assert!(gbps > 8.0, "throughput {gbps} Gbps");
    }

    #[test]
    fn same_rack_flow_works() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (0, 1), 100_000)]);
        let rec = sim.run(SEC);
        assert!(rec[0].fct_ns.is_some());
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        // Two senders on different racks to the same destination server:
        // the server downlink is the bottleneck; DCTCP should split it.
        let mut sim = fat_tree_sim();
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 5_000_000),
            flow(0.0, (4, 0), (12, 0), 5_000_000),
        ]);
        let rec = sim.run(30 * SEC);
        let f0 = rec[0].fct_ns.unwrap() as f64;
        let f1 = rec[1].fct_ns.unwrap() as f64;
        // Each gets ≈5 Gbps ⇒ ≈8 ms; allow generous slack.
        for f in [f0, f1] {
            let gbps = 5_000_000.0 * 8.0 / f;
            assert!(gbps > 3.0 && gbps < 7.5, "per-flow {gbps} Gbps");
        }
        assert!((f0 / f1 - 1.0).abs() < 0.5, "unfair split {f0} vs {f1}");
    }

    #[test]
    fn ecn_prevents_drops_at_moderate_fanin() {
        let mut sim = fat_tree_sim();
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 2_000_000),
            flow(0.0, (4, 0), (12, 0), 2_000_000),
        ]);
        sim.run(30 * SEC);
        assert!(sim.total_marks() > 0, "DCTCP should be marking");
        assert_eq!(sim.total_drops(), 0, "ECN should prevent drops");
    }

    #[test]
    fn survives_heavy_incast_with_drops() {
        // 8-to-1 incast into one server at tiny queues: drops happen but
        // all flows still complete via retransmission.
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let cfg = SimConfig {
            queue_pkts: 10,
            ecn_k_pkts: 4,
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        let racks = [4u32, 5, 8, 9];
        let flows: Vec<FlowEvent> = (0..8)
            .map(|i| flow(0.0, (racks[i % 4], (i / 4) as u32), (0, 0), 500_000))
            .collect();
        sim.inject(&flows);
        let rec = sim.run(60 * SEC);
        assert!(sim.total_drops() > 0, "expected drops at queue=10");
        for r in &rec {
            assert!(r.fct_ns.is_some(), "flow lost to incast");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = fat_tree_sim();
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0001, (4, 1), (8, 1), 300_000),
                flow(0.0002, (8, 0), (0, 1), 50_000),
            ]);
            sim.run(10 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vlb_and_hyb_complete_on_xpander() {
        let t = Xpander::new(5, 8, 2, 3).build();
        for mode in 0..3 {
            let suite = RoutingSuite::new(&t);
            let sel: Box<dyn PathSelector> = match mode {
                0 => Box::new(suite.ecmp()),
                1 => Box::new(suite.vlb()),
                _ => Box::new(suite.hyb(dcn_routing::PAPER_Q_BYTES)),
            };
            let mut sim = Simulator::new(&t, sel, SimConfig::default());
            sim.inject(&[
                flow(0.0, (0, 0), (1, 0), 2_000_000),
                flow(0.0, (2, 1), (7, 1), 50_000),
            ]);
            let rec = sim.run(10 * SEC);
            assert!(
                rec.iter().all(|r| r.fct_ns.is_some()),
                "mode {mode} incomplete"
            );
        }
    }

    #[test]
    fn newreno_fills_queues_where_dctcp_marks() {
        // Same fan-in: DCTCP keeps queues at K via marks; NewReno runs
        // them into tail drops instead.
        let t = FatTree::full(4).build();
        let mk = |cfg: SimConfig| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 4_000_000),
                flow(0.0, (4, 0), (12, 0), 4_000_000),
            ]);
            let rec = sim.run(60 * SEC);
            assert!(rec.iter().all(|r| r.fct_ns.is_some()));
            (sim.total_marks(), sim.total_drops())
        };
        let (dctcp_marks, dctcp_drops) = mk(SimConfig::default());
        let (_, reno_drops) = mk(SimConfig::default().with_newreno());
        assert!(dctcp_marks > 0);
        assert_eq!(dctcp_drops, 0, "DCTCP should avoid drops here");
        assert!(reno_drops > 0, "NewReno should be loss-driven");
    }

    #[test]
    fn pfabric_completes_and_never_marks() {
        // The new transport/queue pair runs end-to-end through the same
        // engine: fan-in traffic completes, schedules by remaining size,
        // and produces no ECN marks (pFabric has no marking).
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(
            &t,
            Box::new(suite.ecmp()),
            SimConfig::default().with_pfabric(),
        );
        assert_eq!(sim.transport_name(), "pfabric");
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 4_000_000),
            flow(0.0, (4, 0), (12, 0), 4_000_000),
            flow(0.0, (8, 0), (12, 0), 50_000),
        ]);
        let rec = sim.run(60 * SEC);
        assert!(rec.iter().all(|r| r.fct_ns.is_some()), "pfabric incomplete");
        assert_eq!(sim.total_marks(), 0, "pfabric must not ECN-mark");
        // Strict priority: the short flow finishes far ahead of the long
        // ones it shares the destination downlink with.
        let short = rec[2].fct_ns.unwrap();
        let long = rec[0].fct_ns.unwrap().min(rec[1].fct_ns.unwrap());
        assert!(
            short * 10 < long,
            "short flow {short} ns should preempt long {long} ns"
        );
    }

    #[test]
    fn pfabric_deterministic_across_runs() {
        let run = || {
            let t = FatTree::full(4).build();
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(
                &t,
                Box::new(suite.ecmp()),
                SimConfig::default().with_pfabric(),
            );
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0001, (4, 1), (8, 1), 300_000),
            ]);
            sim.run(10 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oracle_routing_beats_ecmp_between_neighbors() {
        // The Fig 7b pathology: all traffic between two adjacent racks.
        // ECMP is stuck on the direct link; the oracle spreads flowlets
        // over the least-queued of the k shortest paths.
        let t = Xpander::new(5, 8, 3, 3).build();
        let l = t.link(0);
        let flows: Vec<FlowEvent> = (0..6)
            .map(|i| flow(0.0, (l.a, i % 3), (l.b, (i + 1) % 3), 3_000_000))
            .collect();
        let run = |oracle: bool| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            if oracle {
                sim.enable_oracle_routing(&t, 8);
            }
            sim.inject(&flows);
            let rec = sim.run(60 * SEC);
            rec.iter().map(|r| r.fct_ns.unwrap()).max().unwrap()
        };
        let ecmp = run(false);
        let oracle = run(true);
        assert!(
            (oracle as f64) < ecmp as f64 * 0.75,
            "oracle {oracle} not clearly better than ecmp {ecmp}"
        );
    }

    #[test]
    fn oracle_routing_deterministic() {
        let t = Xpander::new(4, 6, 2, 1).build();
        let run = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            sim.enable_oracle_routing(&t, 4);
            sim.inject(&[
                flow(0.0, (0, 0), (9, 1), 800_000),
                flow(0.0001, (3, 1), (12, 0), 500_000),
            ]);
            sim.run(30 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn window_gating_stops_run() {
        let mut sim = fat_tree_sim();
        sim.set_window(0, MS);
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 10_000),
            // Outside the window; the run may stop before it finishes.
            flow(1.0, (4, 0), (8, 0), 10_000),
        ]);
        let rec = sim.run(10 * SEC);
        assert!(rec[0].fct_ns.is_some());
        let m = compute_metrics(&rec, 0, MS);
        assert_eq!(m.flows, 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn flow_survives_link_down_then_up() {
        // Kill the only inter-rack link mid-flow, restore it later: the
        // flow must lose packets to the fault, stall, and still finish
        // after recovery.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 2);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 2);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 5_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(MS, 0).link_up(20 * MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(sim.total_fault_drops() > 0, "no packets hit the dead link");
        let fct = rec[0].fct_ns.expect("flow must finish after recovery");
        assert!(!rec[0].failed);
        // 5 MB at 10 Gbps is ~4 ms; the 19 ms outage dominates the FCT.
        assert!(
            fct > 19 * MS,
            "fct {fct} ns too fast to have seen the outage"
        );
        let recovery = rec[0].recovery_ns.expect("flow should have recovered");
        assert!(recovery > 0 && recovery < 40 * MS, "recovery {recovery} ns");
    }

    #[test]
    fn fault_drops_separate_from_congestion_drops() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 2_000_000)]);
        // Take down one of ToR 0's uplinks, which the flow may hash onto;
        // ECMP re-salts around it via RTO, no congestion drops expected.
        let l = t.neighbors(0)[0].1;
        sim.set_fault_plan(&FaultPlan::new().link_down(0, l).link_up(30 * MS, l));
        sim.run(60 * SEC);
        assert_eq!(sim.total_congestion_drops(), 0);
        assert_eq!(sim.total_drops(), sim.total_fault_drops());
    }

    #[test]
    fn gray_link_drops_but_flow_completes() {
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 1);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 1);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().with_seed(7).link_gray(0, 0, 0.02));
        let rec = sim.run(60 * SEC);
        assert!(
            sim.total_fault_drops() > 0,
            "2% loss should hit ~685 packets"
        );
        assert_eq!(sim.total_congestion_drops(), 0);
        assert!(rec[0].fct_ns.is_some(), "flow must survive gray loss");
    }

    #[test]
    fn gray_loss_and_outages_are_deterministic() {
        // Counter-based gray draws are keyed on (plan seed, channel,
        // per-channel draw index) — no shared RNG stream — so a fault
        // plan replays exactly.
        let t = FatTree::full(4).build();
        let run = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 1_000_000),
                flow(0.0, (4, 0), (12, 1), 1_000_000),
            ]);
            let l = t.neighbors(0)[0].1;
            sim.set_fault_plan(
                &FaultPlan::new()
                    .with_seed(11)
                    .link_gray(0, l, 0.01)
                    .link_down(2 * MS, l)
                    .link_up(8 * MS, l),
            );
            let rec = sim.run(60 * SEC);
            (
                rec.iter()
                    .map(|r| (r.fct_ns, r.failed, r.recovery_ns))
                    .collect::<Vec<_>>(),
                sim.total_fault_drops(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn permanent_disconnection_fails_flows() {
        // Two racks joined by one link; cutting it forever must fail the
        // inter-rack flow (after reconvergence) while the same-rack flow
        // completes — and the run must terminate, not hang.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 2);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 2);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[
            flow(0.0, (0, 0), (1, 0), 5_000_000),
            flow(0.0, (0, 0), (0, 1), 100_000),
        ]);
        sim.set_fault_plan(&FaultPlan::new().link_down(MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(rec[0].failed, "disconnected flow must be failed");
        assert!(rec[0].fct_ns.is_none());
        assert!(rec[1].fct_ns.is_some(), "same-rack flow unaffected");
        let m = compute_metrics(&rec, 0, SEC);
        assert_eq!(m.flows, 2);
        assert_eq!(m.completed + m.failed, 2);
    }

    #[test]
    fn switch_down_and_up_behaves_like_links() {
        // Killing an aggregation switch in a k=4 fat-tree leaves 3 others;
        // flows reroute and complete. ToR 0's rack is NOT behind it.
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 2_000_000)]);
        // Node ids: ToRs come first (16), then aggs. Kill the first agg.
        let agg = (0..t.num_nodes() as u32)
            .find(|&n| t.kind(n) == dcn_topology::NodeKind::Aggregation)
            .unwrap();
        sim.set_fault_plan(
            &FaultPlan::new()
                .switch_down(MS, agg)
                .switch_up(10 * MS, agg),
        );
        let rec = sim.run(60 * SEC);
        assert!(rec[0].fct_ns.is_some(), "flow must survive an agg failure");
    }

    #[test]
    fn rto_backoff_doubles_then_resets_on_ack() {
        // Drive repeated RTOs by cutting the only link, then verify the
        // documented backoff law on the private flow state: doubling per
        // epoch, capped at 64, reset to 1 by the first new ACK.
        let t = {
            let mut t = dcn_topology::Topology::new("two-racks");
            let a = t.add_node(dcn_topology::NodeKind::Tor, 1);
            let b = t.add_node(dcn_topology::NodeKind::Tor, 1);
            t.add_link(a, b);
            t
        };
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(0, 0).link_up(400 * MS, 0));
        // Long outage ⇒ many RTO epochs: 1,2,4,...,64,64,... Run up to
        // just before recovery and check the cap was reached.
        sim.run(399 * MS);
        assert_eq!(
            sim.flows[0].rto_backoff, 64,
            "backoff should saturate at 64"
        );
        assert!(
            sim.flows[0].path_salt > 0,
            "RTOs must re-salt the path hash"
        );
        // Fresh sim, same plan, run to completion: new ACKs reset backoff.
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[flow(0.0, (0, 0), (1, 0), 1_000_000)]);
        sim.set_fault_plan(&FaultPlan::new().link_down(0, 0).link_up(400 * MS, 0));
        let rec = sim.run(60 * SEC);
        assert!(rec[0].fct_ns.is_some());
        assert_eq!(sim.flows[0].rto_backoff, 1, "ACKs must reset the backoff");
    }

    #[test]
    fn goodput_timeline_accounts_all_bytes() {
        let mut sim = fat_tree_sim();
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 3_000_000)]);
        sim.run(60 * SEC);
        let total: u64 = sim.goodput_timeline_ms().iter().sum();
        // The run stops when the receiver finishes, so up to one window of
        // final ACKs may never reach the sender's accounting.
        assert!(total <= 3_000_000, "timeline over-credits: {total}");
        assert!(total > 2_800_000, "timeline under-credits: {total}");
    }

    #[test]
    #[should_panic(expected = "event budget exceeded")]
    fn watchdog_trips_on_event_budget() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let cfg = SimConfig {
            max_events: 50,
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 10_000_000)]);
        sim.run(60 * SEC);
    }

    #[test]
    fn unconstrained_server_links_speed_up_fanin() {
        // With 1000 Gbps host links, two senders into one server are no
        // longer bottlenecked at the destination downlink.
        let t = FatTree::full(4).build();
        let mk = |cfg: SimConfig| {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
            sim.inject(&[
                flow(0.0, (0, 0), (12, 0), 3_000_000),
                flow(0.0, (4, 0), (12, 0), 3_000_000),
            ]);
            let rec = sim.run(30 * SEC);
            rec.iter().map(|r| r.fct_ns.unwrap()).max().unwrap()
        };
        let constrained = mk(SimConfig::default());
        let unconstrained = mk(SimConfig::default().unconstrained_servers());
        assert!(
            (unconstrained as f64) < constrained as f64 * 0.8,
            "unconstrained {unconstrained} vs constrained {constrained}"
        );
    }
}
