//! Tracing from outside the program: decorators over the simulator's
//! public trait seams and a per-layer accumulator for the spans the
//! benchmark times around its own calls into each layer.
//!
//! The decorators forward every call unchanged, so a traced run simulates
//! exactly what an untraced one does; they only count calls and add up
//! the host time spent inside them. Their per-call clock reads are what
//! makes a traced run slower, which is why end-to-end metrics come from
//! untraced runs only.

use dcn_routing::PathSelector;
use dcn_sim::{
    AckActions, EnqueueOutcome, Flow, Ns, Packet, PacketArena, PktId, QueueDiscipline, SimConfig,
    Transport,
};
use dcn_topology::{LinkId, NodeId, Topology};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer values of one iteration, keyed by metric name. Times are in
/// seconds; repeated spans under one name add up.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Runs `f`, adding its host time to the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Whether the iteration recorded `name` at all, i.e. used its layer.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

// The counters below publish no other data, so relaxed ordering suffices.

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

fn read(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

fn add_elapsed(c: &AtomicU64, t0: Instant) {
    bump(c, t0.elapsed().as_nanos() as u64);
}

/// Path-selection counters: calls, time, and links handed out.
#[derive(Debug, Default)]
pub struct SelectStats {
    calls: AtomicU64,
    hops: AtomicU64,
    ns: AtomicU64,
}

impl SelectStats {
    pub fn fold_into(&self, l: &mut Layers) {
        l.add("routing.select_calls", read(&self.calls));
        l.add("routing.select_s", read(&self.ns) / 1e9);
        l.add("routing.hops", read(&self.hops));
    }
}

/// A [`PathSelector`] that counts and times every selection.
pub struct CountingSelector {
    inner: Box<dyn PathSelector>,
    stats: Arc<SelectStats>,
}

impl CountingSelector {
    pub fn wrap(inner: Box<dyn PathSelector>, stats: &Arc<SelectStats>) -> Box<dyn PathSelector> {
        Box::new(CountingSelector {
            inner,
            stats: Arc::clone(stats),
        })
    }

    fn done(&self, t0: Instant, path: &[LinkId]) {
        bump(&self.stats.calls, 1);
        bump(&self.stats.hops, path.len() as u64);
        add_elapsed(&self.stats.ns, t0);
    }
}

impl PathSelector for CountingSelector {
    fn select(&self, src: NodeId, dst: NodeId, key: u64, bytes_sent: u64) -> Vec<LinkId> {
        let t0 = Instant::now();
        let path = self.inner.select(src, dst, key, bytes_sent);
        self.done(t0, &path);
        path
    }

    fn select_with_feedback(
        &self,
        src: NodeId,
        dst: NodeId,
        key: u64,
        bytes_sent: u64,
        ecn_marks: u64,
    ) -> Vec<LinkId> {
        let t0 = Instant::now();
        let path = self
            .inner
            .select_with_feedback(src, dst, key, bytes_sent, ecn_marks);
        self.done(t0, &path);
        path
    }

    fn rebuild(&self, topo: &Topology) -> Box<dyn PathSelector> {
        Self::wrap(self.inner.rebuild(topo), &self.stats)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Host-layer counters: ACKs and RTOs seen, time inside the transport.
#[derive(Debug, Default)]
pub struct HostStats {
    acks: AtomicU64,
    rtos: AtomicU64,
    ns: AtomicU64,
}

impl HostStats {
    pub fn fold_into(&self, l: &mut Layers) {
        l.add("host.acks", read(&self.acks));
        l.add("host.rtos", read(&self.rtos));
        l.add("host.transport_s", read(&self.ns) / 1e9);
    }
}

/// A [`Transport`] that counts ACKs and RTOs and times every call.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    stats: Arc<HostStats>,
}

impl TimedTransport {
    pub fn wrap(inner: Box<dyn Transport>, stats: &Arc<HostStats>) -> Box<dyn Transport> {
        Box::new(TimedTransport {
            inner,
            stats: Arc::clone(stats),
        })
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        self.inner.initial_cwnd(cfg)
    }

    fn on_ack(
        &self,
        f: &mut Flow,
        c: u32,
        ack_ecn: bool,
        rtt_ns: Ns,
        cfg: &SimConfig,
    ) -> AckActions {
        let t0 = Instant::now();
        let act = self.inner.on_ack(f, c, ack_ecn, rtt_ns, cfg);
        bump(&self.stats.acks, 1);
        add_elapsed(&self.stats.ns, t0);
        act
    }

    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        let t0 = Instant::now();
        self.inner.on_timeout(f, cfg);
        bump(&self.stats.rtos, 1);
        add_elapsed(&self.stats.ns, t0);
    }

    fn on_send(&self, f: &mut Flow, seq: u32, cfg: &SimConfig) {
        let t0 = Instant::now();
        self.inner.on_send(f, seq, cfg);
        add_elapsed(&self.stats.ns, t0);
    }

    fn priority(&self, f: &Flow, cfg: &SimConfig) -> u32 {
        let t0 = Instant::now();
        let p = self.inner.priority(f, cfg);
        add_elapsed(&self.stats.ns, t0);
        p
    }
}

/// Switch-layer counters, summed over every port of the fabric.
#[derive(Debug, Default)]
pub struct QueueStats {
    enqueues: AtomicU64,
    drops: AtomicU64,
    marks: AtomicU64,
    ns: AtomicU64,
}

impl QueueStats {
    pub fn fold_into(&self, l: &mut Layers) {
        l.add("switch.enqueues", read(&self.enqueues));
        l.add("switch.drops", read(&self.drops));
        l.add("switch.marks", read(&self.marks));
        l.add("switch.queue_s", read(&self.ns) / 1e9);
    }
}

/// A [`QueueDiscipline`] that counts admissions and times enqueue and
/// dequeue.
pub struct TimedQueue {
    inner: Box<dyn QueueDiscipline>,
    stats: Arc<QueueStats>,
}

impl TimedQueue {
    pub fn wrap(
        inner: Box<dyn QueueDiscipline>,
        stats: &Arc<QueueStats>,
    ) -> Box<dyn QueueDiscipline> {
        Box::new(TimedQueue {
            inner,
            stats: Arc::clone(stats),
        })
    }
}

impl QueueDiscipline for TimedQueue {
    fn enqueue(&mut self, id: PktId, pool: &mut PacketArena) -> EnqueueOutcome {
        let t0 = Instant::now();
        let out = self.inner.enqueue(id, pool);
        bump(&self.stats.enqueues, 1);
        bump(&self.stats.drops, out.dropped as u64);
        bump(&self.stats.marks, out.marked as u64);
        add_elapsed(&self.stats.ns, t0);
        out
    }

    fn dequeue(&mut self) -> Option<PktId> {
        let t0 = Instant::now();
        let id = self.inner.dequeue();
        add_elapsed(&self.stats.ns, t0);
        id
    }

    fn queue_bytes(&self) -> u64 {
        self.inner.queue_bytes()
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn snapshot_queue(&self, pool: &PacketArena) -> Option<Vec<Packet>> {
        self.inner.snapshot_queue(pool)
    }

    fn restore_queue(&mut self, pkts: Vec<Packet>, pool: &mut PacketArena) {
        self.inner.restore_queue(pkts, pool)
    }
}
