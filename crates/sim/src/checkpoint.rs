//! Versioned, fingerprinted snapshots of complete simulator state.
//!
//! [`Simulator::checkpoint`] captures everything the run depends on — the
//! event queue, per-flow transport state (sender and receiver
//! halves), switch queues, fault-controller state, the control-plane
//! schedule, observability cursors, and the intrinsic counters — into a
//! self-validating byte image. [`Simulator::restore`] rebuilds a simulator
//! from it that continues the run **byte-identically**: flow records,
//! JSONL traces, and telemetry streams from a checkpoint/restore cycle are
//! exactly those of the uninterrupted run, for every transport and with
//! fault plans active. The `dcnrun` supervisor leans on this to resume
//! crashed or killed jobs from their last good checkpoint.
//!
//! Checkpoints are taken between runs (outside `run`/`run_until`), when
//! the calendar holds every pending data-plane event.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! magic "DCNCKPT1" | version u32 | topo fingerprint u64 | cfg fingerprint u64
//! | now u64 | events_processed u64 | payload ... | FNV-1a of all prior bytes
//! ```
//!
//! The topology fingerprint is [`Topology::fingerprint`]; the config
//! fingerprint hashes every behavior-relevant [`SimConfig`] field (floats
//! via `to_bits`). Restore refuses images whose fingerprints do not match
//! the topology and config it is given, and any truncation or bit flip
//! fails the trailing checksum in [`Checkpoint::from_bytes`] before any
//! state is trusted.
//!
//! Not checkpointable (checkpoint returns `Err`, nothing is written):
//! oracle routing (its selector is deliberately not rebuilt on restore),
//! tracers and telemetry over arbitrary in-memory sinks, and custom queue
//! disciplines that do not implement
//! [`QueueDiscipline::snapshot_queue`](crate::switch::QueueDiscipline).

use crate::calendar::{CalEntry, CalendarQueue};
use crate::engine::{CtrlEntry, CtrlEv, Ev, Simulator};
use crate::fault::{survivor_topology_from, FaultEvent, FaultKind, RemappedSelector};
use crate::host::{Flow, FlowRx};
use crate::slab::PacketArena;
use crate::stats::{ChannelCounters, DropCounters, TraceCounters};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::{CountingTracer, JsonlTracer, NopTracer, TracerSnapshot};
use crate::types::{Ns, Packet, SimConfig};
use dcn_routing::PathSelector;
use dcn_topology::Topology;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"DCNCKPT1";
/// v4: one calendar and one packet arena (v3 carried eight per-shard
/// sections plus the cross-shard and epoch counters), split sender/
/// receiver flow halves, the counter-based gray-loss state, the
/// control-plane schedule, and the deterministic engine counter set —
/// calendar spill/fallback counters, arena high-water, ring size. The
/// wall-clock counter set is deliberately not serialized (it is not
/// simulated state).
pub const VERSION: u32 = 4;
/// magic + version + topo fp + cfg fp + now + events_processed.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of every behavior-relevant [`SimConfig`] field, so a
/// checkpoint can only be restored under the exact configuration that
/// produced it. `wall_counters` is deliberately excluded: it cannot affect
/// simulated output.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut e = Enc::new();
    e.f64(cfg.link_gbps);
    e.f64(cfg.server_link_gbps);
    e.u64(cfg.prop_delay_ns);
    e.u32(cfg.queue_pkts);
    e.u32(cfg.ecn_k_pkts);
    e.u64(cfg.flowlet_gap_ns);
    e.u32(cfg.mtu);
    e.u32(cfg.mss);
    e.u32(cfg.ack_bytes);
    e.u32(cfg.init_cwnd_pkts);
    e.u64(cfg.min_rto_ns);
    e.f64(cfg.dctcp_g);
    e.u32(cfg.host_queue_pkts);
    e.str(cfg.transport.name());
    e.str(cfg.queue_disc.name());
    e.u32(cfg.pfabric_cwnd_pkts);
    e.u64(cfg.reconverge_delay_ns);
    e.u64(cfg.max_events);
    fnv1a(&e.buf)
}

// ---- binary encoding helpers ----

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }

    fn vec_bool(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bool(x);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("checkpoint truncated".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("checkpoint corrupt: bad bool byte {b}")),
        }
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length prefix, sanity-capped so corrupt lengths fail instead of
    /// attempting enormous allocations.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err("checkpoint corrupt: length exceeds remaining bytes".into());
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| "checkpoint corrupt: invalid utf-8 string".into())
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn vec_u64(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn vec_bool(&mut self) -> Result<Vec<bool>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.bool()).collect()
    }
}

// ---- component encoders ----

fn enc_packet(e: &mut Enc, p: &Packet) {
    e.u32(p.flow);
    e.u32(p.seq);
    e.u32(p.bytes);
    e.bool(p.ecn_ce);
    e.bool(p.is_ack);
    e.bool(p.ack_ecn);
    e.u64(p.ts);
    e.u16(p.hop);
    e.u32(p.prio);
    e.vec_u32(&p.path);
}

fn dec_packet(d: &mut Dec) -> Result<Packet, String> {
    Ok(Packet {
        flow: d.u32()?,
        seq: d.u32()?,
        bytes: d.u32()?,
        ecn_ce: d.bool()?,
        is_ack: d.bool()?,
        ack_ecn: d.bool()?,
        ts: d.u64()?,
        hop: d.u16()?,
        prio: d.u32()?,
        path: Arc::new(d.vec_u32()?),
    })
}

fn enc_ev(e: &mut Enc, ev: &Ev, pkts: &PacketArena) {
    match ev {
        Ev::FlowStart(f) => {
            e.u8(0);
            e.u32(*f);
        }
        Ev::TxFree(ch) => {
            e.u8(1);
            e.u32(*ch);
        }
        // In-flight packets are serialized by value — the wire format
        // carries packets, not arena ids, so images are independent of the
        // arena's slot layout.
        Ev::Deliver(id) => {
            e.u8(2);
            enc_packet(e, pkts.get(*id));
        }
        Ev::Rto(f, epoch) => {
            e.u8(3);
            e.u32(*f);
            e.u32(*epoch);
        }
    }
}

fn dec_ev(d: &mut Dec, pkts: &mut PacketArena) -> Result<Ev, String> {
    Ok(match d.u8()? {
        0 => Ev::FlowStart(d.u32()?),
        1 => Ev::TxFree(d.u32()?),
        2 => Ev::Deliver(pkts.alloc(dec_packet(d)?)),
        3 => Ev::Rto(d.u32()?, d.u32()?),
        t => return Err(format!("checkpoint corrupt: unknown event tag {t}")),
    })
}

fn enc_ctrl(e: &mut Enc, c: &CtrlEntry) {
    e.u64(c.t);
    e.u64(c.seq);
    match c.ev {
        CtrlEv::Fault(i) => {
            e.u8(0);
            e.u32(i);
        }
        CtrlEv::Reconverge(epoch) => {
            e.u8(1);
            e.u64(epoch);
        }
    }
}

fn dec_ctrl(d: &mut Dec) -> Result<CtrlEntry, String> {
    let t = d.u64()?;
    let seq = d.u64()?;
    let ev = match d.u8()? {
        0 => CtrlEv::Fault(d.u32()?),
        1 => CtrlEv::Reconverge(d.u64()?),
        tag => return Err(format!("checkpoint corrupt: unknown control tag {tag}")),
    };
    Ok(CtrlEntry { t, seq, ev })
}

/// Sender half only; the receiver half is a separate [`FlowRx`] record.
fn enc_flow(e: &mut Enc, f: &Flow) {
    e.u32(f.src_server);
    e.u32(f.dst_server);
    e.u32(f.src_tor);
    e.u32(f.dst_tor);
    e.u64(f.size_bytes);
    e.u64(f.start_ns);
    e.u32(f.total_pkts);
    e.u32(f.next_seq);
    e.u32(f.acked);
    e.f64(f.cwnd);
    e.f64(f.ssthresh);
    e.f64(f.alpha);
    e.u32(f.ecn_acked);
    e.u64(f.ecn_total);
    e.u32(f.window_acked);
    e.u32(f.window_end);
    e.bool(f.cwnd_cut_this_window);
    e.u32(f.dupacks);
    e.bool(f.in_recovery);
    e.u32(f.recover);
    e.f64(f.srtt);
    e.u32(f.rto_backoff);
    e.u32(f.rto_epoch);
    e.u64(f.last_send_ns);
    e.u64(f.flowlet_count);
    match &f.cur_path {
        Some(p) => {
            e.bool(true);
            e.vec_u32(p);
        }
        None => e.bool(false),
    }
    e.bool(f.in_window);
    e.bool(f.failed);
    e.opt_u64(f.fault_hit_ns);
    e.opt_u64(f.recovery_ns);
    e.u64(f.path_salt);
}

fn dec_flow(d: &mut Dec) -> Result<Flow, String> {
    Ok(Flow {
        src_server: d.u32()?,
        dst_server: d.u32()?,
        src_tor: d.u32()?,
        dst_tor: d.u32()?,
        size_bytes: d.u64()?,
        start_ns: d.u64()?,
        total_pkts: d.u32()?,
        next_seq: d.u32()?,
        acked: d.u32()?,
        cwnd: d.f64()?,
        ssthresh: d.f64()?,
        alpha: d.f64()?,
        ecn_acked: d.u32()?,
        ecn_total: d.u64()?,
        window_acked: d.u32()?,
        window_end: d.u32()?,
        cwnd_cut_this_window: d.bool()?,
        dupacks: d.u32()?,
        in_recovery: d.bool()?,
        recover: d.u32()?,
        srtt: d.f64()?,
        rto_backoff: d.u32()?,
        rto_epoch: d.u32()?,
        last_send_ns: d.u64()?,
        flowlet_count: d.u64()?,
        cur_path: if d.bool()? {
            Some(Arc::new(d.vec_u32()?))
        } else {
            None
        },
        in_window: d.bool()?,
        failed: d.bool()?,
        fault_hit_ns: d.opt_u64()?,
        recovery_ns: d.opt_u64()?,
        path_salt: d.u64()?,
    })
}

fn enc_rx(e: &mut Enc, r: &FlowRx) {
    e.u32(r.total_pkts);
    e.u32(r.dst_server);
    e.u64(r.start_ns);
    e.bool(r.in_window);
    e.vec_u64(&r.rcv_bitmap);
    e.u32(r.rcv_cum);
    // rev_cache is a pure content-derived cache: restored as None and
    // repopulated on the next data packet, with identical contents.
    e.opt_u64(r.finished_ns);
    e.bool(r.failed);
}

fn dec_rx(d: &mut Dec) -> Result<FlowRx, String> {
    Ok(FlowRx {
        total_pkts: d.u32()?,
        dst_server: d.u32()?,
        start_ns: d.u64()?,
        in_window: d.bool()?,
        rcv_bitmap: d.vec_u64()?,
        rcv_cum: d.u32()?,
        rev_cache: None,
        finished_ns: d.opt_u64()?,
        failed: d.bool()?,
    })
}

fn enc_fault_kind(e: &mut Enc, k: &FaultKind) {
    match *k {
        FaultKind::LinkDown(l) => {
            e.u8(0);
            e.u32(l);
        }
        FaultKind::LinkUp(l) => {
            e.u8(1);
            e.u32(l);
        }
        FaultKind::SwitchDown(n) => {
            e.u8(2);
            e.u32(n);
        }
        FaultKind::SwitchUp(n) => {
            e.u8(3);
            e.u32(n);
        }
        FaultKind::LinkGray(l, p) => {
            e.u8(4);
            e.u32(l);
            e.f64(p);
        }
        FaultKind::LinkClear(l) => {
            e.u8(5);
            e.u32(l);
        }
    }
}

fn dec_fault_kind(d: &mut Dec) -> Result<FaultKind, String> {
    Ok(match d.u8()? {
        0 => FaultKind::LinkDown(d.u32()?),
        1 => FaultKind::LinkUp(d.u32()?),
        2 => FaultKind::SwitchDown(d.u32()?),
        3 => FaultKind::SwitchUp(d.u32()?),
        4 => FaultKind::LinkGray(d.u32()?, d.f64()?),
        5 => FaultKind::LinkClear(d.u32()?),
        t => return Err(format!("checkpoint corrupt: unknown fault tag {t}")),
    })
}

fn enc_counters(e: &mut Enc, c: &TraceCounters) {
    e.u64(c.sent_data);
    e.u64(c.sent_acks);
    e.u64(c.delivered_data);
    e.u64(c.delivered_acks);
    e.u64(c.drops.congestion);
    e.u64(c.drops.eviction);
    e.u64(c.drops.fault);
    e.u64(c.drops.noroute);
    e.u64(c.marks);
    e.u64(c.rtos);
    e.u64(c.flowlet_switches);
    e.u64(c.path_reselects);
    e.u64(c.fault_transitions);
    e.u64(c.flows_started);
    e.u64(c.flows_finished);
    e.u64(c.flows_failed);
    e.u64(c.per_channel.len() as u64);
    for ch in &c.per_channel {
        e.u64(ch.enqueues);
        e.u64(ch.dequeues);
        e.u32(ch.hwm_pkts);
        e.u64(ch.hwm_bytes);
        e.u64(ch.marks);
        e.u64(ch.drops_congestion);
        e.u64(ch.drops_eviction);
        e.u64(ch.drops_fault);
    }
}

fn dec_counters(d: &mut Dec) -> Result<TraceCounters, String> {
    let mut c = TraceCounters {
        sent_data: d.u64()?,
        sent_acks: d.u64()?,
        delivered_data: d.u64()?,
        delivered_acks: d.u64()?,
        drops: DropCounters {
            congestion: d.u64()?,
            eviction: d.u64()?,
            fault: d.u64()?,
            noroute: d.u64()?,
        },
        marks: d.u64()?,
        rtos: d.u64()?,
        flowlet_switches: d.u64()?,
        path_reselects: d.u64()?,
        fault_transitions: d.u64()?,
        flows_started: d.u64()?,
        flows_finished: d.u64()?,
        flows_failed: d.u64()?,
        per_channel: Vec::new(),
    };
    let n = d.len()?;
    c.per_channel.reserve(n);
    for _ in 0..n {
        c.per_channel.push(ChannelCounters {
            enqueues: d.u64()?,
            dequeues: d.u64()?,
            hwm_pkts: d.u32()?,
            hwm_bytes: d.u64()?,
            marks: d.u64()?,
            drops_congestion: d.u64()?,
            drops_eviction: d.u64()?,
            drops_fault: d.u64()?,
        });
    }
    Ok(c)
}

// ---- the checkpoint image ----

/// Header fields of a checkpoint, cheap to inspect without a restore —
/// `dcnrun` uses this for salvage reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    pub version: u32,
    pub topo_fingerprint: u64,
    pub cfg_fingerprint: u64,
    /// Simulated time at which the snapshot was taken.
    pub now: Ns,
    pub events_processed: u64,
}

/// A validated checkpoint image (see the module docs for the format).
#[derive(Clone)]
pub struct Checkpoint {
    data: Vec<u8>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("bytes", &self.data.len())
            .field("meta", &self.meta())
            .finish()
    }
}

impl Checkpoint {
    /// Validates and adopts a serialized image: magic, version, and the
    /// trailing whole-image checksum must all hold.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, String> {
        if data.len() < HEADER_LEN + 8 {
            return Err("checkpoint truncated: shorter than header".into());
        }
        if &data[..8] != MAGIC {
            return Err("not a checkpoint: bad magic".into());
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            ));
        }
        let body = &data[..data.len() - 8];
        let want = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if fnv1a(body) != want {
            return Err("checkpoint corrupt: checksum mismatch".into());
        }
        Ok(Checkpoint { data })
    }

    /// The serialized image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Header fields, without decoding the payload.
    pub fn meta(&self) -> CheckpointMeta {
        let u = |at: usize| u64::from_le_bytes(self.data[at..at + 8].try_into().unwrap());
        CheckpointMeta {
            version: u32::from_le_bytes(self.data[8..12].try_into().unwrap()),
            topo_fingerprint: u(12),
            cfg_fingerprint: u(20),
            now: u(28),
            events_processed: u(36),
        }
    }

    /// Writes the image crash-safely: to `<path>.tmp`, fsynced, then
    /// renamed into place and the parent directory fsynced, so `path`
    /// only ever holds a complete image and a completed save survives
    /// power loss.
    ///
    /// Each step consults the installed I/O hook (see
    /// [`install_io_hook`]) under the sites `ckpt.save.write`,
    /// `ckpt.save.fsync`, and `ckpt.save.rename`, so the
    /// crash-consistency harness can fail or kill the process at every
    /// boundary and assert that resume is byte-identical.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let tmp = format!("{path}.tmp");
        io_hook("ckpt.save.write")?;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&self.data)?;
        io_hook("ckpt.save.fsync")?;
        f.sync_all()?;
        io_hook("ckpt.save.rename")?;
        std::fs::rename(&tmp, path)?;
        // Durably record the rename in the directory entries, like
        // fsio::write_atomic does; without this a power loss can forget
        // the rename even though the image bytes themselves are durable.
        #[cfg(unix)]
        {
            let parent = match std::path::Path::new(path).parent() {
                Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
                _ => std::path::PathBuf::from("."),
            };
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    /// Reads and validates an image from disk. Consults the installed
    /// I/O hook under the site `ckpt.load`.
    pub fn load(path: &str) -> Result<Self, String> {
        io_hook("ckpt.load").map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
        let data =
            std::fs::read(path).map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
        Self::from_bytes(data)
    }
}

/// Installable I/O fault hook for checkpoint persistence.
///
/// `dcn-sim` sits below `dcn-core` in the crate graph, so it cannot call
/// `dcn_core::failpoint` directly; instead the binaries install the
/// failpoint checker here once at startup (`jobs::worker_main` does).
/// Uninstalled, every site check is a single relaxed `OnceLock` read that
/// finds nothing — effectively free.
static IO_HOOK: std::sync::OnceLock<fn(&'static str) -> std::io::Result<()>> =
    std::sync::OnceLock::new();

/// Installs `hook` as the checkpoint I/O fault checker. The first
/// installation wins; later calls (e.g. in-process test harnesses
/// spinning up several workers) are no-ops, which is fine because every
/// caller installs the same function.
pub fn install_io_hook(hook: fn(&'static str) -> std::io::Result<()>) {
    let _ = IO_HOOK.set(hook);
}

fn io_hook(site: &'static str) -> std::io::Result<()> {
    match IO_HOOK.get() {
        Some(hook) => hook(site),
        None => Ok(()),
    }
}

impl Simulator {
    /// Snapshots the complete simulator state (see the module docs).
    ///
    /// Must be called outside [`Simulator::run`] and `run_until`. Takes
    /// `&mut self` because file-backed observability sinks are flushed
    /// first, so their on-disk temporaries cover the cursors the snapshot
    /// records. Fails — without side effects on the run — when some
    /// installed component cannot be checkpointed.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, String> {
        if self.oracle.is_some() {
            return Err("oracle routing cannot be checkpointed".into());
        }
        let tracer_snap = self
            .tracer
            .snapshot()
            .ok_or("installed tracer does not support checkpointing")?;
        let telemetry_snap = match &self.telemetry {
            Some(tel) => Some(
                tel.snapshot()
                    .ok_or("installed telemetry sink does not support checkpointing")?,
            ),
            None => None,
        };
        self.tracer.flush_output();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.flush()
                .map_err(|e| format!("telemetry flush failed: {e}"))?;
        }

        let mut e = Enc::new();
        e.buf.extend_from_slice(MAGIC);
        e.u32(VERSION);
        e.u64(self.topo.fingerprint());
        e.u64(config_fingerprint(&self.cfg));
        e.u64(self.now);
        e.u64(self.events_processed);

        // Scalars.
        e.u64(self.window.0);
        e.u64(self.window.1);
        e.u64(self.window_remaining as u64);
        e.u64(self.pkts_sent);
        e.u64(self.pkts_delivered);
        e.u64(self.telemetry_next);
        e.u64(self.plan_seed);
        e.u64(self.ctrl_seq);

        // The calendar, in arbitrary internal order: pop order is
        // determined by the (t, seq) element set alone, so restore is free
        // to re-file entries into a differently sized calendar. The
        // deterministic counters ride along, and so does the organic ring
        // size, so a restore never lands on a smaller ring than the run
        // had grown.
        let q = &self.queue;
        e.u64(q.seq);
        e.u64(q.peak as u64);
        e.u64(q.ladder_spills);
        e.u64(q.scatter_fallbacks);
        e.u64(self.pkts.high_water() as u64);
        e.u64(q.num_slots() as u64);
        e.u64(q.len() as u64);
        for item in q.iter() {
            e.u64(item.t);
            e.u64(item.seq);
            enc_ev(&mut e, &item.ev, &self.pkts);
        }

        // Flows: all sender halves, then all receiver halves.
        e.u64(self.flows.len() as u64);
        for f in &self.flows {
            enc_flow(&mut e, f);
        }
        for rx in &self.rx {
            enc_rx(&mut e, rx);
        }

        // Channels.
        let chs = &self.fabric.channels;
        e.u64(chs.len() as u64);
        for i in 0..chs.len() {
            let ch = i as u32;
            e.bool(chs.busy(ch));
            e.u64(chs.drops(ch));
            e.u64(chs.marks(ch));
            e.bool(chs.up(ch));
            e.f64(chs.loss_prob(ch));
            e.u64(chs.fault_drops(ch));
            e.u64(chs.evictions(ch));
            e.u64(chs.gray_ctr(ch));
            let q = chs.snapshot_queue(ch, &self.pkts).ok_or_else(|| {
                "a channel's queue discipline does not support checkpointing".to_string()
            })?;
            e.u64(q.len() as u64);
            for p in &q {
                enc_packet(&mut e, p);
            }
        }

        // Fault controller (pure counters and masks — the gray-loss draw
        // state lives in the per-channel counters above).
        e.u64(self.faults.events.len() as u64);
        for ev in &self.faults.events {
            e.u64(ev.at_ns);
            enc_fault_kind(&mut e, &ev.kind);
        }
        e.u64(self.faults.pending as u64);
        e.u64(self.faults.epoch);
        e.vec_bool(&self.faults.down_links);
        e.vec_bool(&self.faults.down_sw);
        e.u64(self.faults.noroute_drops);

        // Remaining control-plane schedule (fault firings and
        // reconvergence completions not yet executed).
        e.u64((self.ctrl.len() - self.ctrl_pos) as u64);
        for c in &self.ctrl[self.ctrl_pos..] {
            enc_ctrl(&mut e, c);
        }

        // Goodput timeline and the routing view.
        e.vec_u64(&self.goodput_bins);
        match &self.routing_down {
            Some((dl, ds)) => {
                e.bool(true);
                e.vec_bool(dl);
                e.vec_bool(ds);
            }
            None => e.bool(false),
        }

        // Observability cursors.
        match &tracer_snap {
            TracerSnapshot::Nop => e.u8(0),
            TracerSnapshot::Counting {
                counters,
                last_t,
                time_regressions,
            } => {
                e.u8(1);
                enc_counters(&mut e, counters);
                e.u64(*last_t);
                e.u64(*time_regressions);
            }
            TracerSnapshot::JsonlFile { path, bytes, lines } => {
                e.u8(2);
                e.str(path);
                e.u64(*bytes);
                e.u64(*lines);
            }
        }
        match &telemetry_snap {
            Some(snap) => {
                e.bool(true);
                e.u64(snap.every_ns);
                e.str(&snap.path);
                e.u64(snap.samples);
                e.u64(snap.bytes);
                e.vec_u64(&snap.tx_bytes);
                e.u64(snap.tx_total);
            }
            None => e.bool(false),
        }

        let sum = fnv1a(&e.buf);
        e.u64(sum);
        Ok(Checkpoint { data: e.buf })
    }

    /// Rebuilds a simulator from a checkpoint taken on the same topology
    /// (`topo`), configuration (`cfg`), and routing scheme. `selector`
    /// must be the same *kind* of selector the original run used, built on
    /// the full topology — if faults had reconverged by checkpoint time,
    /// restore rebuilds it on the identical survivor view.
    ///
    /// The restored simulator continues byte-identically: driving it to
    /// the end produces the same flow records, trace lines, and telemetry
    /// samples the uninterrupted run would have.
    pub fn restore(
        topo: &Topology,
        selector: Box<dyn PathSelector>,
        cfg: SimConfig,
        ckpt: &Checkpoint,
    ) -> Result<Simulator, String> {
        let meta = ckpt.meta();
        if meta.topo_fingerprint != topo.fingerprint() {
            return Err(format!(
                "checkpoint topology fingerprint {:016x} does not match the given topology ({:016x})",
                meta.topo_fingerprint,
                topo.fingerprint()
            ));
        }
        if meta.cfg_fingerprint != config_fingerprint(&cfg) {
            return Err(format!(
                "checkpoint config fingerprint {:016x} does not match the given config ({:016x})",
                meta.cfg_fingerprint,
                config_fingerprint(&cfg)
            ));
        }

        let payload = &ckpt.data[HEADER_LEN..ckpt.data.len() - 8];
        let mut d = Dec::new(payload);

        let window = (d.u64()?, d.u64()?);
        let window_remaining = d.u64()? as usize;
        let pkts_sent = d.u64()?;
        let pkts_delivered = d.u64()?;
        let telemetry_next = d.u64()?;
        let plan_seed = d.u64()?;
        let ctrl_seq = d.u64()?;

        // The calendar; Deliver packets decode into a fresh arena.
        let q_seq = d.u64()?;
        let q_peak = d.u64()? as usize;
        let ladder_spills = d.u64()?;
        let scatter_fallbacks = d.u64()?;
        let arena_hwm = d.u64()? as usize;
        let num_slots = d.u64()? as usize;
        if num_slots != 0 && !num_slots.is_power_of_two() {
            return Err("checkpoint corrupt: calendar ring size not a power of two".into());
        }
        let n_items = d.len()?;
        let mut pkts = PacketArena::new();
        let mut items = Vec::with_capacity(n_items);
        for _ in 0..n_items {
            let t = d.u64()?;
            let seq = d.u64()?;
            let ev = dec_ev(&mut d, &mut pkts)?;
            items.push(CalEntry { t, seq, ev });
        }

        let n_flows = d.len()?;
        let mut flows = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            flows.push(dec_flow(&mut d)?);
        }
        let mut rxs = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            rxs.push(dec_rx(&mut d)?);
        }

        struct ChanState {
            busy: bool,
            drops: u64,
            marks: u64,
            up: bool,
            loss_prob: f64,
            fault_drops: u64,
            evictions: u64,
            gray_ctr: u64,
            queue: Vec<Packet>,
        }
        let n_channels = d.len()?;
        let mut chans = Vec::with_capacity(n_channels);
        for _ in 0..n_channels {
            let busy = d.bool()?;
            let drops = d.u64()?;
            let marks = d.u64()?;
            let up = d.bool()?;
            let loss_prob = d.f64()?;
            let fault_drops = d.u64()?;
            let evictions = d.u64()?;
            let gray_ctr = d.u64()?;
            let n_q = d.len()?;
            let mut queue = Vec::with_capacity(n_q);
            for _ in 0..n_q {
                queue.push(dec_packet(&mut d)?);
            }
            chans.push(ChanState {
                busy,
                drops,
                marks,
                up,
                loss_prob,
                fault_drops,
                evictions,
                gray_ctr,
                queue,
            });
        }

        let n_fev = d.len()?;
        let mut fault_events = Vec::with_capacity(n_fev);
        for _ in 0..n_fev {
            let at_ns = d.u64()?;
            let kind = dec_fault_kind(&mut d)?;
            fault_events.push(FaultEvent { at_ns, kind });
        }
        let pending = d.u64()? as usize;
        let epoch = d.u64()?;
        let down_links = d.vec_bool()?;
        let down_sw = d.vec_bool()?;
        let noroute_drops = d.u64()?;

        let n_ctrl = d.len()?;
        let mut ctrl = Vec::with_capacity(n_ctrl);
        for _ in 0..n_ctrl {
            ctrl.push(dec_ctrl(&mut d)?);
        }

        let goodput_bins = d.vec_u64()?;
        let routing_down = if d.bool()? {
            Some((d.vec_bool()?, d.vec_bool()?))
        } else {
            None
        };

        let tracer_snap = match d.u8()? {
            0 => TracerSnapshot::Nop,
            1 => {
                let counters = dec_counters(&mut d)?;
                let last_t = d.u64()?;
                let time_regressions = d.u64()?;
                TracerSnapshot::Counting {
                    counters,
                    last_t,
                    time_regressions,
                }
            }
            2 => {
                let path = d.str()?;
                let bytes = d.u64()?;
                let lines = d.u64()?;
                TracerSnapshot::JsonlFile { path, bytes, lines }
            }
            t => return Err(format!("checkpoint corrupt: unknown tracer tag {t}")),
        };
        let telemetry_snap = if d.bool()? {
            Some(TelemetrySnapshot {
                every_ns: d.u64()?,
                path: d.str()?,
                samples: d.u64()?,
                bytes: d.u64()?,
                tx_bytes: d.vec_u64()?,
                tx_total: d.u64()?,
            })
        } else {
            None
        };
        if d.pos != payload.len() {
            return Err("checkpoint corrupt: trailing payload bytes".into());
        }

        // Reconstruct. The selector must see the same survivor view the
        // original's last reconvergence built.
        let selector: Box<dyn PathSelector> = match &routing_down {
            Some((dl, ds)) => {
                let (survivor, map) = survivor_topology_from(topo, dl, ds);
                Box::new(RemappedSelector::new(selector.rebuild(&survivor), map))
            }
            None => selector,
        };
        let mut sim = Simulator::new(topo, selector, cfg);
        sim.now = meta.now;
        sim.events_processed = meta.events_processed;
        sim.window = window;
        sim.window_remaining = window_remaining;
        sim.pkts_sent = pkts_sent;
        sim.pkts_delivered = pkts_delivered;
        sim.telemetry_next = telemetry_next;
        sim.routing_down = routing_down;
        sim.goodput_bins = goodput_bins;
        sim.plan_seed = plan_seed;
        sim.flows = flows;
        sim.rx = rxs;
        sim.ctrl = ctrl;
        sim.ctrl_pos = 0;
        sim.ctrl_seq = ctrl_seq;

        // The calendar is rebuilt from its serialized element set; pop
        // order depends only on (t, seq), so the ring is free to be sized
        // to the checkpointed population rather than the original's
        // default (a snapshot of a huge event set restores into a
        // proportionally larger ring instead of degrading).
        sim.pkts = pkts;
        sim.pkts.set_high_water(arena_hwm);
        sim.queue = CalendarQueue::from_items(q_seq, q_peak, items, meta.now, num_slots);
        sim.queue.ladder_spills = ladder_spills;
        sim.queue.scatter_fallbacks = scatter_fallbacks;

        if sim.fabric.channels.len() != chans.len() {
            return Err("checkpoint corrupt: channel count mismatch".into());
        }
        for (i, st) in chans.into_iter().enumerate() {
            let dch = sim.fabric.channels.dyn_mut(i as u32);
            dch.busy = st.busy;
            dch.drops = st.drops;
            dch.marks = st.marks;
            dch.up = st.up;
            dch.loss_prob = st.loss_prob;
            dch.fault_drops = st.fault_drops;
            dch.evictions = st.evictions;
            dch.gray_ctr = st.gray_ctr;
            sim.fabric
                .channels
                .restore_queue(i as u32, st.queue, &mut sim.pkts);
        }

        if sim.faults.down_links.len() != down_links.len()
            || sim.faults.down_sw.len() != down_sw.len()
        {
            return Err("checkpoint corrupt: fault state size mismatch".into());
        }
        sim.faults.events = fault_events;
        sim.faults.pending = pending;
        sim.faults.epoch = epoch;
        sim.faults.down_links = down_links;
        sim.faults.down_sw = down_sw;
        sim.faults.noroute_drops = noroute_drops;

        match tracer_snap {
            TracerSnapshot::Nop => sim.set_tracer(Box::new(NopTracer)),
            TracerSnapshot::Counting {
                counters,
                last_t,
                time_regressions,
            } => sim.set_tracer(Box::new(CountingTracer {
                counters,
                last_t,
                time_regressions,
            })),
            TracerSnapshot::JsonlFile { path, bytes, lines } => {
                let t = JsonlTracer::resume(&path, bytes, lines)
                    .map_err(|e| format!("cannot resume trace file {path}: {e}"))?;
                sim.set_tracer(Box::new(t));
            }
        }
        if let Some(snap) = &telemetry_snap {
            let tel = Telemetry::resume_file(snap)
                .map_err(|e| format!("cannot resume telemetry file {}: {e}", snap.path))?;
            // Assign directly: set_telemetry would re-arm the deadline to
            // the first cadence boundary instead of the checkpointed one.
            sim.telemetry = Some(Box::new(tel));
            sim.telemetry_next = telemetry_next;
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::types::{MS, SEC};
    use dcn_routing::RoutingSuite;
    use dcn_topology::fattree::FatTree;
    use dcn_workloads::tm::Endpoint;
    use dcn_workloads::FlowEvent;

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

    fn faulty_sim(t: &Topology) -> Simulator {
        let suite = RoutingSuite::new(t);
        let mut sim = Simulator::new(t, Box::new(suite.ecmp()), SimConfig::default());
        sim.inject(&[
            flow(0.0, (0, 0), (12, 0), 8_000_000),
            flow(0.0005, (4, 1), (8, 1), 300_000),
            flow(0.001, (8, 0), (0, 1), 50_000),
        ]);
        let l = t.neighbors(0)[0].1;
        sim.set_fault_plan(&FaultPlan::new().with_seed(11).link_down(MS, l).link_gray(
            2 * MS,
            t.neighbors(12)[0].1,
            0.01,
        ));
        sim
    }

    #[test]
    fn roundtrip_preserves_flow_records() {
        let t = FatTree::full(4).build();
        let mut straight = faulty_sim(&t);
        let want = straight.run(10 * SEC);

        let mut sim = faulty_sim(&t);
        assert!(!sim.run_until(3 * MS), "run should pause mid-flight");
        let ckpt = sim.checkpoint().expect("checkpoint");
        let suite = RoutingSuite::new(&t);
        let mut resumed =
            Simulator::restore(&t, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
                .expect("restore");
        let got = resumed.run(10 * SEC);
        assert_eq!(got, want, "restored run diverged");
        assert_eq!(resumed.events_processed(), straight.events_processed());
        assert_eq!(straight.total_drops(), resumed.total_drops());
        assert_eq!(
            straight.goodput_timeline_ms(),
            resumed.goodput_timeline_ms()
        );
    }

    #[test]
    fn serialized_roundtrip_and_meta() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();
        let meta = ckpt.meta();
        assert_eq!(meta.version, 4);
        assert_eq!(meta.topo_fingerprint, t.fingerprint());
        assert_eq!(
            meta.cfg_fingerprint,
            config_fingerprint(&SimConfig::default())
        );
        assert_eq!(meta.now, 2 * MS);
        assert!(meta.events_processed > 0);
        let reparsed = Checkpoint::from_bytes(ckpt.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.meta(), meta);
    }

    #[test]
    fn config_fingerprint_ignores_wall_counters() {
        assert_eq!(
            config_fingerprint(&SimConfig::default()),
            config_fingerprint(&SimConfig::default().with_wall_counters()),
            "wall_counters must not affect the config fingerprint — it \
             cannot change simulated output"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();
        let mut bytes = ckpt.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = Checkpoint::from_bytes(bytes).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = Checkpoint::from_bytes(b"DCNCKPT1".to_vec()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = Checkpoint::from_bytes(vec![0u8; 64]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_topology_and_config() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(2 * MS);
        let ckpt = sim.checkpoint().unwrap();

        let other = FatTree::full(6).build();
        let suite = RoutingSuite::new(&other);
        let err = Simulator::restore(&other, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
            .err()
            .expect("restore on wrong topology must fail");
        assert!(err.contains("topology fingerprint"), "{err}");

        let suite = RoutingSuite::new(&t);
        let other_cfg = SimConfig {
            queue_pkts: 7,
            ..Default::default()
        };
        let err = Simulator::restore(&t, Box::new(suite.ecmp()), other_cfg, &ckpt)
            .err()
            .expect("restore under wrong config must fail");
        assert!(err.contains("config fingerprint"), "{err}");
    }

    #[test]
    fn oracle_routing_refuses_checkpoint() {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.enable_oracle_routing(&t, 4);
        sim.inject(&[flow(0.0, (0, 0), (12, 0), 100_000)]);
        sim.run_until(0);
        let err = sim.checkpoint().unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }

    #[test]
    fn restore_resizes_calendar_for_large_heaps() {
        // A checkpoint whose event population dwarfs the default calendar
        // sizing must restore into a proportionally larger ring (not
        // degrade into an overloaded 1024-slot one) and still continue
        // byte-identically.
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let mk = || {
            let suite = RoutingSuite::new(&t);
            let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
            // ~80k flows spread over 8 simulated seconds: at t=0 the
            // calendar holds 80k FlowStarts, far beyond MIN_SLOTS.
            let flows: Vec<FlowEvent> = (0..80_000usize)
                .map(|i| {
                    let src_rack = racks[i % racks.len()];
                    let dst_rack = racks[(i + 5) % racks.len()];
                    flow(
                        (i as f64) * 1e-4,
                        (src_rack, (i % 2) as u32),
                        (dst_rack, ((i / 2) % 2) as u32),
                        2_000,
                    )
                })
                .collect();
            sim.inject(&flows);
            sim
        };
        let mut straight = mk();
        let mut sim = mk();
        assert!(!sim.run_until(0), "population should still be pending");
        let ckpt = sim.checkpoint().expect("checkpoint");
        let suite = RoutingSuite::new(&t);
        let mut resumed =
            Simulator::restore(&t, Box::new(suite.ecmp()), SimConfig::default(), &ckpt)
                .expect("restore");
        let slots = resumed.queue.num_slots();
        assert!(
            slots > 1024,
            "the calendar must resize to the restored population, got {slots} slots"
        );
        straight.run_until(5 * MS);
        resumed.run_until(5 * MS);
        assert_eq!(straight.events_processed(), resumed.events_processed());
        assert_eq!(straight.records(), resumed.records());
    }

    #[test]
    fn save_and_load_are_atomic_roundtrips() {
        let t = FatTree::full(4).build();
        let mut sim = faulty_sim(&t);
        sim.run_until(MS);
        let ckpt = sim.checkpoint().unwrap();
        let dir = std::env::temp_dir().join("dcn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        let path = path.to_str().unwrap();
        ckpt.save(path).unwrap();
        let loaded = Checkpoint::load(path).unwrap();
        assert_eq!(loaded.as_bytes(), ckpt.as_bytes());
        assert!(Checkpoint::load("/nonexistent/x.ckpt").is_err());
        std::fs::remove_file(path).unwrap();
    }
}
