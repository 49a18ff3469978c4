//! Directed channels: pluggable output queues plus serializing
//! transmitters, stored struct-of-arrays.
//!
//! Every undirected topology link is two channels; every server has an
//! up-channel (server→ToR) and a down-channel (ToR→server). *How* packets
//! queue — tail-drop FIFO with ECN marking, pFabric strict priority, … —
//! is the owned [`QueueDiscipline`]'s decision (see [`crate::switch`]);
//! the channel layer itself only models the transmitter, the wire, and
//! the fault state.
//!
//! [`Channels`] keeps the immutable per-channel fields (endpoints, rates,
//! precomputed serialization times) in dense `Vec`s indexed by channel
//! id, and the mutable transmitter state in one [`ChanDyn`] record per
//! channel. The serialization-time cache for the two wire sizes that
//! dominate every run (full MTU data packets and ACKs) removes the float
//! divide from the common case.

use crate::slab::{PacketArena, PktId};
use crate::switch::{EnqueueOutcome, QueueDiscipline};
use crate::types::{Ns, Packet};

/// Result of offering a packet to a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// Channel idle: caller must schedule TxFree(now + ser) and
    /// Deliver(now + ser + prop).
    StartTx,
    /// Queued behind the current transmission.
    Queued,
    /// The offered packet was dropped by the queue discipline (and its
    /// arena slot freed).
    Dropped,
}

/// The mutable half of one channel.
pub(crate) struct ChanDyn {
    /// A packet is currently being serialized.
    pub(crate) busy: bool,
    /// Fault state: a hard-failed channel delivers nothing. The fault
    /// layer flips this (never the channel layer itself) and the engine drops
    /// packets at the offer and delivery points, so queued packets drain
    /// onto the dead wire and are lost — "in-flight packets are lost on
    /// failure".
    pub(crate) up: bool,
    /// Gray-failure per-packet drop probability (0.0 = healthy).
    pub(crate) loss_prob: f64,
    /// Cached `disc.queue_len()`, so the per-event path can check for an
    /// empty queue without dereferencing the discipline's `Box<dyn>`.
    pub(crate) qlen: u32,
    /// Congestion drops (tail or priority-evicted), for stats and tests.
    pub(crate) drops: u64,
    /// ECN marks applied.
    pub(crate) marks: u64,
    /// Packets lost to hard or gray faults on the channel.
    pub(crate) fault_drops: u64,
    /// Queued packets evicted by the discipline to admit more urgent
    /// ones — a subset of `drops`, split out so drops can be reported by
    /// cause.
    pub(crate) evictions: u64,
    /// Gray-loss draw counter: each offered packet on a lossy channel
    /// bumps it, and the (seed, channel, counter) hash decides the drop,
    /// so gray draws on one channel never depend on traffic elsewhere.
    pub(crate) gray_ctr: u64,
    /// The output queue feeding the transmitter.
    pub(crate) disc: Box<dyn QueueDiscipline>,
}

/// All directed channels of a fabric: dense static `Vec`s plus one
/// [`ChanDyn`] record per channel.
pub struct Channels {
    /// Node (switch or server, in the simulator's global id space) that
    /// packets *leaving* the channel arrive at.
    pub(crate) to_node: Vec<u32>,
    /// Bytes per nanosecond.
    pub(crate) rate_bpns: Vec<f64>,
    pub(crate) prop_ns: Vec<Ns>,
    /// Precomputed [`Channels::ser_ns`] for a full-MTU packet.
    ser_mtu_ns: Vec<Ns>,
    /// Precomputed [`Channels::ser_ns`] for an ACK.
    ser_ack_ns: Vec<Ns>,
    state: Vec<ChanDyn>,
    mtu_bytes: u32,
    ack_bytes: u32,
}

impl Channels {
    /// An empty table; `mtu_bytes`/`ack_bytes` are the two wire sizes the
    /// serialization-time cache covers.
    pub(crate) fn new(mtu_bytes: u32, ack_bytes: u32) -> Self {
        Channels {
            to_node: Vec::new(),
            rate_bpns: Vec::new(),
            prop_ns: Vec::new(),
            ser_mtu_ns: Vec::new(),
            ser_ack_ns: Vec::new(),
            state: Vec::new(),
            mtu_bytes,
            ack_bytes,
        }
    }

    /// Appends one channel and returns its id.
    pub(crate) fn push(
        &mut self,
        to_node: u32,
        gbps: f64,
        prop_ns: Ns,
        disc: Box<dyn QueueDiscipline>,
    ) -> u32 {
        let id = self.to_node.len() as u32;
        let rate_bpns = gbps / 8.0;
        self.to_node.push(to_node);
        self.rate_bpns.push(rate_bpns);
        self.prop_ns.push(prop_ns);
        self.ser_mtu_ns
            .push((self.mtu_bytes as f64 / rate_bpns).ceil() as Ns);
        self.ser_ack_ns
            .push((self.ack_bytes as f64 / rate_bpns).ceil() as Ns);
        self.state.push(ChanDyn {
            busy: false,
            up: true,
            loss_prob: 0.0,
            qlen: 0,
            drops: 0,
            marks: 0,
            fault_drops: 0,
            evictions: 0,
            gray_ctr: 0,
            disc,
        });
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.to_node.len()
    }

    #[inline]
    fn d(&self, ch: u32) -> &ChanDyn {
        &self.state[ch as usize]
    }

    /// Full mutable access to one channel's dynamic state.
    #[inline]
    pub(crate) fn dyn_mut(&mut self, ch: u32) -> &mut ChanDyn {
        &mut self.state[ch as usize]
    }

    #[inline]
    pub(crate) fn up(&self, ch: u32) -> bool {
        self.d(ch).up
    }

    pub(crate) fn set_up(&mut self, ch: u32, up: bool) {
        self.dyn_mut(ch).up = up;
    }

    #[inline]
    pub(crate) fn loss_prob(&self, ch: u32) -> f64 {
        self.d(ch).loss_prob
    }

    pub(crate) fn set_loss_prob(&mut self, ch: u32, p: f64) {
        self.dyn_mut(ch).loss_prob = p;
    }

    pub(crate) fn busy(&self, ch: u32) -> bool {
        self.d(ch).busy
    }

    pub(crate) fn drops(&self, ch: u32) -> u64 {
        self.d(ch).drops
    }

    pub(crate) fn marks(&self, ch: u32) -> u64 {
        self.d(ch).marks
    }

    pub(crate) fn evictions(&self, ch: u32) -> u64 {
        self.d(ch).evictions
    }

    pub(crate) fn fault_drops(&self, ch: u32) -> u64 {
        self.d(ch).fault_drops
    }

    /// Counts one packet lost to a fault on channel `ch` (at the offer
    /// point or on arrival over a dead wire).
    pub(crate) fn add_fault_drop(&mut self, ch: u32) {
        self.dyn_mut(ch).fault_drops += 1;
    }

    /// The gray-loss draw counter (checkpointed).
    pub(crate) fn gray_ctr(&self, ch: u32) -> u64 {
        self.d(ch).gray_ctr
    }

    /// Bumps and returns the channel's gray-loss draw counter (at the
    /// offer point).
    pub(crate) fn gray_bump(&mut self, ch: u32) -> u64 {
        let d = self.dyn_mut(ch);
        d.gray_ctr += 1;
        d.gray_ctr
    }

    /// Serialization time for `bytes` on channel `ch`. MTU-sized packets
    /// and ACKs hit the precomputed cache; odd sizes (a flow's final
    /// packet) fall back to the same float expression the cache was
    /// filled from, so timing is bit-identical either way.
    #[inline]
    pub(crate) fn ser_ns(&self, ch: u32, bytes: u32) -> Ns {
        if bytes == self.mtu_bytes {
            self.ser_mtu_ns[ch as usize]
        } else if bytes == self.ack_bytes {
            self.ser_ack_ns[ch as usize]
        } else {
            (bytes as f64 / self.rate_bpns[ch as usize]).ceil() as Ns
        }
    }

    /// Offers packet `id` to channel `ch`. On [`Offer::StartTx`] the
    /// caller owns the in-flight transmission (the id stays live); on
    /// [`Offer::Queued`] the discipline holds it (possibly evicting less
    /// urgent packets — those count into `drops` and are freed); on
    /// [`Offer::Dropped`] the id has been freed. The returned
    /// [`EnqueueOutcome`] carries the mark flag and eviction victims for
    /// the observability layer.
    pub(crate) fn offer(
        &mut self,
        ch: u32,
        id: PktId,
        pool: &mut PacketArena,
    ) -> (Offer, EnqueueOutcome) {
        let d = self.dyn_mut(ch);
        if !d.busy {
            d.busy = true;
            let out = EnqueueOutcome {
                accepted: true,
                ..Default::default()
            };
            return (Offer::StartTx, out);
        }
        let out = d.disc.enqueue(id, pool);
        d.qlen = d.qlen + out.accepted as u32 - out.evicted.len() as u32;
        d.drops += out.dropped as u64;
        d.evictions += out.evicted.len() as u64;
        if out.marked {
            d.marks += 1;
        }
        if out.accepted {
            (Offer::Queued, out)
        } else {
            pool.free(id);
            (Offer::Dropped, out)
        }
    }

    /// Called when channel `ch`'s in-flight transmission completes;
    /// returns the next packet to transmit, if any (caller schedules its
    /// TxFree/Deliver).
    pub(crate) fn tx_done(&mut self, ch: u32) -> Option<PktId> {
        let d = self.dyn_mut(ch);
        debug_assert!(d.busy);
        if d.qlen == 0 {
            d.busy = false;
            return None;
        }
        d.qlen -= 1;
        let id = d.disc.dequeue();
        debug_assert!(id.is_some(), "qlen said non-empty but dequeue had nothing");
        id
    }

    pub(crate) fn queue_bytes(&self, ch: u32) -> u64 {
        self.d(ch).disc.queue_bytes()
    }

    pub(crate) fn queue_len(&self, ch: u32) -> usize {
        let d = self.d(ch);
        debug_assert_eq!(d.qlen as usize, d.disc.queue_len());
        d.qlen as usize
    }

    /// Snapshot of the channel's queued packets for checkpointing.
    pub(crate) fn snapshot_queue(&self, ch: u32, pool: &PacketArena) -> Option<Vec<Packet>> {
        self.d(ch).disc.snapshot_queue(pool)
    }

    /// Reinstates a checkpointed queue on channel `ch`, keeping the dense
    /// length cache in sync with the discipline.
    pub(crate) fn restore_queue(&mut self, ch: u32, pkts: Vec<Packet>, pool: &mut PacketArena) {
        let d = self.dyn_mut(ch);
        d.qlen = pkts.len() as u32;
        d.disc.restore_queue(pkts, pool);
    }

    // --- whole-table sums (stats) ---

    pub(crate) fn sum_drops(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.drops(c)).sum()
    }

    pub(crate) fn sum_evictions(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.evictions(c)).sum()
    }

    pub(crate) fn sum_fault_drops(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.fault_drops(c)).sum()
    }

    pub(crate) fn sum_marks(&self) -> u64 {
        (0..self.len() as u32).map(|c| self.marks(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::TailDropEcn;
    use crate::types::Packet;
    use std::sync::Arc;

    fn pkt(a: &mut PacketArena, bytes: u32) -> PktId {
        a.alloc(Packet {
            flow: 0,
            seq: 0,
            bytes,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: 0,
            hop: 0,
            prio: 0,
            path: Arc::new(vec![]),
        })
    }

    fn chan() -> Channels {
        // 10 Gbps, 100ns prop, 10-packet queue, ECN at 3 packets.
        let mut c = Channels::new(1500, 40);
        c.push(
            1,
            10.0,
            100,
            Box::new(TailDropEcn::new(10 * 1500, 3 * 1500)),
        );
        c
    }

    #[test]
    fn idle_channel_starts_tx() {
        let mut a = PacketArena::new();
        let mut c = chan();
        let p = pkt(&mut a, 1500);
        let (o, _) = c.offer(0, p, &mut a);
        assert_eq!(o, Offer::StartTx);
        assert!(c.busy(0));
        assert_eq!(a.live_count(), 1, "StartTx leaves the id live");
    }

    #[test]
    fn busy_channel_queues_then_drains_fifo() {
        let mut a = PacketArena::new();
        let mut c = chan();
        let head = pkt(&mut a, 1500);
        c.offer(0, head, &mut a);
        let q1 = pkt(&mut a, 100);
        a.get_mut(q1).seq = 1;
        let q2 = pkt(&mut a, 100);
        a.get_mut(q2).seq = 2;
        assert_eq!(c.offer(0, q1, &mut a).0, Offer::Queued);
        assert_eq!(c.offer(0, q2, &mut a).0, Offer::Queued);
        assert_eq!(c.queue_len(0), 2);
        let n1 = c.tx_done(0).unwrap();
        assert_eq!(a.get(n1).seq, 1);
        let n2 = c.tx_done(0).unwrap();
        assert_eq!(a.get(n2).seq, 2);
        assert!(c.tx_done(0).is_none());
        assert!(!c.busy(0));
    }

    #[test]
    fn tail_drop_when_full_frees_the_id() {
        let mut a = PacketArena::new();
        let mut c = chan();
        c.offer(0, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..10 {
            let p = pkt(&mut a, 1500);
            assert_eq!(c.offer(0, p, &mut a).0, Offer::Queued);
        }
        let live = a.live_count();
        let p = pkt(&mut a, 1500);
        assert_eq!(c.offer(0, p, &mut a).0, Offer::Dropped);
        assert_eq!(c.drops(0), 1);
        assert_eq!(a.live_count(), live, "dropped packet must be freed");
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut a = PacketArena::new();
        let mut c = chan();
        c.offer(0, pkt(&mut a, 1500), &mut a); // in flight, queue empty
        c.offer(0, pkt(&mut a, 1500), &mut a); // queue -> 1500
        c.offer(0, pkt(&mut a, 1500), &mut a); // queue -> 3000
        c.offer(0, pkt(&mut a, 1500), &mut a); // queue -> 4500 (at 3000 < 4500 thresh)
        assert_eq!(c.marks(0), 0);
        c.offer(0, pkt(&mut a, 1500), &mut a); // enqueued seeing 4500 >= 4500 → marked
        assert_eq!(c.marks(0), 1);
        // Drain: the marked packet is the last one.
        c.tx_done(0);
        c.tx_done(0);
        c.tx_done(0);
        let marked = c.tx_done(0).unwrap();
        assert!(a.get(marked).ecn_ce);
    }

    #[test]
    fn acks_never_marked() {
        let mut a = PacketArena::new();
        let mut c = chan();
        c.offer(0, pkt(&mut a, 1500), &mut a); // in flight
        for _ in 0..3 {
            c.offer(0, pkt(&mut a, 1500), &mut a); // queue reaches the 4500 B threshold
        }
        assert_eq!(c.marks(0), 0);
        let ack = pkt(&mut a, 40);
        a.get_mut(ack).is_ack = true;
        c.offer(0, ack, &mut a); // sees queue ≥ threshold but is an ACK
        assert_eq!(c.marks(0), 0);
        c.offer(0, pkt(&mut a, 1500), &mut a); // a data packet here *is* marked
        assert_eq!(c.marks(0), 1);
    }

    #[test]
    fn serialization_uses_channel_rate_and_cache() {
        let mut c = Channels::new(1500, 40);
        c.push(0, 40.0, 0, Box::new(TailDropEcn::new(1, 1)));
        assert_eq!(c.ser_ns(0, 1500), 300); // cached MTU path, 4x faster than 10G
        assert_eq!(c.ser_ns(0, 40), 8); // cached ACK path
        assert_eq!(c.ser_ns(0, 777), 156); // uncached fallback: ceil(777/5)
    }

    #[test]
    fn eviction_counts_as_channel_drop() {
        use crate::switch::PFabricQueue;
        let mut a = PacketArena::new();
        let mut c = Channels::new(1500, 40);
        c.push(1, 10.0, 100, Box::new(PFabricQueue::new(2 * 1500)));
        c.offer(0, pkt(&mut a, 1500), &mut a); // in flight
        let low = pkt(&mut a, 1500);
        a.get_mut(low).prio = 9;
        c.offer(0, low, &mut a);
        c.offer(0, pkt(&mut a, 1500), &mut a);
        let urgent = pkt(&mut a, 1500);
        a.get_mut(urgent).prio = 1;
        a.get_mut(urgent).seq = 7;
        let live = a.live_count();
        let (o, out) = c.offer(0, urgent, &mut a);
        assert_eq!(o, Offer::Queued, "urgent packet must win");
        assert_eq!(c.drops(0), 1, "the prio-9 victim is a congestion drop");
        assert_eq!(c.evictions(0), 1, "and is attributed to eviction");
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(a.live_count(), live - 1, "the victim's id must be freed");
    }
}
