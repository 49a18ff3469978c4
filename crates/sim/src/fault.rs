//! Fault injection: deterministic, seeded schedules of link and switch
//! failures (and recoveries) consumed by the [`crate::Simulator`] event
//! loop.
//!
//! Two failure flavors are modeled:
//!
//! - **Hard failures** ([`FaultKind::LinkDown`] / [`FaultKind::SwitchDown`]):
//!   the channel stops delivering. In-flight and queued packets are lost
//!   (counted as *fault drops*, separate from congestion tail drops) and
//!   new offers are discarded. The control plane notices and rebuilds the
//!   routing tables after a configurable reconvergence delay; until then
//!   selectors keep emitting dead paths and only end-host retransmission
//!   (RTO + flowlet re-pinning) keeps flows alive.
//! - **Gray failures** ([`FaultKind::LinkGray`]): the link stays up but
//!   drops each packet with probability `p`. These are *not* visible to
//!   the control plane (no reconvergence) — exactly the silent-packet-loss
//!   pathology operators fear.
//!
//! Plans are plain data: build one with the chainable constructors or the
//! seeded [`FaultPlan::random_link_outages`] helper, hand it to
//! [`crate::Simulator::set_fault_plan`], and the same plan + same seed
//! reproduces the identical simulation.

use crate::switch::Fabric;
use crate::types::Ns;
use dcn_rng::Rng;
use dcn_routing::PathSelector;
use dcn_topology::{LinkId, NodeId, Topology};

/// What happens at a fault event's fire time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Hard-fail an undirected link (both directed channels).
    LinkDown(LinkId),
    /// Restore a hard-failed link.
    LinkUp(LinkId),
    /// Hard-fail a switch: every incident link channel plus the host
    /// channels of the servers in its rack.
    SwitchDown(NodeId),
    /// Restore a hard-failed switch.
    SwitchUp(NodeId),
    /// Gray failure: the link keeps forwarding but drops each packet with
    /// the given probability. Invisible to the control plane.
    LinkGray(LinkId, f64),
    /// Clear a gray failure.
    LinkClear(LinkId),
}

impl FaultKind {
    /// The `"kind"` tag used by fault-transition trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown(_) => "link_down",
            FaultKind::LinkUp(_) => "link_up",
            FaultKind::SwitchDown(_) => "switch_down",
            FaultKind::SwitchUp(_) => "switch_up",
            FaultKind::LinkGray(..) => "link_gray",
            FaultKind::LinkClear(_) => "link_clear",
        }
    }

    /// The link or switch the fault targets.
    pub fn target(&self) -> u32 {
        match *self {
            FaultKind::LinkDown(l)
            | FaultKind::LinkUp(l)
            | FaultKind::LinkGray(l, _)
            | FaultKind::LinkClear(l) => l,
            FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => n,
        }
    }

    /// Gray-loss probability in parts per million (0 for hard faults),
    /// the integer form trace events carry so renderings stay byte-stable.
    pub fn loss_ppm(&self) -> u32 {
        match *self {
            FaultKind::LinkGray(_, p) => (p * 1e6).round() as u32,
            _ => 0,
        }
    }
}

/// A timed fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub at_ns: Ns,
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the simulator's per-packet gray-loss draws. Two runs with
    /// the same plan (same seed) make identical drop decisions.
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the gray-loss RNG seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn link_down(mut self, at_ns: Ns, link: LinkId) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::LinkDown(link),
        });
        self
    }

    pub fn link_up(mut self, at_ns: Ns, link: LinkId) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::LinkUp(link),
        });
        self
    }

    pub fn switch_down(mut self, at_ns: Ns, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::SwitchDown(node),
        });
        self
    }

    pub fn switch_up(mut self, at_ns: Ns, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::SwitchUp(node),
        });
        self
    }

    /// Marks a link gray: forwards but drops each packet with probability
    /// `loss_prob` until [`FaultPlan::link_clear`].
    pub fn link_gray(mut self, at_ns: Ns, link: LinkId, loss_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss probability {loss_prob} out of range"
        );
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::LinkGray(link, loss_prob),
        });
        self
    }

    pub fn link_clear(mut self, at_ns: Ns, link: LinkId) -> Self {
        self.events.push(FaultEvent {
            at_ns,
            kind: FaultKind::LinkClear(link),
        });
        self
    }

    /// Seeded random outage: `count` distinct links go down at `down_ns`
    /// and come back at `up_ns` (pass `up_ns = None` for permanent
    /// failures). Link choice is uniform without replacement — the plan
    /// may disconnect the network; the simulator fails the affected flows
    /// rather than hanging.
    pub fn random_link_outages(
        topo: &Topology,
        count: usize,
        down_ns: Ns,
        up_ns: Option<Ns>,
        seed: u64,
    ) -> Self {
        use dcn_rng::{Rng, SliceRandom};
        let mut rng = Rng::seed_from_u64(seed);
        let mut ids: Vec<LinkId> = (0..topo.num_links() as LinkId).collect();
        ids.shuffle(&mut rng);
        ids.truncate(count.min(topo.num_links()));
        let mut plan = FaultPlan::new().with_seed(seed);
        for &l in &ids {
            plan = plan.link_down(down_ns, l);
            if let Some(up) = up_ns {
                assert!(up > down_ns, "recovery must come after the outage");
                plan = plan.link_up(up, l);
            }
        }
        plan
    }

    /// The scheduled events, in insertion order (the simulator's event
    /// heap orders them by time).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Order-sensitive FNV-1a digest over the seed and every scheduled
    /// event — the fault-plan provenance field in run manifests. Two plans
    /// with the same digest schedule the identical failure sequence.
    pub fn digest(&self) -> u64 {
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        mix(&mut h, &self.seed.to_le_bytes());
        for e in &self.events {
            mix(&mut h, &e.at_ns.to_le_bytes());
            mix(&mut h, e.kind.label().as_bytes());
            mix(&mut h, &(e.kind.target() as u64).to_le_bytes());
            mix(&mut h, &(e.kind.loss_ppm() as u64).to_le_bytes());
        }
        h
    }

    /// Checks the schedule against a simulation horizon and for coherent
    /// down/up (and gray/clear) sequencing, returning a one-line error
    /// instead of panicking — the CLI-facing counterpart to
    /// [`FaultPlan::validate`]. Events are examined in fire order (time,
    /// then insertion order — exactly how the simulator's event heap
    /// breaks ties). Rejected: events past `horizon_ns`, restoring a link
    /// or switch that is not down, downing one that is already down, and
    /// clearing a link that is not gray. Re-graying an already-gray link
    /// is allowed (it changes the loss level).
    pub fn validate_schedule(&self, topo: &Topology, horizon_ns: Ns) -> Result<(), String> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].at_ns, i));
        let mut link_down = vec![false; topo.num_links()];
        let mut link_gray = vec![false; topo.num_links()];
        let mut sw_down = vec![false; topo.num_nodes()];
        for i in order {
            let e = &self.events[i];
            let (label, target) = (e.kind.label(), e.kind.target());
            if e.at_ns > horizon_ns {
                return Err(format!(
                    "fault {label} on {target} at {} ns is past the simulation horizon ({horizon_ns} ns)",
                    e.at_ns
                ));
            }
            let bad_link = |l: LinkId| (l as usize) >= topo.num_links();
            let bad_node = |n: NodeId| (n as usize) >= topo.num_nodes();
            match e.kind {
                FaultKind::LinkDown(l) if bad_link(l) => {
                    return Err(format!("fault references unknown link {l}"));
                }
                FaultKind::LinkUp(l) | FaultKind::LinkGray(l, _) | FaultKind::LinkClear(l)
                    if bad_link(l) =>
                {
                    return Err(format!("fault references unknown link {l}"));
                }
                FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) if bad_node(n) => {
                    return Err(format!("fault references unknown switch {n}"));
                }
                FaultKind::LinkDown(l) => {
                    if link_down[l as usize] {
                        return Err(format!(
                            "link {l} downed at {} ns while already down (inverted or duplicate schedule)",
                            e.at_ns
                        ));
                    }
                    link_down[l as usize] = true;
                }
                FaultKind::LinkUp(l) => {
                    if !link_down[l as usize] {
                        return Err(format!(
                            "link {l} restored at {} ns but was never down (inverted schedule)",
                            e.at_ns
                        ));
                    }
                    link_down[l as usize] = false;
                }
                FaultKind::SwitchDown(n) => {
                    if sw_down[n as usize] {
                        return Err(format!(
                            "switch {n} downed at {} ns while already down (inverted or duplicate schedule)",
                            e.at_ns
                        ));
                    }
                    sw_down[n as usize] = true;
                }
                FaultKind::SwitchUp(n) => {
                    if !sw_down[n as usize] {
                        return Err(format!(
                            "switch {n} restored at {} ns but was never down (inverted schedule)",
                            e.at_ns
                        ));
                    }
                    sw_down[n as usize] = false;
                }
                FaultKind::LinkGray(l, _) => link_gray[l as usize] = true,
                FaultKind::LinkClear(l) => {
                    if !link_gray[l as usize] {
                        return Err(format!(
                            "link {l} gray-cleared at {} ns but was never gray (inverted schedule)",
                            e.at_ns
                        ));
                    }
                    link_gray[l as usize] = false;
                }
            }
        }
        Ok(())
    }

    /// Seeded adversarial fault plan for chaos fuzzing: random link
    /// down/up cycles (some permanent), gray periods, and switch outages,
    /// all inside `[0, horizon_ns]`. Each link or switch is targeted at
    /// most once, so the generated schedule always passes
    /// [`FaultPlan::validate_schedule`]. Same `(topo, horizon, seed)` ⇒
    /// identical plan.
    pub fn chaos(topo: &Topology, horizon_ns: Ns, seed: u64) -> Self {
        use dcn_rng::SliceRandom;
        let mut rng = Rng::seed_from_u64(seed ^ 0xC4A0_5CAF_F01D_BEEF);
        let horizon = horizon_ns.max(2);
        let mut links: Vec<LinkId> = (0..topo.num_links() as LinkId).collect();
        links.shuffle(&mut rng);
        let mut plan = FaultPlan::new().with_seed(seed);
        // 1..=4 hard link outages; roughly a third are permanent.
        let hard = rng.gen_range(1..5usize).min(links.len());
        for _ in 0..hard {
            let l = links.pop().unwrap();
            let down = rng.gen_range(0..horizon - 1);
            plan = plan.link_down(down, l);
            if !rng.gen_bool(0.33) {
                plan = plan.link_up(rng.gen_range(down + 1..horizon + 1), l);
            }
        }
        // 0..=2 gray periods on links not already used for hard faults.
        let gray = rng.gen_range(0..3usize).min(links.len());
        for _ in 0..gray {
            let l = links.pop().unwrap();
            let at = rng.gen_range(0..horizon - 1);
            plan = plan.link_gray(at, l, rng.gen_range(0.001..0.2));
            if rng.gen_bool(0.7) {
                plan = plan.link_clear(rng.gen_range(at + 1..horizon + 1), l);
            }
        }
        // 0..=1 switch outage.
        if topo.num_nodes() > 0 && rng.gen_bool(0.5) {
            let n = rng.gen_range(0..topo.num_nodes() as NodeId);
            let down = rng.gen_range(0..horizon - 1);
            plan = plan.switch_down(down, n);
            if !rng.gen_bool(0.33) {
                plan = plan.switch_up(rng.gen_range(down + 1..horizon + 1), n);
            }
        }
        plan
    }

    /// Panics if any event references a link or node outside `topo` —
    /// called by the simulator before scheduling.
    pub fn validate(&self, topo: &Topology) {
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown(l)
                | FaultKind::LinkUp(l)
                | FaultKind::LinkGray(l, _)
                | FaultKind::LinkClear(l) => {
                    assert!(
                        (l as usize) < topo.num_links(),
                        "fault references unknown link {l}"
                    )
                }
                FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => {
                    assert!(
                        (n as usize) < topo.num_nodes(),
                        "fault references unknown switch {n}"
                    )
                }
            }
        }
    }
}

/// The fault layer's runtime state: which links/switches are currently
/// down, the not-yet-fired schedule, and the reconvergence epoch counter.
/// The engine owns one and routes every fault event through it; the
/// controller in turn degrades the [`Fabric`] — the engine never flips
/// channel state itself. Gray losses carry no RNG state here: each draw
/// is a stateless hash of (plan seed, channel, per-channel counter) —
/// see [`gray_drop`].
pub(crate) struct FaultController {
    pub(crate) events: Vec<FaultEvent>,
    /// Scheduled fault events not yet fired; when zero, the current
    /// connectivity is final and disconnected flows can be failed.
    pub(crate) pending: usize,
    /// Bumped per hard fault so that of several queued control-plane
    /// rebuilds only the newest takes effect.
    pub(crate) epoch: u64,
    pub(crate) down_links: Vec<bool>,
    pub(crate) down_sw: Vec<bool>,
    /// Packets dropped at the source because the selector had no route.
    pub(crate) noroute_drops: u64,
}

impl FaultController {
    pub(crate) fn new(num_links: usize, num_nodes: usize) -> Self {
        FaultController {
            events: Vec::new(),
            pending: 0,
            epoch: 0,
            down_links: vec![false; num_links],
            down_sw: vec![false; num_nodes],
            noroute_drops: 0,
        }
    }

    /// Adopts a plan's events. Returns `(fire_time, event_index)` pairs
    /// for the engine to put on its control schedule — scheduling stays
    /// the engine's job.
    pub(crate) fn install(&mut self, plan: &FaultPlan) -> Vec<(Ns, u32)> {
        let mut schedule = Vec::with_capacity(plan.events().len());
        for e in plan.events() {
            let idx = self.events.len() as u32;
            self.events.push(*e);
            self.pending += 1;
            schedule.push((e.at_ns, idx));
        }
        schedule
    }

    /// The kind of scheduled event `idx`, for trace reporting.
    pub(crate) fn kind(&self, idx: u32) -> FaultKind {
        self.events[idx as usize].kind
    }

    /// Fires scheduled event `idx` against the fabric. Returns `true` when
    /// the fault is control-plane visible (hard link/switch change) and the
    /// engine must schedule a reconvergence; gray events return `false`.
    pub(crate) fn fire(&mut self, idx: u32, fabric: &mut Fabric) -> bool {
        self.pending -= 1;
        match self.events[idx as usize].kind {
            FaultKind::LinkDown(l) => self.set_link(l, true, fabric),
            FaultKind::LinkUp(l) => self.set_link(l, false, fabric),
            FaultKind::SwitchDown(n) => self.set_switch(n, true, fabric),
            FaultKind::SwitchUp(n) => self.set_switch(n, false, fabric),
            // Gray failures are invisible to the control plane: no
            // reconvergence, just per-packet losses in both directions.
            FaultKind::LinkGray(l, p) => {
                fabric.channels.set_loss_prob(2 * l, p);
                fabric.channels.set_loss_prob(2 * l + 1, p);
                return false;
            }
            FaultKind::LinkClear(l) => {
                fabric.channels.set_loss_prob(2 * l, 0.0);
                fabric.channels.set_loss_prob(2 * l + 1, 0.0);
                return false;
            }
        }
        true
    }

    fn set_link(&mut self, l: LinkId, down: bool, fabric: &mut Fabric) {
        self.down_links[l as usize] = down;
        fabric.apply_fault_state(&self.down_links, &self.down_sw);
    }

    fn set_switch(&mut self, n: NodeId, down: bool, fabric: &mut Fabric) {
        self.down_sw[n as usize] = down;
        fabric.apply_fault_state(&self.down_links, &self.down_sw);
    }

    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Claims the next reconvergence epoch (stale rebuilds compare against
    /// [`FaultController::epoch`] and bail).
    pub(crate) fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    pub(crate) fn switch_is_down(&self, n: NodeId) -> bool {
        self.down_sw[n as usize]
    }

    /// The view the control plane reconverges on: same node ids, only the
    /// surviving links. Also returns the survivor→original link id map.
    pub(crate) fn survivor_topology(&self, full: &Topology) -> (Topology, Vec<LinkId>) {
        survivor_topology_from(full, &self.down_links, &self.down_sw)
    }

    /// Clones the current down-link / down-switch vectors (the routing
    /// view a checkpoint persists).
    pub(crate) fn down_state(&self) -> (Vec<bool>, Vec<bool>) {
        (self.down_links.clone(), self.down_sw.clone())
    }
}

/// One per-packet gray-loss draw: a stateless splitmix64 hash of the
/// fault-plan seed, the channel id, and the channel's draw counter,
/// mapped to `[0, 1)` with 53 bits. Counter-based (instead of a shared
/// sequential RNG) so the draw a packet sees depends only on how many
/// packets were offered to *its* channel before it, not on traffic
/// elsewhere in the fabric.
pub(crate) fn gray_drop(seed: u64, ch: u32, draw: u64, loss_prob: f64) -> bool {
    let x = mix64(
        seed ^ (ch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ draw.wrapping_mul(0xD129_0B2C_76A8_36C1),
    );
    ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < loss_prob
}

/// splitmix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Survivor view for explicit down vectors — the restore path rebuilds a
/// checkpointed routing state through this without a live controller.
pub(crate) fn survivor_topology_from(
    full: &Topology,
    down_links: &[bool],
    down_sw: &[bool],
) -> (Topology, Vec<LinkId>) {
    let mut t = Topology::new(format!("{}-survivor", full.name()));
    for n in full.nodes() {
        t.add_node(full.kind(n), full.servers_at(n));
    }
    let mut map = Vec::new();
    for (l, link) in full.links().iter().enumerate() {
        let up = !down_links[l] && !down_sw[link.a as usize] && !down_sw[link.b as usize];
        if up {
            t.add_link_cap(link.a, link.b, link.capacity);
            map.push(l as LinkId);
        }
    }
    (t, map)
}

/// Connected-component label per node (BFS sweep).
pub(crate) fn component_labels(t: &Topology) -> Vec<u32> {
    let n = t.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as NodeId {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in t.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// A selector rebuilt against a survivor topology, translating its link
/// ids back to the original topology's numbering so the simulator's
/// link→channel mapping keeps working. Produced by the simulator's
/// reconvergence step.
pub struct RemappedSelector {
    inner: Box<dyn PathSelector>,
    /// `to_original[survivor link id] = original link id`.
    to_original: Vec<LinkId>,
}

impl RemappedSelector {
    pub fn new(inner: Box<dyn PathSelector>, to_original: Vec<LinkId>) -> Self {
        RemappedSelector { inner, to_original }
    }

    fn map(&self, links: Vec<LinkId>) -> Vec<LinkId> {
        links
            .into_iter()
            .map(|l| self.to_original[l as usize])
            .collect()
    }
}

impl PathSelector for RemappedSelector {
    fn select(&self, src: NodeId, dst: NodeId, key: u64, bytes_sent: u64) -> Vec<LinkId> {
        self.map(self.inner.select(src, dst, key, bytes_sent))
    }

    fn select_with_feedback(
        &self,
        src: NodeId,
        dst: NodeId,
        key: u64,
        bytes_sent: u64,
        ecn_marks: u64,
    ) -> Vec<LinkId> {
        self.map(
            self.inner
                .select_with_feedback(src, dst, key, bytes_sent, ecn_marks),
        )
    }

    fn rebuild(&self, topo: &Topology) -> Box<dyn PathSelector> {
        // Rebuilding against a new topology discards the old mapping; the
        // caller wraps the result in a fresh RemappedSelector for it.
        self.inner.rebuild(topo)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::xpander::Xpander;

    #[test]
    fn builder_collects_events_in_order() {
        let p = FaultPlan::new()
            .with_seed(9)
            .link_down(100, 3)
            .link_gray(200, 4, 0.1)
            .link_up(300, 3)
            .link_clear(400, 4)
            .switch_down(500, 1)
            .switch_up(600, 1);
        assert_eq!(p.seed, 9);
        assert_eq!(p.events().len(), 6);
        assert_eq!(p.events()[0].kind, FaultKind::LinkDown(3));
        assert_eq!(
            p.events()[2],
            FaultEvent {
                at_ns: 300,
                kind: FaultKind::LinkUp(3)
            }
        );
    }

    #[test]
    fn random_outages_deterministic_and_paired() {
        let t = Xpander::new(5, 6, 2, 1).build();
        let a = FaultPlan::random_link_outages(&t, 4, 1000, Some(5000), 7);
        let b = FaultPlan::random_link_outages(&t, 4, 1000, Some(5000), 7);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 8); // 4 downs + 4 ups
        let downs: Vec<_> = a
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown(l) => Some(l),
                _ => None,
            })
            .collect();
        let ups: Vec<_> = a
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkUp(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(downs, ups, "every down has a matching up");
        let distinct: std::collections::HashSet<_> = downs.iter().collect();
        assert_eq!(
            distinct.len(),
            downs.len(),
            "links chosen without replacement"
        );
    }

    #[test]
    fn random_outages_count_capped_by_links() {
        let t = Xpander::new(3, 2, 1, 1).build();
        let p = FaultPlan::random_link_outages(&t, 10_000, 0, None, 1);
        assert_eq!(p.events().len(), t.num_links());
    }

    #[test]
    fn kind_trace_labels() {
        assert_eq!(FaultKind::LinkDown(3).label(), "link_down");
        assert_eq!(FaultKind::LinkDown(3).target(), 3);
        assert_eq!(FaultKind::SwitchUp(7).label(), "switch_up");
        assert_eq!(FaultKind::SwitchUp(7).target(), 7);
        assert_eq!(FaultKind::LinkGray(1, 0.02).loss_ppm(), 20_000);
        assert_eq!(FaultKind::LinkClear(1).loss_ppm(), 0);
    }

    #[test]
    #[should_panic]
    fn validate_rejects_unknown_link() {
        let t = Xpander::new(3, 2, 1, 1).build();
        FaultPlan::new().link_down(0, 9999).validate(&t);
    }

    #[test]
    #[should_panic]
    fn gray_rejects_bad_probability() {
        let _ = FaultPlan::new().link_gray(0, 0, 1.5);
    }

    #[test]
    fn schedule_validation_accepts_coherent_plans() {
        let t = Xpander::new(5, 6, 2, 1).build();
        let p = FaultPlan::new()
            .link_down(100, 0)
            .link_up(200, 0)
            .link_gray(50, 1, 0.1)
            .link_gray(60, 1, 0.2) // re-gray: loss-level change, allowed
            .link_clear(300, 1)
            .switch_down(150, 2)
            .switch_up(400, 2);
        assert!(p.validate_schedule(&t, 1000).is_ok());
    }

    #[test]
    fn schedule_validation_rejects_past_horizon() {
        let t = Xpander::new(5, 6, 2, 1).build();
        let p = FaultPlan::new().link_down(5000, 0);
        let err = p.validate_schedule(&t, 1000).unwrap_err();
        assert!(err.contains("past the simulation horizon"), "{err}");
    }

    #[test]
    fn schedule_validation_rejects_inverted_link_cycle() {
        let t = Xpander::new(5, 6, 2, 1).build();
        // Up before down — an inverted schedule.
        let p = FaultPlan::new().link_up(100, 0).link_down(200, 0);
        let err = p.validate_schedule(&t, 1000).unwrap_err();
        assert!(err.contains("never down"), "{err}");
        // Double down on the same link.
        let p = FaultPlan::new().link_down(100, 0).link_down(200, 0);
        let err = p.validate_schedule(&t, 1000).unwrap_err();
        assert!(err.contains("already down"), "{err}");
        // Clear without gray.
        let p = FaultPlan::new().link_clear(100, 0);
        let err = p.validate_schedule(&t, 1000).unwrap_err();
        assert!(err.contains("never gray"), "{err}");
        // Switch restored before failing.
        let p = FaultPlan::new().switch_up(100, 0);
        assert!(p.validate_schedule(&t, 1000).is_err());
    }

    #[test]
    fn schedule_validation_orders_by_time_not_insertion() {
        let t = Xpander::new(5, 6, 2, 1).build();
        // Inserted up-first but timed down-first: valid in fire order.
        let p = FaultPlan::new().link_up(200, 0).link_down(100, 0);
        assert!(p.validate_schedule(&t, 1000).is_ok());
    }

    #[test]
    fn schedule_validation_rejects_unknown_targets() {
        let t = Xpander::new(3, 2, 1, 1).build();
        assert!(FaultPlan::new()
            .link_down(0, 9999)
            .validate_schedule(&t, 1000)
            .is_err());
        assert!(FaultPlan::new()
            .switch_down(0, 9999)
            .validate_schedule(&t, 1000)
            .is_err());
    }

    #[test]
    fn chaos_plans_deterministic_and_always_valid() {
        let t = Xpander::new(5, 8, 2, 3).build();
        for seed in 0..50 {
            let a = FaultPlan::chaos(&t, 1_000_000, seed);
            let b = FaultPlan::chaos(&t, 1_000_000, seed);
            assert_eq!(a.events(), b.events(), "seed {seed} not deterministic");
            assert!(!a.is_empty(), "seed {seed} generated an empty plan");
            a.validate_schedule(&t, 1_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid plan: {e}"));
        }
        assert_ne!(
            FaultPlan::chaos(&t, 1_000_000, 1).events(),
            FaultPlan::chaos(&t, 1_000_000, 2).events(),
            "different seeds should differ"
        );
    }
}
