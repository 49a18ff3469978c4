//! The four workloads. Each builds its inputs from the seed, calls the
//! layers' public entry points in the order a figure binary would, times
//! those calls, and checks the outputs. Why each workload exists is
//! recorded in `README.md` beside this crate.

use crate::probe::{
    CountingSelector, HostStats, Layers, QueueStats, SelectStats, TimedQueue, TimedTransport,
};
use dcn_flowsim::{FlowSim, FlowSimConfig};
use dcn_maxflow::{max_concurrent_flow, Commodity, FlowNetwork};
use dcn_routing::{PathSelector, RoutingSuite, PAPER_Q_BYTES};
use dcn_sim::{compute_metrics, FlowRecord, Metrics, Ns, SimConfig, Simulator};
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::xpander::Xpander;
use dcn_topology::{LinkId, NodeId, Topology};
use dcn_workloads::{
    generate_flows, longest_matching, AllToAll, FlowEvent, FlowSizeDist, PFabricWebSearch, Skew,
    TrafficPattern,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &[
    "xpander_hyb_skew",
    "fattree_pfabric_a2a",
    "fluid_jellyfish_tp",
    "flowsim_fig15",
];

/// The set-up is repeated per iteration at least [`SETUP_MIN_REPS`] times
/// and until [`SETUP_MIN_S`] host seconds are spent on it; `setup_s` is the
/// median of all repetitions, since one set-up (0.1–30 ms) is short enough
/// for noise to swamp.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.25;

/// Construction seed of every random graph (Xpander, Jellyfish) and of the
/// Skew pattern's hot racks: the fig6a binary's default. The run's seed
/// draws what flows over them — arrivals, endpoints and sizes, or the
/// fluid traffic matrices. The structure stays fixed because the work per
/// input swings with it: GK runs hundreds of phases on some Jellyfish
/// graphs and a handful on others, and on `xpander_hyb_skew` seeds that
/// drew another graph and other hot racks differed by up to about 10 % in
/// host time at equal event counts.
const GRAPH_SEED: u64 = 1;

/// Deterministic outcome fields of one iteration: simulated results and
/// work counts, identical for every run of one seed, traced or not.
pub type Report = Vec<(String, f64)>;

/// Everything one iteration of a workload measured and checked.
#[derive(Default)]
pub struct Iteration {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of set-up (the last repetition), solve and metric
    /// aggregation.
    pub wall_s: f64,
    /// Operations attempted and failed: flows (packet and flowsim) or
    /// traffic-matrix points (fluid).
    pub ops: u64,
    pub failed: u64,
    /// What each failed check found.
    pub errors: Vec<String>,
    pub report: Report,
    pub layers: Layers,
}

impl Iteration {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }
}

/// Runs one iteration of workload `name` (one of [`NAMES`]). With
/// `traced`, the trait seams are wrapped in counting decorators and the
/// engine records its wall-clock counters.
pub fn run_once(name: &str, seed: u64, traced: bool) -> Iteration {
    match name {
        "xpander_hyb_skew" => packet(&XPANDER_HYB_SKEW, seed, traced),
        "fattree_pfabric_a2a" => packet(&FATTREE_PFABRIC_A2A, seed, traced),
        "fluid_jellyfish_tp" => fluid(seed),
        "flowsim_fig15" => flowsim(seed, traced),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), recording each
/// duration, and keeps the last result and its layer spans. Earlier
/// results are dropped before the next repetition starts, so peak memory
/// is one set-up's.
fn repeat_setup<T>(it: &mut Iteration, mut setup: impl FnMut(&mut Layers) -> T) -> T {
    let mut last = None;
    let (mut reps, mut spent) = (0, 0.0);
    while reps < SETUP_MIN_REPS || spent < SETUP_MIN_S {
        drop(last.take());
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let out = setup(&mut layers);
        let dt = t0.elapsed().as_secs_f64();
        it.setup_s.push(dt);
        reps += 1;
        spent += dt;
        last = Some((out, layers));
    }
    let (out, layers) = last.expect("set-up ran");
    it.layers = layers;
    out
}

fn build_topology(l: &mut Layers, build: impl FnOnce() -> Topology) -> Topology {
    let t = l.time("topology.build_s", build);
    l.add("topology.nodes", t.num_nodes() as f64);
    l.add("topology.links", t.num_links() as f64);
    t
}

#[derive(Clone, Copy)]
enum Routing {
    Ecmp,
    Hyb,
}

fn selector(l: &mut Layers, t: &Topology, routing: Routing) -> Box<dyn PathSelector> {
    l.time("routing.tables_s", || {
        let suite = RoutingSuite::new(t);
        match routing {
            Routing::Ecmp => Box::new(suite.ecmp()) as Box<dyn PathSelector>,
            Routing::Hyb => Box::new(suite.hyb(PAPER_Q_BYTES)),
        }
    })
}

#[derive(Clone, Copy)]
enum Pattern {
    /// ProjecToR-like Skew(0.04, 0.77) over every rack.
    Skew,
    AllToAll,
}

/// Poisson arrivals at `lambda` flows/s with pFabric web-search sizes,
/// cut after the first flow that brings the offered volume to `bytes`.
///
/// Sizing the input by volume rather than by simulated time keeps one
/// seed's work close to another's: the sizes are heavy-tailed (the 10–30
/// MB flows carry half the bytes), so the volume offered in a fixed time
/// window, and the run time with it, swings by tens of percent between
/// seeds.
fn flows(
    l: &mut Layers,
    t: &Topology,
    pattern: Pattern,
    lambda: f64,
    bytes: u64,
    seed: u64,
) -> Vec<FlowEvent> {
    let flows = l.time("workloads.gen_s", || {
        let sizes = PFabricWebSearch::new();
        let racks = t.tors_with_servers();
        let pattern: Box<dyn TrafficPattern> = match pattern {
            Pattern::Skew => Box::new(Skew::projector_like(t, racks, GRAPH_SEED)),
            Pattern::AllToAll => Box::new(AllToAll::new(t, racks)),
        };
        // A longer horizon extends the same arrival sequence, so doubling
        // it until the volume is reached keeps the prefix seed-determined.
        let mut horizon_s = 2.0 * bytes as f64 / (lambda * sizes.mean());
        loop {
            let mut flows = generate_flows(pattern.as_ref(), &sizes, lambda, horizon_s, seed);
            let mut offered = 0;
            if let Some(last) = flows.iter().position(|f| {
                offered += f.bytes;
                offered >= bytes
            }) {
                flows.truncate(last + 1);
                return flows;
            }
            horizon_s *= 2.0;
        }
    });
    l.add("workloads.flows", flows.len() as f64);
    flows
}

/// Simulated-time cap of a run: 40 times the last arrival, as the
/// repository's experiment configs cap a run at 40 times its window end.
fn max_time_ns(flows: &[FlowEvent]) -> Ns {
    let last = flows.last().map_or(0.0, |f| f.start_s);
    (last * 1e9) as Ns * 40
}

fn push(report: &mut Report, key: &str, v: f64) {
    report.push((key.to_string(), v));
}

/// The FCT summary over all flows, with keys under `prefix` when it is not empty.
fn metrics_report(report: &mut Report, prefix: &str, m: &Metrics) {
    for (k, v) in [
        ("flows", m.flows as f64),
        ("completed", m.completed as f64),
        ("avg_fct_ms", m.avg_fct_ms),
        ("p99_short_fct_ms", m.p99_short_fct_ms),
        ("avg_long_tput_gbps", m.avg_long_tput_gbps),
    ] {
        let key = if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        };
        report.push((key, v));
    }
}

// ---------------------------------------------------------------- packet

/// One packet-level experiment. Every flow is measured and the run lasts
/// until all of them complete.
struct PacketSpec {
    topology: fn() -> Topology,
    routing: Routing,
    pfabric: bool,
    pattern: Pattern,
    lambda: f64,
    /// Offered volume; see [`flows`].
    bytes: u64,
}

impl PacketSpec {
    fn config(&self) -> SimConfig {
        if self.pfabric {
            SimConfig::default().with_pfabric()
        } else {
            SimConfig::default()
        }
    }
}

/// `examples/configs/skewed_xpander.json` sized by volume: 54 switches of
/// 5 network ports and 3 servers, HYB (Q = 100 KB), DCTCP over
/// tail-drop/ECN, Skew(0.04, 0.77) at 8000 flows/s.
const XPANDER_HYB_SKEW: PacketSpec = PacketSpec {
    topology: || Xpander::for_switches(5, 54, 3, GRAPH_SEED).build(),
    routing: Routing::Hyb,
    pfabric: false,
    pattern: Pattern::Skew,
    lambda: 8000.0,
    bytes: 1_800_000_000,
};

/// The `bench perf` k = 4 pFabric regime: full fat-tree, ECMP, pFabric
/// transport and queues, all-to-all at 16 000 flows/s. That offers about
/// 1.6 times what the 16 server links carry, so queues overflow and
/// evict, and timers fire.
const FATTREE_PFABRIC_A2A: PacketSpec = PacketSpec {
    topology: || FatTree::full(4).build(),
    routing: Routing::Ecmp,
    pfabric: true,
    pattern: Pattern::AllToAll,
    lambda: 16_000.0,
    bytes: 1_600_000_000,
};

/// Decorator state of one traced simulator.
#[derive(Default)]
struct SimProbes {
    select: Arc<SelectStats>,
    host: Arc<HostStats>,
    queue: Arc<QueueStats>,
}

fn packet(spec: &PacketSpec, seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let (mut sim, probes, n_flows, max_time) = repeat_setup(&mut it, |l| {
        let t = build_topology(l, spec.topology);
        let sel = selector(l, &t, spec.routing);
        let flows = flows(l, &t, spec.pattern, spec.lambda, spec.bytes, seed);
        let (sim, probes) = l.time("sim.build_s", || {
            let cfg = spec.config();
            let (mut sim, probes) = if traced {
                let p = SimProbes::default();
                let transport =
                    TimedTransport::wrap(dcn_sim::host::transport_for(cfg.transport), &p.host);
                let disc = cfg.queue_disc;
                let queue = Arc::clone(&p.queue);
                let sim = Simulator::with_parts(
                    &t,
                    CountingSelector::wrap(sel, &p.select),
                    cfg.with_wall_counters(),
                    transport,
                    &move |cap, ecn| TimedQueue::wrap(disc.build(cap, ecn), &queue),
                );
                (sim, Some(p))
            } else {
                (Simulator::new(&t, sel, cfg), None)
            };
            sim.set_window(0, Ns::MAX);
            sim.inject(&flows);
            (sim, probes)
        });
        (sim, probes, flows.len() as u64, max_time_ns(&flows))
    });
    it.ops = n_flows;
    let setup_s = *it.setup_s.last().expect("set-up ran");

    let l = &mut it.layers;
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let records = l.time("sim.run_s", || sim.run(max_time));
        let m = l.time("stats.metrics_s", || compute_metrics(&records, 0, Ns::MAX));
        (records, m)
    }));
    it.wall_s = setup_s + l.get("sim.run_s") + l.get("stats.metrics_s");
    let (records, m) = match solved {
        Ok(v) => v,
        Err(_) => {
            it.fail(n_flows, "packet simulation panicked".into());
            return it;
        }
    };

    // Checks: every flow completed, and the engine's own counters account
    // for every packet created.
    let unfinished = records
        .iter()
        .filter(|r| r.fct_ns.is_none() || r.failed)
        .count() as u64;
    if unfinished > 0 {
        it.fail(
            unfinished,
            format!("{unfinished} flows unfinished at max_time"),
        );
    }
    if m.flows as u64 != n_flows {
        it.fail(0, format!("{} flows recorded, {n_flows} injected", m.flows));
    }
    let c = sim.conservation();
    if c.sent != c.delivered + c.dropped + c.in_flight {
        it.fail(
            n_flows - unfinished,
            format!(
                "conservation broken: sent {} != delivered {} + dropped {} + in flight {}",
                c.sent, c.delivered, c.dropped, c.in_flight
            ),
        );
    }

    let l = &mut it.layers;
    let events = sim.events_processed() as f64;
    l.add("sim.events", events);
    let eng = sim.engine_counters();
    l.add("sim.epochs", eng.epochs as f64);
    l.add("sim.xshard_pkts", eng.cross_shard_total() as f64);
    let sum = |f: fn(&dcn_sim::ShardCounters) -> u64| eng.shards.iter().map(f).sum::<u64>() as f64;
    l.add("sim.ladder_spills", sum(|s| s.ladder_spills));
    l.add("sim.scatter_fallbacks", sum(|s| s.scatter_fallbacks));
    l.add("sim.calendar_peak", sum(|s| s.calendar_peak));
    l.add("sim.arena_hwm", sum(|s| s.arena_high_water));
    if let Some(p) = &probes {
        let wall = sim.wall_clock_counters();
        l.add(
            "sim.drain_s",
            wall.drain_ns.iter().sum::<u64>() as f64 / 1e9,
        );
        l.add("sim.mailbox_s", wall.mailbox_flush_ns as f64 / 1e9);
        l.add("sim.barrier_s", wall.barrier_wait_ns as f64 / 1e9);
        p.select.fold_into(l);
        p.host.fold_into(l);
        p.queue.fold_into(l);
    }

    let r = &mut it.report;
    push(r, "events", events);
    metrics_report(r, "", &m);
    push(r, "drops", sim.total_drops() as f64);
    push(r, "ecn_marks", sim.total_marks() as f64);
    push(r, "pkts_sent", c.sent as f64);
    push(r, "pkts_delivered", c.delivered as f64);
    if probes.is_some() {
        push(r, "rtos", l.get("host.rtos"));
        push(r, "acks", l.get("host.acks"));
        push(r, "select_calls", l.get("routing.select_calls"));
        push(r, "enqueues", l.get("switch.enqueues"));
    }
    it
}

// ----------------------------------------------------------------- fluid

/// Fig 6a at small scale: Jellyfish with 80/50/40 % of a k = 8 fat-tree's
/// switches (same port count and servers), longest-matching TMs at
/// x = 0.1 … 1.0, Garg–Könemann with the figure's options.
const FLUID_FATTREE_K: u32 = 8;
const FLUID_FRACTIONS: [f64; 3] = [0.8, 0.5, 0.4];

/// Traffic-matrix sweeps per graph, each from its own seed. On one graph
/// the cost of a sweep still varies by about 10 % between seeds; four
/// sweeps halve that.
const FLUID_SWEEPS: u64 = 4;

/// One traffic-matrix point, ready to solve.
struct FluidPoint {
    /// Index of the topology and its flow network.
    net: usize,
    commodities: Vec<Commodity>,
    opts: dcn_maxflow::GkOptions,
}

fn fluid(seed: u64) -> Iteration {
    let mut it = Iteration::default();
    let (topologies, nets, points) = repeat_setup(&mut it, |l| {
        let ft = FatTree::full(FLUID_FATTREE_K);
        let servers = ft.num_servers() as u32;
        let mut topologies = Vec::new();
        let mut nets = Vec::new();
        let mut points = Vec::new();
        for pct in FLUID_FRACTIONS {
            // Same sizing as the fig6a binary.
            let switches = (ft.num_switches() as f64 * pct) as u32;
            let s_per = servers.div_ceil(switches);
            let net_deg = FLUID_FATTREE_K - s_per;
            let switches = switches - (switches * net_deg) % 2;
            let t = build_topology(l, || {
                Jellyfish::new(switches, net_deg, s_per, GRAPH_SEED).build()
            });
            nets.push(l.time("maxflow.network_s", || FlowNetwork::from_topology(&t)));
            let racks = t.tors_with_servers();
            let opts = dcn_bench::gk_opts_for(racks.len());
            let sweeps = (0..FLUID_SWEEPS).map(|k| seed.wrapping_mul(FLUID_SWEEPS).wrapping_add(k));
            for (tm_seed, x) in sweeps.flat_map(|s| {
                dcn_bench::fraction_sweep(10)
                    .into_iter()
                    .map(move |x| (s, x))
            }) {
                let commodities: Vec<Commodity> = l.time("workloads.gen_s", || {
                    longest_matching(&t, &racks, x, tm_seed)
                        .iter()
                        .map(|&(a, b)| Commodity {
                            src: a,
                            dst: b,
                            demand: t.servers_at(a) as f64,
                        })
                        .collect()
                });
                l.add("workloads.flows", commodities.len() as f64);
                points.push(FluidPoint {
                    net: nets.len() - 1,
                    commodities,
                    opts,
                });
            }
            topologies.push(t);
        }
        (topologies, nets, points)
    });
    it.ops = points.len() as u64;
    let setup_s = *it.setup_s.last().expect("set-up ran");

    let mut solved = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            it.layers.time("maxflow.gk_s", || {
                max_concurrent_flow(&nets[p.net], &p.commodities, p.opts)
            })
        }));
        match r {
            Ok(r) => solved.push((i, r)),
            Err(_) => it.fail(1, format!("GK solve of point {i} panicked")),
        }
    }
    let t0 = Instant::now();
    let brackets: Vec<(usize, f64, f64)> = solved
        .iter()
        .map(|(i, r)| (*i, r.throughput.min(1.0), r.upper_bound.min(1.0)))
        .collect();
    let gap = brackets
        .iter()
        .map(|&(_, lo, hi)| (hi - lo) / hi)
        .sum::<f64>()
        / brackets.len().max(1) as f64;
    let aggregate_s = t0.elapsed().as_secs_f64();
    it.wall_s = setup_s + it.layers.get("maxflow.gk_s") + aggregate_s;

    // Checks: an ordered bracket inside [0, 1] whose feasible end stays
    // below the capacity/path-length bound. (The bracket may end wider
    // than the requested gap: GK also stops at its own phase limit.)
    for &(i, lo, hi) in &brackets {
        let p = &points[i];
        let demands: Vec<(u32, u32, f64)> = p
            .commodities
            .iter()
            .map(|c| (c.src, c.dst, c.demand))
            .collect();
        let cap_bound = dcn_maxflow::bound::capacity_path_bound(&topologies[p.net], &demands);
        let why = if !(0.0 <= lo && lo <= hi && hi <= 1.0) {
            Some(format!(
                "bracket [{lo}, {hi}] out of order or outside [0, 1]"
            ))
        } else if lo > cap_bound + 1e-9 {
            Some(format!("lower {lo} above capacity bound {cap_bound}"))
        } else {
            None
        };
        if let Some(why) = why {
            it.fail(1, format!("point {i}: {why}"));
        }
    }

    let l = &mut it.layers;
    let phases: usize = solved.iter().map(|(_, r)| r.phases).sum();
    let calls: usize = solved.iter().map(|(_, r)| r.dijkstra_calls).sum();
    l.add("maxflow.phases", phases as f64);
    l.add("maxflow.dijkstra_calls", calls as f64);
    l.add("maxflow.gap", gap);

    let r = &mut it.report;
    push(r, "points", brackets.len() as f64);
    push(r, "gk_phases", phases as f64);
    push(r, "dijkstra_calls", calls as f64);
    push(r, "fluid_gap", gap);
    push(
        r,
        "mean_lower",
        brackets.iter().map(|b| b.1).sum::<f64>() / brackets.len().max(1) as f64,
    );
    push(
        r,
        "mean_upper",
        brackets.iter().map(|b| b.2).sum::<f64>() / brackets.len().max(1) as f64,
    );
    it
}

// --------------------------------------------------------------- flowsim

/// Fig 15 between Small and Paper scale: a k = 16 fat-tree with ECMP
/// against an Xpander at 45 % of its switches (144 switches, d = 8,
/// 8 servers each) with HYB, both under Skew(0.04, 0.77) at 23 flows/s
/// per fat-tree server, in the flow-level simulator.
const FIG15_FATTREE_K: u32 = 16;

/// Independent flow sets per side, each from its own seed, and the volume
/// each offers (see [`flows`]). The waterfill's cost grows faster than
/// the volume: a quarter of a 6 GB set runs about 12 times faster, and
/// how its big flows overlap moves one set's cost by tens of percent
/// between seeds. Sixteen 1.5 GB sets average that out, and their smaller
/// active-flow working set is steadier on a shared host than one 6 GB
/// backlog.
const FIG15_PARTS: u64 = 16;
const FIG15_PART_BYTES: u64 = 1_500_000_000;

/// One selector shared by the flow sets of a side, so the routing tables
/// are built once per side, as a sweep over flow sets builds them.
struct Shared(Arc<dyn PathSelector>);

impl PathSelector for Shared {
    fn select(&self, src: NodeId, dst: NodeId, key: u64, bytes_sent: u64) -> Vec<LinkId> {
        self.0.select(src, dst, key, bytes_sent)
    }

    fn select_with_feedback(
        &self,
        src: NodeId,
        dst: NodeId,
        key: u64,
        bytes_sent: u64,
        ecn_marks: u64,
    ) -> Vec<LinkId> {
        self.0
            .select_with_feedback(src, dst, key, bytes_sent, ecn_marks)
    }

    fn rebuild(&self, topo: &Topology) -> Box<dyn PathSelector> {
        self.0.rebuild(topo)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn flowsim(seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let sides = repeat_setup(&mut it, |l| {
        let ft = build_topology(l, || FatTree::full(FIG15_FATTREE_K).build());
        let xp = build_topology(l, || Xpander::for_switches(8, 144, 8, GRAPH_SEED).build());
        let lambda = 23.0 * ft.num_servers() as f64;
        [(ft, Routing::Ecmp), (xp, Routing::Hyb)].map(|(t, routing)| {
            let mut sel = selector(l, &t, routing);
            let probe = traced.then(|| Arc::new(SelectStats::default()));
            if let Some(p) = &probe {
                sel = CountingSelector::wrap(sel, p);
            }
            let sel: Arc<dyn PathSelector> = Arc::from(sel);
            let parts: Vec<(FlowSim, Vec<FlowEvent>)> = (0..FIG15_PARTS)
                .map(|k| {
                    let part_seed = seed.wrapping_mul(FIG15_PARTS).wrapping_add(k);
                    let flows = flows(l, &t, Pattern::Skew, lambda, FIG15_PART_BYTES, part_seed);
                    let sim = l.time("flowsim.build_s", || {
                        let shared = Box::new(Shared(Arc::clone(&sel)));
                        let mut sim = FlowSim::new(&t, shared, FlowSimConfig::default());
                        sim.inject(&flows);
                        sim
                    });
                    (sim, flows)
                })
                .collect();
            (parts, probe)
        })
    });
    let setup_s = *it.setup_s.last().expect("set-up ran");

    // Checks: every flow finished, none faster than its size at the
    // 10 Gbps line rate.
    let cfg = FlowSimConfig::default();
    let gbps = cfg.link_gbps.min(cfg.server_link_gbps);
    let mut wall_s = setup_s;
    for (side, (parts, probe)) in sides.into_iter().enumerate() {
        let name = ["fattree", "xpander"][side];
        let mut records = Vec::new();
        for (k, (mut sim, flows)) in parts.into_iter().enumerate() {
            it.ops += flows.len() as u64;
            let solved = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let records = sim.run(max_time_ns(&flows) as f64 / 1e9);
                (records, t0.elapsed().as_secs_f64())
            }));
            let Ok((part, run_s)) = solved else {
                it.fail(
                    flows.len() as u64,
                    format!("{name} set {k}: flow simulation panicked"),
                );
                continue;
            };
            wall_s += run_s;
            it.layers.add("flowsim.run_s", run_s);
            it.layers.add("flowsim.flows", flows.len() as f64);
            let bad = part.len().abs_diff(flows.len()) as u64
                + part
                    .iter()
                    .filter(|r| !finished_at_line_rate(r, gbps))
                    .count() as u64;
            if bad > 0 {
                it.fail(
                    bad,
                    format!("{name} set {k}: {bad} flows unfinished or faster than line rate"),
                );
            }
            records.extend(part);
        }
        let t0 = Instant::now();
        let m = compute_metrics(&records, 0, Ns::MAX);
        let metrics_s = t0.elapsed().as_secs_f64();
        wall_s += metrics_s;
        it.layers.add("stats.metrics_s", metrics_s);
        if let Some(p) = &probe {
            p.fold_into(&mut it.layers);
        }
        metrics_report(&mut it.report, name, &m);
    }
    it.wall_s = wall_s;
    if traced {
        push(
            &mut it.report,
            "select_calls",
            it.layers.get("routing.select_calls"),
        );
    }
    it
}

fn finished_at_line_rate(r: &FlowRecord, gbps: f64) -> bool {
    let serialization_ns = r.size_bytes as f64 * 8.0 / gbps;
    matches!(r.fct_ns, Some(fct) if !r.failed && fct as f64 >= serialization_ns - 1.0)
}
