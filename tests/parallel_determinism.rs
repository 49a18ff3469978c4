//! Determinism of the sequential engine, exercised as a randomized
//! sweep: for *any* topology, transport, workload, and adversarial fault
//! plan,
//!
//! - running the same seeded scenario twice reproduces it
//!   **byte-for-byte** — identical flow records, JSONL event traces,
//!   telemetry streams, and deterministic engine counters;
//! - pausing at a random simulated time, checkpointing, and resuming in a
//!   fresh simulator lands on the uninterrupted run exactly, trace and
//!   telemetry files included.
//!
//! Any divergence here is a real engine bug (state outside the
//! checkpoint, an iteration-order dependence), not noise.

use beyond_fattrees::prelude::*;
use dcn_rng::Rng;

/// Everything a run emits, captured in memory.
struct Artifacts {
    records: Vec<FlowRecord>,
    trace: Vec<u8>,
    telemetry: Vec<u8>,
    counters: EngineCounters,
}

/// One fully instrumented run of a scenario.
fn run_instrumented(
    topo: &Topology,
    cfg: SimConfig,
    flows: &[FlowEvent],
    plan: Option<&FaultPlan>,
    window_end: u64,
    max_time: u64,
) -> Artifacts {
    let mut sim = Simulator::new(topo, Routing::Ecmp.selector(topo), cfg);
    sim.set_window(0, window_end);
    sim.inject(flows);
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    let tbuf = SharedBuf::new();
    sim.set_tracer(Box::new(JsonlTracer::new(tbuf.clone())));
    let mbuf = SharedBuf::new();
    sim.set_telemetry(Telemetry::new(
        Box::new(mbuf.clone()),
        DEFAULT_SAMPLE_EVERY_NS,
    ));
    let records = sim.run(max_time);
    let counters = sim.engine_counters();
    Artifacts {
        records,
        trace: tbuf.contents(),
        telemetry: mbuf.contents(),
        counters,
    }
}

/// A seeded random scenario: topology family, transport, workload, and
/// (on odd seeds) a chaos fault plan all drawn from the seed.
fn scenario(seed: u64) -> (Topology, SimConfig, Vec<FlowEvent>, Option<FaultPlan>) {
    let mut meta = Rng::seed_from_u64(0x5AAD ^ seed.wrapping_mul(0x9E37_79B9));
    let topo = match meta.gen_range(0u32..3) {
        0 => FatTree::full(4).build(),
        1 => Xpander::for_switches(4, 15, 2, seed).build(),
        _ => Jellyfish::new(12, 4, 2, seed).build(),
    };
    let cfg = match meta.gen_range(0u32..3) {
        0 => SimConfig::default(),
        1 => SimConfig::default().with_newreno(),
        _ => SimConfig::default().with_pfabric(),
    };
    let lambda = 1_000.0 + meta.gen_range(0.0..2_000.0);
    let pattern = AllToAll::new(&topo, topo.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), lambda, 0.004, seed);
    let plan = (seed % 2 == 1).then(|| FaultPlan::chaos(&topo, 4 * MS, seed));
    (topo, cfg, flows, plan)
}

/// The sweep: six random scenarios, each run twice, every artifact
/// compared byte-for-byte.
#[test]
fn same_seed_runs_are_byte_identical() {
    for seed in 0u64..6 {
        let (topo, cfg, flows, plan) = scenario(seed);
        if flows.is_empty() {
            continue; // a seed may draw an empty arrival window
        }
        if let Some(p) = &plan {
            p.validate_schedule(&topo, 80 * MS)
                .expect("chaos plans must validate");
        }
        let run = || run_instrumented(&topo, cfg, &flows, plan.as_ref(), 4 * MS, 80 * MS);
        let first = run();
        assert!(!first.trace.is_empty(), "seed {seed}: empty trace");
        let again = run();
        assert_eq!(
            again.records, first.records,
            "seed {seed}: flow records diverge"
        );
        assert_eq!(
            again.trace, first.trace,
            "seed {seed}: event trace diverges"
        );
        assert_eq!(
            again.telemetry, first.telemetry,
            "seed {seed}: telemetry diverges"
        );
        // The deterministic counter set is part of the contract too:
        // calendar and arena behavior may not vary between runs.
        assert_eq!(
            again.counters, first.counters,
            "seed {seed}: engine counters diverge"
        );
    }
}

/// Counters are simulator state: a snapshot→restore round-trip hands the
/// resumed engine exactly the counters the paused one held.
#[test]
fn counters_survive_checkpoint_byte_exactly() {
    let (topo, cfg, flows, plan) = scenario(1); // odd seed: plan is Some
    let plan = plan.expect("odd seed draws a fault plan");
    let mut paused = Simulator::new(&topo, Routing::Ecmp.selector(&topo), cfg);
    paused.set_window(0, 4 * MS);
    paused.inject(&flows);
    paused.set_fault_plan(&plan);
    assert!(
        !paused.run_until(2 * MS),
        "scenario 1 must still be mid-run at its window midpoint"
    );
    let at_pause = paused.engine_counters();
    assert!(at_pause.events_total() > 0, "pause point saw no events");
    let ckpt = paused.checkpoint().expect("checkpoint");
    drop(paused);
    let resumed =
        Simulator::restore(&topo, Routing::Ecmp.selector(&topo), cfg, &ckpt).expect("restore");
    assert_eq!(
        resumed.engine_counters(),
        at_pause,
        "engine counters did not survive the checkpoint round-trip"
    );
}

fn tmp_path(seed: u64, leg: &str, kind: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "det_sweep_{}_{seed}_{leg}.{kind}",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Snapshot at a random simulated time (drawn from the seed), resume in a
/// fresh simulator, and compare against the uninterrupted run: records,
/// event count, and the file-backed trace and telemetry streams. (The
/// calendar's ladder-spill count is not compared at the end: a restore
/// re-files the pending events into a ring sized for them, so later
/// spills are a layout statistic, not simulated state.)
#[test]
fn snapshot_at_random_t_resumes_identically() {
    for seed in 0u64..6 {
        let (topo, cfg, flows, plan) = scenario(seed);
        if flows.is_empty() {
            continue;
        }
        let build = |leg: &str| {
            let mut sim = Simulator::new(&topo, Routing::Ecmp.selector(&topo), cfg);
            sim.set_window(0, 4 * MS);
            sim.inject(&flows);
            if let Some(p) = &plan {
                sim.set_fault_plan(p);
            }
            let trace = tmp_path(seed, leg, "trace.jsonl");
            sim.set_tracer(Box::new(JsonlTracer::create(&trace).expect("open trace")));
            let tel = tmp_path(seed, leg, "tel.jsonl");
            sim.set_telemetry(
                Telemetry::to_file(&tel, DEFAULT_SAMPLE_EVERY_NS).expect("open telemetry"),
            );
            (sim, trace, tel)
        };
        let (mut straight, trace_a, tel_a) = build("straight");
        let want = straight.run(80 * MS);
        let want_events = straight.events_processed();
        drop(straight);

        let pause = Rng::seed_from_u64(0x7A05E ^ seed).gen_range(1..4 * MS);
        let (mut paused, trace_b, tel_b) = build("resumed");
        let got = if paused.run_until(pause) {
            let rec = paused.finish();
            assert_eq!(paused.events_processed(), want_events, "seed {seed}");
            rec
        } else {
            let ckpt = paused.checkpoint().expect("checkpoint");
            drop(paused); // the original process dies after the snapshot
            let mut resumed = Simulator::restore(&topo, Routing::Ecmp.selector(&topo), cfg, &ckpt)
                .expect("restore");
            let rec = resumed.run(80 * MS);
            assert_eq!(
                resumed.events_processed(),
                want_events,
                "seed {seed}: event count diverges after resuming at t={pause}"
            );
            rec
        };
        assert_eq!(got, want, "seed {seed}: resume at t={pause} diverged");
        for (a, b) in [(&trace_a, &trace_b), (&tel_a, &tel_b)] {
            assert_eq!(
                std::fs::read(a).expect("read straight leg"),
                std::fs::read(b).expect("read resumed leg"),
                "seed {seed}: {b} differs from the uninterrupted run (pause at t={pause})"
            );
            let _ = std::fs::remove_file(a);
            let _ = std::fs::remove_file(b);
        }
    }
}
