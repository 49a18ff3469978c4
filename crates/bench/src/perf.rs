//! The engine performance suite behind `bench perf` and the committed
//! `BENCH_sim.json` baseline.
//!
//! Each case runs one deterministic packet-level experiment (a transport
//! on a fat-tree size) and records two kinds of fields:
//!
//! - **simulated** — flow counts, events processed, drops, queue peak,
//!   and the engine's deterministic self-observability counters (calendar
//!   spills/fallbacks and peak, arena high-water). Same binary, same seed ⇒ byte-identical
//!   values; `--check` compares them exactly, so an accidental behavior
//!   change in the hot path fails CI even if it is *faster*.
//! - **wall-clock** — `wall_ms` and `events_per_sec_wall`, segregated in
//!   [`PERF_WALL_CLOCK_FIELDS`] exactly like `RunManifest`'s wall fields.
//!   `--check` only asserts a loose floor (half the blessed rate), which
//!   catches "the engine got slow" without tripping on CI machine jitter.
//!
//! The committed baseline at the repo root is the start of the perf
//! trajectory ROADMAP item 1 calls for: re-bless with
//! `bench perf --bless` after a deliberate engine change and the diff
//! shows up in review next to the code that caused it.

use dcn_json::Json;
use dcn_routing::RoutingSuite;
use dcn_sim::{compute_metrics, SimConfig, Simulator, MS, SEC};
use dcn_topology::fattree::FatTree;
use dcn_workloads::{fsize::PFabricWebSearch, generate_flows, tm::AllToAll};

/// Schema tag every `BENCH_sim.json` leads with.
pub const PERF_SCHEMA: &str = "dcn-bench-perf-v1";

/// Per-case fields that legitimately differ between two runs of the same
/// binary: wall-clock measurements. Everything else is simulated and must
/// be byte-identical. (`RunManifest` keeps the same split in
/// `dcn_core::WALL_CLOCK_FIELDS`.)
pub const PERF_WALL_CLOCK_FIELDS: &[&str] = &["wall_ms", "events_per_sec_wall"];

/// `--check` fails when a case's measured rate drops below this fraction
/// of the blessed baseline.
pub const PERF_RATE_FLOOR: f64 = 0.5;

/// One experiment of the suite: a transport on a fat-tree size, loaded
/// enough that the hot path (not setup) dominates.
struct Case {
    topology: &'static str,
    transport: &'static str,
    k: u32,
    /// Flow arrivals per second across all servers.
    lambda: f64,
    /// Arrival window length (seconds); measurement window matches.
    span_s: f64,
}

const fn case(
    topology: &'static str,
    transport: &'static str,
    k: u32,
    lambda: f64,
    span_s: f64,
) -> Case {
    Case {
        topology,
        transport,
        k,
        lambda,
        span_s,
    }
}

const CASES: &[Case] = &[
    case("fat_tree_k4", "dctcp", 4, 16_000.0, 0.05),
    case("fat_tree_k4", "newreno", 4, 16_000.0, 0.05),
    case("fat_tree_k4", "pfabric", 4, 16_000.0, 0.05),
    case("fat_tree_k8", "dctcp", 8, 21_376.0, 0.03),
    case("fat_tree_k8", "newreno", 8, 21_376.0, 0.03),
    case("fat_tree_k8", "pfabric", 8, 21_376.0, 0.03),
];

fn config_for(transport: &str) -> SimConfig {
    match transport {
        "dctcp" => SimConfig::default(),
        "newreno" => SimConfig::default().with_newreno(),
        "pfabric" => SimConfig::default().with_pfabric(),
        other => panic!("unknown transport {other}"),
    }
}

/// Runs one case and returns its report row (simulated fields first,
/// wall-clock fields last).
fn run_case(c: &Case, seed: u64) -> Json {
    let t = FatTree::full(c.k).build();
    let suite = RoutingSuite::new(&t);
    let cfg = config_for(c.transport);
    let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
    let pattern = AllToAll::new(&t, t.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), c.lambda, c.span_s, seed);
    let warmup = 2 * MS;
    let end = warmup + (c.span_s * 1e9) as u64;
    sim.set_window(warmup, end);
    sim.inject(&flows);
    let t0 = std::time::Instant::now();
    let rec = sim.run(20 * SEC);
    let wall = t0.elapsed();
    let m = compute_metrics(&rec, warmup, end);
    let rate = sim.events_processed() as f64 / wall.as_secs_f64();
    // The engine's deterministic self-observability counters are report
    // columns too: they are simulated fields, so --check compares them
    // exactly.
    let eng = sim.engine_counters().shards.remove(0);
    Json::obj(vec![
        ("topology", Json::from(c.topology)),
        ("transport", Json::from(c.transport)),
        ("seed", Json::from(seed)),
        ("flows", Json::from(flows.len())),
        ("completed", Json::from(m.completed)),
        ("events", Json::from(sim.events_processed())),
        ("drops", Json::from(sim.total_drops())),
        ("queue_peak", Json::from(sim.heap_peak())),
        ("ladder_spills", Json::from(eng.ladder_spills)),
        ("scatter_fallbacks", Json::from(eng.scatter_fallbacks)),
        ("arena_hwm", Json::from(eng.arena_high_water)),
        ("wall_ms", Json::from(wall.as_millis() as u64)),
        ("events_per_sec_wall", Json::from(rate.round() as u64)),
    ])
}

/// Runs every case of the suite; the returned document is what `--bless`
/// commits as `BENCH_sim.json`.
pub fn run_perf_suite(seed: u64) -> Json {
    let cases: Vec<Json> = CASES.iter().map(|c| run_case(c, seed)).collect();
    Json::obj(vec![
        ("schema", Json::from(PERF_SCHEMA)),
        ("cases", Json::Arr(cases)),
    ])
}

/// A case's wall-clock event rate.
pub fn case_rate(case: &Json) -> Option<f64> {
    case.get("events_per_sec_wall").and_then(|v| v.as_f64())
}

/// The `(topology, transport)` label of a case row.
pub fn case_label(case: &Json) -> String {
    let t = case.get("topology").and_then(|v| v.as_str()).unwrap_or("?");
    let x = case
        .get("transport")
        .and_then(|v| v.as_str())
        .unwrap_or("?");
    format!("{t}/{x}")
}

/// Compares a fresh run against the blessed baseline: every simulated
/// field must match exactly; every wall-clock rate must clear
/// [`PERF_RATE_FLOOR`]. Returns human-readable failures (empty = pass).
pub fn check_perf(current: &Json, baseline: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    for doc in [current, baseline] {
        if doc.get("schema").and_then(|s| s.as_str()) != Some(PERF_SCHEMA) {
            errs.push(format!("schema tag is not {PERF_SCHEMA}"));
            return errs;
        }
    }
    let cur = current
        .get("cases")
        .and_then(|c| c.as_array())
        .unwrap_or(&[]);
    let base = baseline
        .get("cases")
        .and_then(|c| c.as_array())
        .unwrap_or(&[]);
    if cur.len() != base.len() {
        errs.push(format!(
            "case count mismatch: {} now vs {} blessed (re-bless after changing the suite)",
            cur.len(),
            base.len()
        ));
        return errs;
    }
    for (c, b) in cur.iter().zip(base) {
        let label = case_label(b);
        let (Some(cf), Some(bf)) = (c.as_object(), b.as_object()) else {
            errs.push(format!("{label}: malformed case row"));
            continue;
        };
        for (key, bv) in bf {
            if PERF_WALL_CLOCK_FIELDS.contains(&key.as_str()) {
                continue;
            }
            match cf.iter().find(|(k, _)| k == key) {
                Some((_, cv)) if cv == bv => {}
                Some((_, cv)) => errs.push(format!(
                    "{label}: simulated field \"{key}\" drifted: {cv} vs blessed {bv}"
                )),
                None => errs.push(format!("{label}: simulated field \"{key}\" missing")),
            }
        }
        if let (Some(cr), Some(br)) = (case_rate(c), case_rate(b)) {
            let floor = PERF_RATE_FLOOR * br;
            if cr < floor {
                errs.push(format!(
                    "{label}: engine regressed: {cr:.0} events/s < floor {floor:.0} \
                     ({:.0}% of blessed {br:.0})",
                    100.0 * PERF_RATE_FLOOR
                ));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(events: u64, rate: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            (
                "cases",
                Json::Arr(vec![Json::obj(vec![
                    ("topology", Json::from("fat_tree_k4")),
                    ("transport", Json::from("dctcp")),
                    ("events", Json::from(events)),
                    ("wall_ms", Json::from(10u64)),
                    ("events_per_sec_wall", Json::from(rate)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_docs_pass() {
        assert!(check_perf(&doc(100, 1000), &doc(100, 1000)).is_empty());
    }

    #[test]
    fn wall_clock_fields_may_differ() {
        assert!(check_perf(&doc(100, 999_999), &doc(100, 1000)).is_empty());
        // Faster is fine; only the floor matters.
        assert!(check_perf(&doc(100, 501), &doc(100, 1000)).is_empty());
    }

    #[test]
    fn simulated_drift_fails() {
        let errs = check_perf(&doc(101, 1000), &doc(100, 1000));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("\"events\" drifted"), "{errs:?}");
    }

    #[test]
    fn rate_below_floor_fails() {
        let errs = check_perf(&doc(100, 499), &doc(100, 1000));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("regressed"), "{errs:?}");
    }

    #[test]
    fn case_count_mismatch_fails() {
        let empty = Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            ("cases", Json::Arr(vec![])),
        ]);
        assert!(!check_perf(&empty, &doc(100, 1000)).is_empty());
    }
}
