//! `bench` — engine performance benchmarks with a committed baseline.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin bench -- perf            # report
//! cargo run --release -p dcn-bench --bin bench -- perf --bless   # write BENCH_sim.json
//! cargo run --release -p dcn-bench --bin bench -- perf --check   # assert vs BENCH_sim.json
//! ```
//!
//! `perf` runs the suite in [`dcn_bench::perf`]: three transports at two
//! fat-tree sizes, reporting events/second and wall time per case.
//! Simulated fields are byte-stable; `--check` compares them exactly
//! against the committed `BENCH_sim.json` and asserts each case's rate
//! stays above half the blessed baseline (loose on purpose: it catches an
//! engine regression, not CI machine jitter). Re-baseline deliberate
//! engine changes with `--bless` so the perf trajectory is reviewed next
//! to the code that moved it; `dcnstat bench` diffs two baselines.
//!
//! `--counters` switches the report table to the engine's deterministic
//! self-observability columns (calendar spills/fallbacks, queue peak,
//! arena high-water) instead of
//! the wall-clock columns; the JSON rows always carry both.
//!
//! `--out <path>` overrides the baseline location (default
//! `BENCH_sim.json` in the working directory — the repo root under CI).

use dcn_bench::perf::{case_label, case_rate, check_perf, run_perf_suite};
use dcn_json::Json;

fn fail(msg: &str) -> ! {
    eprintln!("bench: error: {msg}");
    std::process::exit(1)
}

const USAGE: &str = "usage: bench perf [--bless | --check] [--counters] [--seed N] [--out <path>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("perf") {
        fail(USAGE);
    }
    let mut bless = false;
    let mut check = false;
    let mut counters = false;
    let mut seed = 1u64;
    let mut path = "BENCH_sim.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bless" => bless = true,
            "--check" => check = true,
            "--counters" => counters = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--seed takes an integer"));
            }
            "--out" => {
                i += 1;
                path = args
                    .get(i)
                    .unwrap_or_else(|| fail("--out takes a path"))
                    .clone();
            }
            other => fail(&format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if bless && check {
        fail("--bless and --check are mutually exclusive");
    }

    let report = run_perf_suite(seed);
    let u = |c: &Json, k: &str| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    if counters {
        // The engine self-observability columns: all deterministic, so
        // they are part of the blessed baseline and exact-checked.
        println!("case\tevents\tspills\tfallbacks\tqueue_peak\tarena_hwm");
    } else {
        println!("case\tevents\twall_ms\tevents_per_sec");
    }
    if let Some(cases) = report.get("cases").and_then(|c| c.as_array()) {
        for c in cases {
            if counters {
                println!(
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    case_label(c),
                    u(c, "events"),
                    u(c, "ladder_spills"),
                    u(c, "scatter_fallbacks"),
                    u(c, "queue_peak"),
                    u(c, "arena_hwm"),
                );
            } else {
                println!(
                    "{}\t{}\t{}\t{}",
                    case_label(c),
                    u(c, "events"),
                    u(c, "wall_ms"),
                    case_rate(c).unwrap_or(0.0) as u64,
                );
            }
        }
    }

    if bless {
        dcn_core::write_atomic(&path, report.pretty().as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("blessed {path}");
    } else if check {
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            fail(&format!(
                "read {path}: {e} (run `bench perf --bless` first)"
            ))
        });
        let baseline = Json::parse(&body).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
        let errs = check_perf(&report, &baseline);
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("bench: {e}");
            }
            std::process::exit(1);
        }
        eprintln!("ok: all cases match {path} (simulated fields exact, rates above floor)");
    }
}
