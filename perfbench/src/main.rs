//! Host-time benchmark of the reproduction's hot paths, end to end and
//! layer by layer. See `README.md` in this directory for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread, repeating it on the same
//! seeded inputs until `--seconds` of host time are used, and prints one
//! JSON result as its last line. `--trace 0` reports the end-to-end
//! metrics of untraced iterations; `--trace 1` alternates untraced and
//! traced iterations and reports the per-layer metrics of the traced ones
//! plus the tracing overhead. The exit code is 1 when any output check
//! failed and 2 on a usage error.

mod probe;
mod workloads;

use dcn_json::Json;
use probe::Layers;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Iteration, NAMES};

/// Per-layer metrics (`--trace 1`) with their units. A workload that does
/// not use a layer reports 0 for its metrics and names them under `n_a`
/// in the report line.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.nodes", "count"),
    ("topology.links", "count"),
    ("routing.tables_s", "s"),
    ("routing.select_calls", "count"),
    ("routing.select_s", "s"),
    ("routing.hops_per_select", "hops"),
    ("workloads.gen_s", "s"),
    ("workloads.flows", "count"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.self_s", "s"),
    ("sim.drain_s", "s"),
    ("sim.mailbox_s", "s"),
    ("sim.barrier_s", "s"),
    ("sim.epochs", "count"),
    ("sim.xshard_pkts", "count"),
    ("sim.ladder_spills", "count"),
    ("sim.scatter_fallbacks", "count"),
    ("sim.calendar_peak", "count"),
    ("sim.arena_hwm", "count"),
    ("host.acks", "count"),
    ("host.rtos", "count"),
    ("host.transport_s", "s"),
    ("switch.enqueues", "count"),
    ("switch.drops", "count"),
    ("switch.marks", "count"),
    ("switch.queue_s", "s"),
    ("stats.metrics_s", "s"),
    ("maxflow.network_s", "s"),
    ("maxflow.gk_s", "s"),
    ("maxflow.phases", "count"),
    ("maxflow.dijkstra_calls", "count"),
    ("maxflow.dijkstra_per_s", "1/s"),
    ("maxflow.gap", "fraction"),
    ("flowsim.build_s", "s"),
    ("flowsim.run_s", "s"),
    ("flowsim.flows", "count"),
    ("flowsim.flows_per_s", "1/s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*NAMES.iter().find(|n| **n == value).ok_or_else(|| {
                    format!("unknown workload '{value}' (one of {})", NAMES.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed takes an integer, got '{value}'"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, got '{value}'"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One iteration; a panic outside the workload's own guarded calls (in
/// set-up, say) becomes one failed operation instead of aborting the run.
fn iterate(args: &Args, traced: bool) -> Iteration {
    let t0 = Instant::now();
    let it = catch_unwind(AssertUnwindSafe(|| {
        workloads::run_once(args.workload, args.seed, traced)
    }))
    .unwrap_or_else(|_| Iteration {
        ops: 1,
        failed: 1,
        errors: vec!["iteration panicked".to_string()],
        ..Default::default()
    });
    eprintln!(
        "perfbench: {} seed {} {}: wall {:.3} s (iteration {:.3} s), {}/{} ops failed",
        args.workload,
        args.seed,
        if traced { "traced" } else { "untraced" },
        it.wall_s,
        t0.elapsed().as_secs_f64(),
        it.failed,
        it.ops
    );
    it
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Adds the ratios and the engine self time derived from a traced
/// iteration's spans and counts.
fn derive(l: &mut Layers) {
    let ratio = |l: &mut Layers, name, num: &str, den: &str| {
        if l.has(num) && l.get(den) > 0.0 {
            l.add(name, l.get(num) / l.get(den));
        }
    };
    ratio(
        l,
        "routing.hops_per_select",
        "routing.hops",
        "routing.select_calls",
    );
    ratio(l, "sim.events_per_s", "sim.events", "sim.run_s");
    ratio(
        l,
        "maxflow.dijkstra_per_s",
        "maxflow.dijkstra_calls",
        "maxflow.gk_s",
    );
    ratio(l, "flowsim.flows_per_s", "flowsim.flows", "flowsim.run_s");
    if l.has("sim.run_s") {
        let inner = l.get("routing.select_s") + l.get("host.transport_s") + l.get("switch.queue_s");
        l.add("sim.self_s", l.get("sim.run_s") - inner);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // Rounds of one untraced iteration (and, when tracing, one traced
    // iteration) until another round would overrun the time budget.
    let start = Instant::now();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    loop {
        untraced.push(iterate(&args, false));
        if args.trace {
            traced.push(iterate(&args, true));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / untraced.len() as f64 > args.seconds {
            break;
        }
    }

    let all = || untraced.iter().chain(traced.iter());
    let attempted: u64 = all().map(|it| it.ops).sum();
    let failed: u64 = all().map(|it| it.failed).sum();
    let mut errors: Vec<String> = all().flat_map(|it| it.errors.iter().cloned()).collect();

    // Same seed, same inputs: every iteration must reproduce the first
    // one's deterministic fields, traced or not (a traced iteration adds
    // decorator counts the untraced ones lack).
    let first: BTreeMap<&str, f64> = untraced[0]
        .report
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    for it in all().skip(1) {
        for (k, v) in &it.report {
            if first
                .get(k.as_str())
                .is_some_and(|f| f.to_bits() != v.to_bits())
            {
                errors.push(format!(
                    "report field {k} differs between iterations: {} vs {v}",
                    first[k.as_str()]
                ));
            }
        }
    }
    let report = traced.first().unwrap_or(&untraced[0]).report.clone();

    let wall = median(untraced.iter().map(|it| it.wall_s).collect());
    let mut n_a: Vec<&str> = Vec::new();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers: Vec<Layers> = traced.iter().map(|it| it.layers.clone()).collect();
        layers.iter_mut().for_each(derive);
        let traced_wall = median(traced.iter().map(|it| it.wall_s).collect());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_s" {
                    traced_wall - wall
                } else if layers[0].has(name) {
                    median(layers.iter().map(|l| l.get(name)).collect())
                } else {
                    n_a.push(name);
                    0.0
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let setup = untraced.iter().flat_map(|it| it.setup_s.iter().copied());
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            errors.push(e);
            0.0
        });
        vec![
            ("wall_s", wall, "s"),
            ("setup_s", median(setup.collect()), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    };
    for &(name, v, _) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }

    let correct = errors.is_empty() && failed == 0;
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let report = Json::Obj(report.into_iter().map(|(k, v)| (k, Json::Num(v))).collect());
    println!(
        "{}",
        Json::obj(vec![
            ("workload", Json::from(args.workload)),
            ("seed", Json::from(args.seed)),
            ("trace", Json::from(args.trace as u64)),
            ("iterations", Json::from(untraced.len())),
            ("traced_iterations", Json::from(traced.len())),
            (
                "failed_ops_frac",
                Json::Num(failed as f64 / attempted.max(1) as f64)
            ),
            ("report", report),
            ("n_a", Json::from(n_a)),
            ("errors", Json::from(errors)),
        ])
    );
    let metrics = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            let m = Json::obj(vec![("value", Json::Num(v)), ("unit", Json::from(unit))]);
            (name, m)
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
