//! Extension experiment (not in the paper): graceful degradation under
//! link failures. Expanders are known to degrade smoothly, while a
//! fat-tree's layered structure concentrates damage; this quantifies the
//! effect with the same FCT methodology as §6.
//!
//! Two modes:
//!
//! * default (static): links are removed before the run and the routing
//!   is built on the degraded topology — steady-state damage.
//! * `--dynamic`: links fail *during* the measurement window and recover
//!   later; routing reconverges after a delay and senders reroute on RTO.
//!   Emits the fault-drop and recovery-latency columns alongside FCT.

use dcn_bench::{packet_setup, parse_cli, run_points, Cli, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_sim::FaultPlan;
use dcn_workloads::{AllToAll, PFabricWebSearch};

const FRACTIONS: [f64; 5] = [0.0, 0.05, 0.1, 0.15, 0.2];

fn main() {
    let cli = parse_cli(&["dynamic"]);
    if cli.has_flag("dynamic") {
        dynamic_mode(&cli);
    } else {
        static_mode(&cli);
    }
}

/// The point label for one failed-link fraction: `ft_f005` = fat-tree, 5%.
fn label(arm: &str, frac: f64) -> String {
    format!("{arm}_f{:03}", (frac * 100.0).round() as u32)
}

/// Steady-state damage: fail a fraction of links up front, route around.
fn static_mode(cli: &Cli) {
    let pair = paper_networks(cli.scale, cli.seed);
    let sizes = PFabricWebSearch::new();
    let lambda_ft = 100.0 * pair.fat_tree.num_servers() as f64;
    let lambda_xp = 100.0 * pair.xpander.num_servers() as f64;

    let degraded: Vec<_> = FRACTIONS
        .iter()
        .map(|&frac| {
            let ft = pair.fat_tree.with_random_failures(frac, cli.seed);
            let xp = pair.xpander.with_random_failures(frac, cli.seed);
            let ft_pat = AllToAll::new(&ft, ft.tors_with_servers());
            let xp_pat = AllToAll::new(&xp, xp.tors_with_servers());
            (frac, ft, ft_pat, xp, xp_pat)
        })
        .collect();
    let mut points = Vec::new();
    for (frac, ft, ft_pat, xp, xp_pat) in &degraded {
        points.extend([
            PacketPoint::new(label("ft", *frac), ft, Routing::Ecmp, ft_pat, lambda_ft),
            PacketPoint::new(
                label("xp_hyb", *frac),
                xp,
                Routing::PAPER_HYB,
                xp_pat,
                lambda_xp,
            ),
        ]);
    }
    let results = run_points(cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_failures",
        "failed_link_fraction",
        &["fat_tree_avg_fct_ms", "xpander_hyb_avg_fct_ms"],
    );
    for (&frac, row) in FRACTIONS.iter().zip(results.chunks(2)) {
        s.push_metric(frac, row, |m| m.avg_fct_ms);
    }
    s.finish(cli);
}

/// Fail-then-recover: the fraction of links goes down a quarter into the
/// measurement window and comes back at the midpoint, so the run covers
/// outage, reconvergence, and recovery on the *same* flows.
fn dynamic_mode(cli: &Cli) {
    let pair = paper_networks(cli.scale, cli.seed);
    let sizes = PFabricWebSearch::new();
    let (w0, w1) = packet_setup(cli.scale).window;
    let span = w1 - w0;
    let down_at = w0 + span / 4;
    let up_at = w0 + span / 2;

    let arms = [
        ("dyn_ft", &pair.fat_tree, Routing::Ecmp),
        ("dyn_xp_hyb", &pair.xpander, Routing::PAPER_HYB),
    ];
    let patterns = arms.map(|(_, t, _)| AllToAll::new(t, t.tors_with_servers()));
    let mut points = Vec::new();
    for &frac in &FRACTIONS {
        for ((arm, t, routing), pattern) in arms.iter().zip(&patterns) {
            let count = (frac * t.num_links() as f64).round() as usize;
            let plan = if count == 0 {
                FaultPlan::new()
            } else {
                FaultPlan::random_link_outages(t, count, down_at, Some(up_at), cli.seed)
            };
            let lambda = 100.0 * t.num_servers() as f64;
            points.push(
                PacketPoint::new(label(arm, frac), t, *routing, pattern, lambda).with_faults(plan),
            );
        }
    }
    let results = run_points(cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_failures_dynamic",
        "failed_link_fraction",
        &[
            "fat_tree_avg_fct_ms",
            "fat_tree_fault_drops",
            "fat_tree_failed_flows",
            "fat_tree_avg_recovery_ms",
            "xpander_hyb_avg_fct_ms",
            "xpander_hyb_fault_drops",
            "xpander_hyb_failed_flows",
            "xpander_hyb_avg_recovery_ms",
        ],
    );
    for (&frac, row) in FRACTIONS.iter().zip(results.chunks(2)) {
        let cells = row.iter().flat_map(|(m, c)| {
            [
                m.avg_fct_ms,
                c.fault_drops as f64,
                m.failed as f64,
                m.avg_recovery_ms,
            ]
        });
        s.push(frac, cells.collect());
    }
    s.finish(cli);
}
