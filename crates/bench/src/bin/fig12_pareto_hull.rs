//! Fig 12: A2A(0.31) with HULL's Pareto flow sizes (mostly tiny flows):
//! 99th-percentile FCT of short flows. Xpander's shorter paths give it
//! *lower* tail latency than the full-bandwidth fat-tree.

use dcn_bench::{parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, AllToAll, ParetoHull};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let sizes = ParetoHull::new();

    let total_servers = ft.num_servers() as u32;
    let n_active = (total_servers as f64 * 0.31).round() as u32;
    // Paper sweeps to 3M flow-starts/s at 1024 servers (~2930/server/s).
    let rates = rate_sweep(2900.0 * total_servers as f64, 6);

    let ft_racks = active_racks_for_servers(ft, &ft.tors_with_servers(), n_active, false, cli.seed);
    let xp_racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let ft_pat = AllToAll::new(ft, ft_racks);
    let xp_pat = AllToAll::new(xp, xp_racks);

    let arms = [
        ("ft", ft, Routing::Ecmp, &ft_pat),
        ("xp_ecmp", xp, Routing::Ecmp, &xp_pat),
        ("xp_hyb", xp, Routing::PAPER_HYB, &xp_pat),
    ];
    let mut points = Vec::new();
    for &rate in &rates {
        for (name, t, routing, pat) in arms {
            let label = format!("{name}_l{rate:.0}");
            points.push(PacketPoint::new(label, t, routing, pat, rate));
        }
    }
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "fig12_pareto_hull_p99_short_fct_us",
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );
    for (&rate, row) in rates.iter().zip(results.chunks(3)) {
        // The figure's y-axis is µs.
        s.push_metric(rate, row, |m| m.p99_short_fct_ms * 1000.0);
    }
    s.finish(&cli);
}
