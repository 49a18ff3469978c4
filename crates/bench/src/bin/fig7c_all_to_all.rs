//! Fig 7c: all-to-all traffic over every server. VLB's 2× capacity tax
//! now hurts — its average FCT deteriorates with load while ECMP matches
//! the full-bandwidth fat-tree.

use dcn_bench::{parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let sizes = PFabricWebSearch::new();

    // Paper sweeps to 300K flow-starts/s over 1024 servers (~293/server/s).
    let servers = pair.fat_tree.num_servers() as f64;
    let rates = rate_sweep(290.0 * servers, 6);

    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let ft_pat = AllToAll::new(ft, ft.tors_with_servers());
    let xp_pat = AllToAll::new(xp, xp.tors_with_servers());
    let arms = [
        ("ft", ft, Routing::Ecmp, &ft_pat),
        ("xp_ecmp", xp, Routing::Ecmp, &xp_pat),
        ("xp_vlb", xp, Routing::Vlb, &xp_pat),
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
        "fig7c_all_to_all",
        "flow_starts_per_s",
        &[
            "fat_tree_avg_fct_ms",
            "xpander_ecmp_avg_fct_ms",
            "xpander_vlb_avg_fct_ms",
        ],
    );
    for (&rate, row) in rates.iter().zip(results.chunks(3)) {
        s.push_metric(rate, row, |m| m.avg_fct_ms);
    }
    s.finish(&cli);
}
