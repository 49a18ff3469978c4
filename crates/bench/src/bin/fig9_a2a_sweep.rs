//! Fig 9: A2A(x) with the fraction of active servers on the x-axis, at
//! 167 flow-arrivals/s per active server, pFabric flow sizes.
//! Emits three blocks: (a) average FCT, (b) 99th-percentile FCT of short
//! flows, (c) average throughput of long flows.

use dcn_bench::{fraction_sweep, parse_cli, push_fct_panels, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let sizes = PFabricWebSearch::new();
    let total_servers = ft.num_servers() as u32;

    let xs = fraction_sweep(10);
    let sweep: Vec<_> = xs
        .iter()
        .map(|&x| {
            let n_active = ((total_servers as f64) * x).round().max(4.0) as u32;
            let lambda = 167.0 * n_active as f64;
            eprintln!("x = {x:.1}: {n_active} active servers, λ = {lambda}");
            let (ft_tors, xp_tors) = (ft.tors_with_servers(), xp.tors_with_servers());
            let ft_racks = active_racks_for_servers(ft, &ft_tors, n_active, false, cli.seed);
            let xp_racks = active_racks_for_servers(xp, &xp_tors, n_active, true, cli.seed);
            let pct = (x * 100.0).round() as u32;
            let ft_pat = AllToAll::new(ft, ft_racks);
            let xp_pat = AllToAll::new(xp, xp_racks);
            (pct, lambda, ft_pat, xp_pat)
        })
        .collect();
    let mut points = Vec::new();
    for (pct, lambda, ft_pat, xp_pat) in &sweep {
        for (name, t, routing, pat) in [
            ("ft", ft, Routing::Ecmp, ft_pat),
            ("xp_ecmp", xp, Routing::Ecmp, xp_pat),
            ("xp_hyb", xp, Routing::PAPER_HYB, xp_pat),
        ] {
            let label = format!("{name}_p{pct:03}");
            points.push(PacketPoint::new(label, t, routing, pat, *lambda));
        }
    }
    let results = run_points(&cli, &sizes, &points);

    let mut panels = Series::panels(
        [
            "fig9a_a2a_avg_fct",
            "fig9b_a2a_p99_short_fct",
            "fig9c_a2a_long_tput",
        ],
        "fraction_active",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );
    for (&x, row) in xs.iter().zip(results.chunks(3)) {
        push_fct_panels(&mut panels, x, row);
    }
    for s in &panels {
        s.finish(&cli);
    }
}
