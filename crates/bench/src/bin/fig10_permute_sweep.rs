//! Fig 10: Permute(x) — random rack-level permutation traffic restricted
//! to x of the racks — at 167 flow-arrivals/s per active server, pFabric
//! sizes. The rack-to-rack consolidation makes this the hard case for
//! ECMP on the expander; HYB recovers the fat-tree's performance for
//! skewed (small-x) matrices.

use dcn_bench::{fraction_sweep, parse_cli, push_fct_panels, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

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
            let n_active = ((total_servers as f64) * x).round().max(8.0) as u32;
            let lambda = 167.0 * n_active as f64;
            eprintln!("x = {x:.1}: {n_active} active servers, λ = {lambda}");
            let (ft_tors, xp_tors) = (ft.tors_with_servers(), xp.tors_with_servers());
            let ft_racks = active_racks_for_servers(ft, &ft_tors, n_active, false, cli.seed);
            let xp_racks = active_racks_for_servers(xp, &xp_tors, n_active, true, cli.seed);
            let pct = (x * 100.0).round() as u32;
            let ft_pat = Permutation::new(ft, ft_racks, cli.seed);
            let xp_pat = Permutation::new(xp, xp_racks, cli.seed);
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
            "fig10a_permute_avg_fct",
            "fig10b_permute_p99_short_fct",
            "fig10c_permute_long_tput",
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
