//! Fig 11: Permute(0.31) with the aggregate flow arrival rate on the
//! x-axis, including the oversubscribed "77%-fat-tree". Xpander + HYB
//! tracks the full-bandwidth fat-tree; the cheap fat-tree deteriorates
//! much earlier.

use dcn_bench::{parse_cli, push_fct_panels, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_topology::fattree::FatTree;
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let ft77 = FatTree::at_cost_fraction(pair.ft_config.k, 0.78).build();
    let sizes = PFabricWebSearch::new();

    let total_servers = ft.num_servers() as u32;
    let n_active = (total_servers as f64 * 0.31).round() as u32;
    // Paper: λ up to 120K over 1024 servers ≈ 117/server/s (all servers).
    let rates = rate_sweep(117.0 * total_servers as f64, 6);

    let ft_racks = active_racks_for_servers(ft, &ft.tors_with_servers(), n_active, false, cli.seed);
    let xp_racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    // The 77% fat-tree has the same ToR layout indices for its first racks.
    let ft77_racks =
        active_racks_for_servers(&ft77, &ft77.tors_with_servers(), n_active, false, cli.seed);
    let ft_pat = Permutation::new(ft, ft_racks, cli.seed);
    let xp_pat = Permutation::new(xp, xp_racks, cli.seed);
    let ft77_pat = Permutation::new(&ft77, ft77_racks, cli.seed);

    let arms = [
        ("ft", ft, Routing::Ecmp, &ft_pat),
        ("xp_ecmp", xp, Routing::Ecmp, &xp_pat),
        ("xp_hyb", xp, Routing::PAPER_HYB, &xp_pat),
        ("ft77", &ft77, Routing::Ecmp, &ft77_pat),
    ];
    let mut points = Vec::new();
    for &rate in &rates {
        for (name, t, routing, pat) in arms {
            let label = format!("{name}_l{rate:.0}");
            points.push(PacketPoint::new(label, t, routing, pat, rate));
        }
    }
    let results = run_points(&cli, &sizes, &points);

    let mut panels = Series::panels(
        [
            "fig11a_permute_load_avg_fct",
            "fig11b_permute_load_p99_short_fct",
            "fig11c_permute_load_long_tput",
        ],
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb", "fat_tree_77pct"],
    );
    for (&rate, row) in rates.iter().zip(results.chunks(4)) {
        push_fct_panels(&mut panels, rate, row);
    }
    for s in &panels {
        s.finish(&cli);
    }
}
