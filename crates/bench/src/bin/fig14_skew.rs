//! Fig 14: Skew(0.04, 0.77) — the paper's parametric simplification of
//! the ProjecToR traffic matrix (product-form rack weights) — on exactly
//! the Fig 13 networks. Results should be "largely similar" to Fig 13.

use dcn_bench::{parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing, Scale};
use dcn_sim::SimConfig;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{PFabricWebSearch, Skew};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = match cli.scale {
        Scale::Tiny => Xpander::for_switches(3, 8, 2, cli.seed),
        Scale::Small => Xpander::for_switches(7, 32, 4, cli.seed),
        Scale::Paper => Xpander::paper_projector(cli.seed),
    }
    .build();
    let ft = &pair.fat_tree;

    let sizes = PFabricWebSearch::new();
    let servers = ft.num_servers() as f64;
    // Paper: up to 25K flow starts/s over 1024 servers.
    let rates = rate_sweep(24.4 * servers, 6);

    let ft_pat = Skew::projector_like(ft, ft.tors_with_servers(), cli.seed);
    let xp_pat = Skew::projector_like(&xp, xp.tors_with_servers(), cli.seed);
    let unconstrained = SimConfig::default().unconstrained_servers();
    let constrained = SimConfig::default();
    let arms = [
        ("ft", ft, Routing::Ecmp, &ft_pat),
        ("xp_ecmp", &xp, Routing::Ecmp, &xp_pat),
        ("xp_hyb", &xp, Routing::PAPER_HYB, &xp_pat),
    ];
    let mut points = Vec::new();
    for &rate in &rates {
        for (tag, cfg) in [("u", unconstrained), ("c", constrained)] {
            for (name, t, routing, pat) in arms {
                let label = format!("{name}_{tag}_l{rate:.0}");
                points.push(PacketPoint::new(label, t, routing, pat, rate).with_cfg(cfg));
            }
        }
    }
    let results = run_points(&cli, &sizes, &points);

    let [mut a, mut b, mut c] = Series::panels(
        [
            "fig14a_skew_avg_fct_unconstrained",
            "fig14b_skew_p99_short_unconstrained",
            "fig14c_skew_avg_fct_constrained",
        ],
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );
    for (&rate, row) in rates.iter().zip(results.chunks(6)) {
        let (unc, con) = row.split_at(3);
        a.push_metric(rate, unc, |m| m.avg_fct_ms);
        b.push_metric(rate, unc, |m| m.p99_short_fct_ms);
        c.push_metric(rate, con, |m| m.avg_fct_ms);
    }
    for s in [a, b, c] {
        s.finish(&cli);
    }
}
