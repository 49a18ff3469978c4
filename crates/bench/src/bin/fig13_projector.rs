//! Fig 13: the ProjecToR comparison. ProjecToR's evaluation pitted 128
//! ToRs with 16 *dynamic* ports each against a full-bandwidth fat-tree —
//! the paper swaps in an Xpander with 16 *static* ports per ToR (cheaper
//! than ProjecToR at δ=1.5) and reproduces the same gains.
//!
//! The workload is a pair-level-skewed stand-in for the proprietary
//! Microsoft trace: 77% of traffic between 4% of rack pairs (DESIGN.md §4).
//! Panels: (a) average FCT and (b) p99 short-flow FCT with server-level
//! bottlenecks ignored (ProjecToR's method); (c) average FCT with real
//! 10 Gbps server links.

use dcn_bench::{parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing, Scale};
use dcn_sim::SimConfig;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{PFabricWebSearch, PairSkew};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    // The flat Xpander of §6.6: same ToR count as the fat-tree's edge
    // layer, double-ish network ports, no other switches.
    let xp = match cli.scale {
        Scale::Tiny => Xpander::for_switches(3, 8, 2, cli.seed),
        Scale::Small => Xpander::for_switches(7, 32, 4, cli.seed),
        Scale::Paper => Xpander::paper_projector(cli.seed),
    }
    .build();
    let ft = &pair.fat_tree;
    assert_eq!(xp.num_servers(), ft.num_servers());

    let sizes = PFabricWebSearch::new();
    let servers = ft.num_servers() as f64;
    // Paper: 2K–14K flow starts/s over 1024 servers. At small scale the
    // same per-server rate leaves every ToR idle (fewer servers behind
    // each hot rack), so sweep ~3x further to reach the contrast regime.
    let per_server = if cli.scale == Scale::Paper {
        13.7
    } else {
        150.0
    };
    let rates = rate_sweep(per_server * servers, 6);

    let ft_pat = PairSkew::projector_trace(ft, ft.tors_with_servers(), cli.seed);
    let xp_pat = PairSkew::projector_trace(&xp, xp.tors_with_servers(), cli.seed);
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
            "fig13a_projector_avg_fct_unconstrained",
            "fig13b_projector_p99_short_unconstrained",
            "fig13c_projector_avg_fct_constrained",
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
