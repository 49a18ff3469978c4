//! Ablation: the Q-threshold HYB against the congestion-aware hybrid
//! (§6.3's un-simplified design) and the KSP baseline, on both corner
//! workloads of Fig 7 — skewed neighbor-rack traffic and uniform A2A.

use dcn_bench::{parse_cli, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_routing::PAPER_Q_BYTES;
use dcn_workloads::{AllToAll, ExplicitServers, PFabricWebSearch, TrafficPattern};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let sizes = PFabricWebSearch::new();

    let l = xp.link(0);
    let per_rack = xp.servers_at(l.a).min(xp.servers_at(l.b));
    let neighbor = ExplicitServers::first_on_racks(xp, &[l.a, l.b], per_rack);
    let uniform = AllToAll::new(xp, xp.tors_with_servers());
    let workloads: [(&str, &(dyn TrafficPattern + Sync), f64); 2] = [
        ("neighbor", &neighbor, 500.0 * (2 * per_rack) as f64),
        ("uniform", &uniform, 150.0 * xp.num_servers() as f64),
    ];

    let schemes = [
        ("hyb_q100k", Routing::Hyb(PAPER_Q_BYTES)),
        ("adaptive_m1", Routing::AdaptiveHyb(1)),
        ("adaptive_m10", Routing::AdaptiveHyb(10)),
        ("adaptive_m100", Routing::AdaptiveHyb(100)),
        ("ksp8", Routing::Ksp(8)),
    ];
    let mut points = Vec::new();
    for (scheme, routing) in schemes {
        for (workload, pat, lambda) in workloads {
            let label = format!("{scheme}_{workload}");
            points.push(PacketPoint::new(label, xp, routing, pat, lambda));
        }
    }
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_adaptive",
        "scheme_index",
        &[
            "neighbor_avg_fct_ms",
            "uniform_avg_fct_ms",
            "uniform_p99_short_ms",
        ],
    );
    println!(
        "# scheme order: {:?}",
        schemes.iter().map(|x| x.0).collect::<Vec<_>>()
    );
    for (i, row) in results.chunks(2).enumerate() {
        let ((n, _), (u, _)) = (&row[0], &row[1]);
        s.push(
            i as f64,
            vec![n.avg_fct_ms, u.avg_fct_ms, u.p99_short_fct_ms],
        );
    }
    s.finish(&cli);
}
