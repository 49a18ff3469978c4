//! Fig 7b: only the servers on two *adjacent* Xpander racks are active
//! (two same-pod racks for the fat-tree). ECMP collapses onto the single
//! direct link and its FCT blows up with load; VLB spreads over the whole
//! fabric and keeps up with the full-bandwidth fat-tree.

use dcn_bench::{parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_topology::Topology;
use dcn_workloads::{ExplicitServers, PFabricWebSearch};

/// Two directly connected racks of an expander.
fn adjacent_racks(t: &Topology) -> Vec<u32> {
    let l = t.link(0);
    vec![l.a, l.b]
}

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let sizes = PFabricWebSearch::new();

    // The same number of active servers on both networks (the paper uses
    // 10 over two racks; here the most both racks can host).
    let xp_racks = adjacent_racks(&pair.xpander);
    let ft_edges = pair.ft_config.edge_switches();
    let ft_racks = vec![ft_edges[0][0], ft_edges[0][1]];
    let per_rack = xp_racks
        .iter()
        .map(|&r| pair.xpander.servers_at(r))
        .chain(ft_racks.iter().map(|&r| pair.fat_tree.servers_at(r)))
        .min()
        .unwrap();
    let active_servers = 2 * per_rack;
    eprintln!("{active_servers} active servers ({per_rack} per rack)");

    // The paper sweeps to 300 flow-starts/s per active server with 5
    // servers per rack; with fewer servers per rack the direct link needs
    // a proportionally higher per-server rate to saturate.
    let rate_per_server = 300.0 * (5.0 / per_rack as f64).max(1.0);
    let rates = rate_sweep(rate_per_server * active_servers as f64, 6);

    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let ft_pat = ExplicitServers::first_on_racks(ft, &ft_racks, per_rack);
    let xp_pat = ExplicitServers::first_on_racks(xp, &xp_racks, per_rack);
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
        "fig7b_neighbor_racks",
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
