//! Ablation: DCTCP (the paper's transport) versus a loss-based NewReno
//! baseline and the pFabric transport/queue pair on the 2/3-cost Xpander
//! with HYB — checks that the paper's routing result does not secretly
//! depend on DCTCP's ECN reaction or on FIFO queueing.

use dcn_bench::{parse_cli, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_sim::SimConfig;
use dcn_workloads::{active_racks_for_servers, AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let sizes = PFabricWebSearch::new();
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.5).round() as u32;
    let lambda = 130.0 * n_active as f64;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = AllToAll::new(xp, racks);

    let points: Vec<_> = [
        ("dctcp", SimConfig::default()),
        ("newreno", SimConfig::default().with_newreno()),
        ("pfabric", SimConfig::default().with_pfabric()),
    ]
    .into_iter()
    .map(|(name, cfg)| PacketPoint::new(name, xp, Routing::PAPER_HYB, &pat, lambda).with_cfg(cfg))
    .collect();
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_transport",
        "transport_index",
        &["avg_fct_ms", "p99_short_fct_ms", "long_tput_gbps"],
    );
    println!("# transport order: [dctcp, newreno, pfabric]");
    for (i, (m, _)) in results.iter().enumerate() {
        s.push(
            i as f64,
            vec![m.avg_fct_ms, m.p99_short_fct_ms, m.avg_long_tput_gbps],
        );
    }
    s.finish(&cli);
}
