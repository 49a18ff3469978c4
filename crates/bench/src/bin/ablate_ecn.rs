//! Ablation: the DCTCP ECN marking threshold K (the paper fixes 20 full
//! packets). Small K trims queues (lower tail latency, less throughput);
//! large K behaves like plain loss-based TCP.

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
    let lambda = 167.0 * n_active as f64;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = AllToAll::new(xp, racks);

    let ks = [5u32, 10, 20, 40, 80];
    let points: Vec<_> = ks
        .iter()
        .map(|&k| {
            let cfg = SimConfig {
                ecn_k_pkts: k,
                ..Default::default()
            };
            PacketPoint::new(format!("k{k}"), xp, Routing::PAPER_HYB, &pat, lambda).with_cfg(cfg)
        })
        .collect();
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_ecn",
        "ecn_k_pkts",
        &[
            "avg_fct_ms",
            "p99_short_fct_ms",
            "long_tput_gbps",
            "drops",
            "marks",
        ],
    );
    for (&k, (m, counters)) in ks.iter().zip(&results) {
        s.push(
            k as f64,
            vec![
                m.avg_fct_ms,
                m.p99_short_fct_ms,
                m.avg_long_tput_gbps,
                counters.drops() as f64,
                counters.ecn_marks as f64,
            ],
        );
    }
    s.finish(&cli);
}
