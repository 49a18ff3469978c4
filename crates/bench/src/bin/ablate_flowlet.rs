//! Ablation: the flowlet gap (the paper fixes 50 µs). A tiny gap
//! re-routes nearly per packet (reordering risk under VLB/HYB); a huge
//! gap pins each flow to one path (per-flow routing).

use dcn_bench::{parse_cli, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_sim::{SimConfig, US};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let sizes = PFabricWebSearch::new();
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let lambda = 117.0 * total as f64 * 0.5;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Permutation::new(xp, racks, cli.seed);

    let gaps_us = [1u64, 10, 50, 500, 10_000_000];
    let points: Vec<_> = gaps_us
        .iter()
        .map(|&gap_us| {
            let cfg = SimConfig {
                flowlet_gap_ns: gap_us * US,
                ..Default::default()
            };
            let label = format!("gap{gap_us}us");
            PacketPoint::new(label, xp, Routing::PAPER_HYB, &pat, lambda).with_cfg(cfg)
        })
        .collect();
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_flowlet",
        "flowlet_gap_us",
        &["avg_fct_ms", "p99_short_fct_ms", "long_tput_gbps"],
    );
    for (&gap_us, (m, _)) in gaps_us.iter().zip(&results) {
        s.push(
            gap_us as f64,
            vec![m.avg_fct_ms, m.p99_short_fct_ms, m.avg_long_tput_gbps],
        );
    }
    s.finish(&cli);
}
