//! Ablation: HYB's Q threshold (§6.3). Q=0 is pure VLB, Q=∞ pure ECMP;
//! the paper's 100 KB sits where short flows keep shortest paths and long
//! flows get load-balanced. Permute(0.31) on the 2/3-cost Xpander.

use dcn_bench::{parse_cli, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let sizes = PFabricWebSearch::new();
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let lambda = 117.0 * total as f64 * 0.5; // mid-load of the Fig 11 sweep

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Permutation::new(xp, racks, cli.seed);

    let qs = [0u64, 10_000, 100_000, 1_000_000, u64::MAX];
    let points: Vec<_> = qs
        .iter()
        .map(|&q| {
            let label = if q == u64::MAX {
                "q_inf".into()
            } else {
                format!("q{q}")
            };
            PacketPoint::new(label, xp, Routing::Hyb(q), &pat, lambda)
        })
        .collect();
    let results = run_points(&cli, &sizes, &points);

    let mut s = Series::new(
        "ablate_q",
        "q_bytes",
        &["avg_fct_ms", "p99_short_fct_ms", "long_tput_gbps"],
    );
    for (&q, (m, _)) in qs.iter().zip(&results) {
        let x = if q == u64::MAX { 1e12 } else { q as f64 };
        s.push(
            x,
            vec![m.avg_fct_ms, m.p99_short_fct_ms, m.avg_long_tput_gbps],
        );
    }
    s.finish(&cli);
}
