//! §7.1 exploration: "How much can performance be further improved by
//! adaptive routing?" Compares the paper's oblivious HYB against an
//! *oracle* congestion-aware router (least-queued of the k shortest
//! paths, scored on live global queue state — an upper bound no real
//! scheme can reach) on the Permute workload that stresses routing most.

use dcn_bench::{packet_setup, par_map, parse_cli, rate_sweep, run_points, PacketPoint, Series};
use dcn_core::{paper_networks, Routing};
use dcn_sim::{compute_metrics, SimConfig, Simulator};
use dcn_workloads::{active_racks_for_servers, generate_flows, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let sizes = PFabricWebSearch::new();
    let setup = packet_setup(cli.scale);
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let rates = rate_sweep(117.0 * total as f64, 5);

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Permutation::new(xp, racks, cli.seed);

    let points: Vec<_> = rates
        .iter()
        .map(|&rate| {
            let label = format!("hyb_l{rate:.0}");
            PacketPoint::new(label, xp, Routing::PAPER_HYB, &pat, rate)
        })
        .collect();
    let hyb = run_points(&cli, &sizes, &points);
    // The oracle arm builds its own `Simulator`: `enable_oracle_routing`
    // has no `Routing` form, so it cannot run as a `PacketPoint` and gets
    // no --trace/--telemetry/--manifest files.
    let oracle = par_map(rates.len(), |i| {
        let flows = generate_flows(&pat, &sizes, rates[i], setup.horizon_s, cli.seed);
        let mut sim = Simulator::new(xp, Routing::PAPER_HYB.selector(xp), SimConfig::default());
        sim.enable_oracle_routing(xp, 8);
        sim.set_window(setup.window.0, setup.window.1);
        sim.inject(&flows);
        let rec = sim.run(setup.max_time);
        compute_metrics(&rec, setup.window.0, setup.window.1)
    });

    let mut s = Series::new(
        "ablate_congestion_aware",
        "flow_starts_per_s",
        &[
            "hyb_avg_fct_ms",
            "oracle_ksp8_avg_fct_ms",
            "hyb_long_tput",
            "oracle_long_tput",
        ],
    );
    for ((&rate, (h, _)), o) in rates.iter().zip(&hyb).zip(&oracle) {
        s.push(
            rate,
            vec![
                h.avg_fct_ms,
                o.avg_fct_ms,
                h.avg_long_tput_gbps,
                o.avg_long_tput_gbps,
            ],
        );
    }
    s.finish(&cli);
}
