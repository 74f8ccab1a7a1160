//! Figure 8: group communication latency — CDF of broadcast delivery latency
//! for Atum (Sync and Async, with and without Byzantine nodes), compared with
//! a classic gossip simulation and a flat synchronous SMR across the whole
//! system.

#![forbid(unsafe_code)]

use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_sim::{
    flat_smr_latency, run_broadcast_workload, simulate_classic_gossip, ClusterBuilder,
    LatencySeries,
};
use atum_simnet::NetConfig;
use atum_types::{Duration, SmrMode};

fn atum_series(n: usize, byzantine: usize, mode: SmrMode, broadcasts: usize) -> LatencySeries {
    let round_ms = 1_500;
    let params = experiment_params(n, round_ms).with_smr(mode);
    let net = match mode {
        SmrMode::Synchronous => NetConfig::lan(),
        SmrMode::Asynchronous => NetConfig::wan(),
    };
    let mut cluster = ClusterBuilder::new(n)
        .params(params)
        .net(net)
        .seed(8_000 + n as u64 + byzantine as u64)
        .byzantine(byzantine)
        .build(|_| CollectingApp::new());
    let wall_start = std::time::Instant::now();
    let report = run_broadcast_workload(
        &mut cluster,
        broadcasts,
        100, // 10–100 byte payloads in the paper; use the upper end
        Duration::from_millis(500),
        Duration::from_secs(60),
        17,
    );
    let wall = wall_start.elapsed();
    println!(
        "  [N={n}, byz={byzantine}, {mode:?}] delivery ratio {:.3}, mean hops {:.1}",
        report.delivery_ratio(),
        report.mean_hops
    );
    let mut latencies = report.latencies.clone();
    atum_bench::emit(
        &BenchRecord::new("fig08", 8_000 + n as u64 + byzantine as u64)
            .param("nodes", n)
            .param("byzantine", byzantine)
            .param("mode", format!("{mode:?}"))
            .metric("delivery_ratio", report.delivery_ratio())
            .metric("mean_hops", report.mean_hops)
            .metric("latency_mean_secs", latencies.mean())
            .metric("latency_p90_secs", latencies.percentile(90.0))
            .perf(wall, Some(cluster.sim.stats().events_processed)),
    );
    report.latencies
}

fn print_cdf(label: &str, series: &mut LatencySeries, thresholds: &[f64]) {
    print!("{label:>28} |");
    for (_, frac) in series.cdf_at(thresholds) {
        print!(" {frac:>5.2}");
    }
    println!();
}

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 8",
        "broadcast latency CDF: Atum vs classic gossip vs flat SMR (* = with Byzantine nodes)",
    );
    let sizes: Vec<usize> = if atum_bench::full_scale() {
        vec![200, 400, 800]
    } else {
        vec![40, 80, 120]
    };
    let byz_size = *sizes.last().unwrap();
    let byz_count = (byz_size as f64 * 0.058).round() as usize; // 5.8 % as in the paper
    let broadcasts = scaled(20, 800);
    let round = Duration::from_millis(1_500);

    let thresholds: Vec<f64> = vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 20.0, 40.0, 80.0];
    println!();
    print!("{:>28} |", "latency threshold (s)");
    for t in &thresholds {
        print!(" {t:>5.1}");
    }
    println!();
    println!("{}", "-".repeat(28 + 1 + thresholds.len() * 6));

    for mode in [SmrMode::Synchronous, SmrMode::Asynchronous] {
        for &n in &sizes {
            let mut series = atum_series(n, 0, mode, broadcasts);
            print_cdf(&format!("Atum {mode:?} N={n}"), &mut series, &thresholds);
        }
        let mut series = atum_series(byz_size + byz_count, byz_count, mode, broadcasts);
        print_cdf(
            &format!("Atum {mode:?} N={}*", byz_size + byz_count),
            &mut series,
            &thresholds,
        );
    }

    // Baseline 1: classic round-based gossip with global membership.
    let gossip_n = scaled(126, 850);
    let gossip = simulate_classic_gossip(gossip_n, 12, 99);
    let mut gossip_series = LatencySeries::new();
    for l in gossip.latencies(round) {
        gossip_series.push(l);
    }
    print_cdf(
        &format!("S.Gossip N={gossip_n}"),
        &mut gossip_series,
        &thresholds,
    );

    // Baseline 2: flat synchronous SMR across the whole system tolerating the
    // injected number of faults.
    let flat = flat_smr_latency(byz_count.max(3), round);
    println!(
        "{:>28} | single step at {:.1}s (f+1 rounds of {:.1}s)",
        format!("S.SMR N={gossip_n}*"),
        flat.as_secs_f64(),
        round.as_secs_f64()
    );
    println!();
    println!("Expected shape: Atum Sync bounded by ~8 rounds; Async much faster with a heavier");
    println!("tail; gossip fastest (no BFT); flat SMR latency far beyond every Atum variant.");
}
