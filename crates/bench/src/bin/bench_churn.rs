//! Sustained-churn resilience benchmark: a standing cluster with Byzantine
//! (heartbeat-only) members endures continuous leave/re-join cycles; the
//! run reports per-cycle recovery latency, stall causes, and the ghost
//! audit, and emits a machine-readable record that CI gates on
//! (completion ratio ≥ 0.9).
//!
//! Run with `--json BENCH_churn.json` (or `ATUM_BENCH_JSON=...`) to append
//! the record to the perf trajectory.

use atum_bench::{print_header, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_sim::{run_churn, ClusterBuilder};
use atum_simnet::NetConfig;
use atum_types::{Duration, Params};

fn main() {
    atum_bench::init_obs();
    print_header(
        "Churn bench",
        "sustained leave/re-join cycles: completion ratio, recovery latency, stall causes",
    );
    let nodes = scaled(40usize, 200);
    let byzantine = scaled(3usize, 12);
    let rate_per_minute = 2.0;
    let duration_secs = scaled(180u64, 600);
    let rejoin_pause_secs = 5u64;
    let seed = 99u64;

    let params = Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(5), 3);
    let mut cluster = ClusterBuilder::new(nodes)
        .params(params)
        .net(NetConfig::lan())
        .seed(seed)
        .byzantine(byzantine)
        .build(|_| CollectingApp::new());
    let initial = cluster.member_count();
    println!(
        "cluster: {nodes} nodes in {} vgroups, {byzantine} Byzantine, churn {rate_per_minute}/min for {duration_secs}s"
    , cluster.directory.group_count());

    let wall_start = std::time::Instant::now();
    let report = run_churn(
        &mut cluster,
        rate_per_minute,
        Duration::from_secs(duration_secs),
        Duration::from_secs(rejoin_pause_secs),
        17,
    );
    let wall = wall_start.elapsed();

    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "victim", "left (s)", "rejoin (s)", "recovered (s)"
    );
    for cycle in &report.cycles {
        match cycle.completed_at_secs {
            Some(t) => println!(
                "{:>8} {:>12.0} {:>12.0} {:>14.1}",
                format!("{}", cycle.victim),
                cycle.left_at_secs,
                cycle.rejoin_at_secs,
                t - cycle.left_at_secs
            ),
            None => println!(
                "{:>8} {:>12.0} {:>12.0} {:>14}",
                format!("{}", cycle.victim),
                cycle.left_at_secs,
                cycle.rejoin_at_secs,
                "stalled"
            ),
        }
    }
    let mut latencies = report.rejoin_latencies.clone();
    // Roughly doubling bounds sized for protocol-level recovery: a churn
    // re-join takes seconds to a couple of minutes.
    let latency_buckets = latencies.cdf_at(&[2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]);
    println!();
    println!(
        "completion: {}/{} ({:.0}%), members {} -> {}, sustained: {}",
        report.completed,
        report.attempted,
        report.completion_ratio() * 100.0,
        initial,
        report.final_members,
        report.sustained(initial)
    );
    if !latencies.is_empty() {
        println!(
            "recovery latency: mean {:.1}s p50 {:.1}s p90 {:.1}s max {:.1}s",
            latencies.mean(),
            latencies.percentile(50.0),
            latencies.percentile(90.0),
            latencies.max()
        );
        print!("cdf (fraction ≤ bound s):");
        for (bound, fraction) in &latency_buckets {
            print!(" {bound:.0}:{fraction:.2}");
        }
        println!();
    }
    println!(
        "stalls: {} left, {} joining, {} awaiting transfer; ghost entries: {} ({} unhealable by construction, in {} vgroups)",
        report.stalls.left,
        report.stalls.joining,
        report.stalls.awaiting_transfer,
        report.ghost_entries,
        report.ghost_audit.unhealable,
        report.ghost_audit.vgroups_with_ghosts,
    );

    let record = BenchRecord::new("churn", seed)
        .param("nodes", nodes)
        .param("byzantine", byzantine)
        .param("rate_per_minute", rate_per_minute)
        .param("duration_secs", duration_secs)
        .param("rejoin_pause_secs", rejoin_pause_secs)
        .metric("attempted", report.attempted)
        .metric("completed", report.completed)
        .metric("completion_ratio", report.completion_ratio())
        .metric("sustained", report.sustained(initial))
        .metric("initial_members", initial)
        .metric("final_members", report.final_members)
        .metric("ghost_entries", report.ghost_entries)
        .metric("ghost_unhealable", report.ghost_audit.unhealable)
        .metric("ghost_healable", report.ghost_audit.healable())
        .metric("ghost_vgroups", report.ghost_audit.vgroups_with_ghosts)
        .metric("stalls_left", report.stalls.left)
        .metric("stalls_joining", report.stalls.joining)
        .metric("stalls_awaiting_transfer", report.stalls.awaiting_transfer)
        .metric("latency_mean_secs", latencies.mean())
        .metric("latency_p90_secs", latencies.percentile(90.0))
        .metric("latency_max_secs", latencies.max())
        .metric("latency_buckets", latency_buckets)
        .perf(wall, Some(report.events_processed));
    atum_bench::emit(&record);
}
