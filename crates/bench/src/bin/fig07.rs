//! Figure 7: maximal tolerated churn — the highest rate of leave/re-join
//! cycles per minute that the system sustains, for several system sizes and
//! overlay configurations.

#![forbid(unsafe_code)]

use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_sim::{run_churn, ClusterBuilder};
use atum_simnet::NetConfig;
use atum_types::{Duration, SmrMode};

fn max_sustained_rate(n: usize, rwl: u8, hc: u8, mode: SmrMode, rates: &[f64]) -> (f64, f64, u64) {
    let mut best = 0.0f64;
    let mut best_ratio = 0.0f64;
    let mut events = 0u64;
    for &rate in rates {
        let params = experiment_params(n, 500)
            .with_overlay(hc, rwl)
            .with_smr(mode);
        let mut cluster = ClusterBuilder::new(n)
            .params(params)
            .net(NetConfig::lan())
            .seed(7_000 + n as u64 + rate as u64)
            .build(|_| CollectingApp::new());
        let initial = cluster.member_count();
        let report = run_churn(
            &mut cluster,
            rate,
            Duration::from_secs(scaled(180, 300)),
            Duration::from_secs(5),
            3,
        );
        events += report.events_processed;
        if report.sustained(initial) && rate > best {
            best = rate;
            best_ratio = report.completion_ratio();
        } else if best == 0.0 {
            best_ratio = best_ratio.max(report.completion_ratio());
        }
    }
    (best, best_ratio, events)
}

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 7",
        "maximal tolerated churn rate (re-joins per minute) per system size",
    );
    let sizes: Vec<usize> = if atum_bench::full_scale() {
        vec![50, 100, 200, 400, 800]
    } else {
        vec![20, 40, 60]
    };
    let rates: Vec<f64> = scaled(vec![1.0, 2.0, 4.0, 8.0], vec![2.0, 5.0, 10.0, 20.0, 40.0]);
    let configs: Vec<(&str, u8, u8, SmrMode)> = vec![
        ("SYNC (rwl=6, hc=8)", 6, 8, SmrMode::Synchronous),
        ("SYNC (rwl=11, hc=5)", 11, 5, SmrMode::Synchronous),
        ("ASYNC (guideline)", 10, 5, SmrMode::Asynchronous),
    ];

    println!(
        "{:>8} {:>24} {:>22} {:>18}",
        "N", "config", "max sustained (/min)", "completion ratio"
    );
    for &n in &sizes {
        for (label, rwl, hc, mode) in &configs {
            let wall_start = std::time::Instant::now();
            let (rate, ratio, events) = max_sustained_rate(n, *rwl, *hc, *mode, &rates);
            let wall = wall_start.elapsed();
            println!("{n:>8} {label:>24} {rate:>22.1} {ratio:>18.2}");
            // The record's seed is the cluster seed of the winning probe
            // (`max_sustained_rate` derives it from n and the rate); the
            // churn workload itself always runs with seed 3.
            atum_bench::emit(
                &BenchRecord::new("fig07", 7_000 + n as u64 + rate as u64)
                    .param("nodes", n)
                    .param("config", *label)
                    .param("rwl", *rwl)
                    .param("hc", *hc)
                    .param("churn_seed", 3u64)
                    .metric("max_sustained_per_minute", rate)
                    .metric("completion_ratio", ratio)
                    .perf(wall, Some(events)),
            );
        }
    }
    println!();
    println!("Paper reference: Sync sustains ~18% of nodes churning per minute, Async ~22.5%; the");
    println!("reproduction reports the highest probed rate at which >=90% of cycles complete.");
}
