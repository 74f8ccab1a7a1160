//! Figure 6: growth speed — system size over time when new nodes join at 8 %
//! of the current size per minute, for the synchronous and asynchronous
//! implementations.

#![forbid(unsafe_code)]

use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_sim::run_growth;
use atum_simnet::NetConfig;
use atum_types::{Duration, SmrMode};

fn main() {
    atum_bench::init_obs();
    print_header("Figure 6", "growth speed (system size over simulated time)");
    let targets: Vec<usize> = if atum_bench::full_scale() {
        vec![800, 1400]
    } else {
        vec![60, 120]
    };
    let max_sim = Duration::from_secs(scaled(3_600, 7_000));

    for mode in [SmrMode::Synchronous, SmrMode::Asynchronous] {
        for &target in &targets {
            let params = experiment_params(target, 1_000).with_smr(mode);
            let net = match mode {
                SmrMode::Synchronous => NetConfig::lan(),
                SmrMode::Asynchronous => NetConfig::wan(),
            };
            let seed = 6 + target as u64;
            let wall_start = std::time::Instant::now();
            let report = run_growth(params, net, seed, target, 0.08, max_sim);
            let wall = wall_start.elapsed();
            let final_members = report.size_over_time.last().map(|&(_, n)| n).unwrap_or(0);
            atum_bench::emit(
                &BenchRecord::new("fig06", seed)
                    .param("mode", format!("{mode:?}"))
                    .param("target", target)
                    .param("join_rate", 0.08)
                    .metric("final_members", final_members)
                    .metric("reached", report.reached_target)
                    .metric("elapsed_secs", report.elapsed_secs)
                    .metric(
                        "exchange_completion_rate",
                        report.exchange_completion_rate(),
                    )
                    .perf(wall, Some(report.events_processed)),
            );
            println!();
            println!(
                "--- {mode:?}, target {target} nodes: reached={} in {:.0}s",
                report.reached_target, report.elapsed_secs
            );
            println!("{:>10} {:>10}", "seconds", "members");
            // Print every few samples to keep the series readable.
            let step = (report.size_over_time.len() / 30).max(1);
            for (i, (secs, size)) in report.size_over_time.iter().enumerate() {
                if i % step == 0 || i + 1 == report.size_over_time.len() {
                    println!("{secs:>10.0} {size:>10}");
                }
            }
        }
    }
}
