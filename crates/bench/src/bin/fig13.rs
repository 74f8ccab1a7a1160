//! Figure 13: the flexibility/robustness trade-off — growing the system
//! faster suppresses more shuffle exchanges (lower exchange completion rate)
//! while reaching the target size sooner.

#![forbid(unsafe_code)]

use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_sim::run_growth;
use atum_simnet::NetConfig;
use atum_types::Duration;

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 13",
        "exchange completion rate vs join rate while growing to the target size",
    );
    let target = scaled(60, 400);
    let max_sim = Duration::from_secs(scaled(3_600, 5_400));
    println!(
        "{:>10} {:>16} {:>14} {:>12} {:>12}",
        "join rate", "time to target(s)", "completion", "completed", "suppressed"
    );
    for rate in [0.08, 0.20, 0.24] {
        let params = experiment_params(target, 1_000);
        let seed = 1_300 + (rate * 100.0) as u64;
        let wall_start = std::time::Instant::now();
        let report = run_growth(params, NetConfig::lan(), seed, target, rate, max_sim);
        let wall = wall_start.elapsed();
        println!(
            "{:>9}% {:>16.0} {:>14.3} {:>12} {:>12}",
            (rate * 100.0) as u32,
            report.elapsed_secs,
            report.exchange_completion_rate(),
            report.exchanges_completed,
            report.exchanges_suppressed
        );
        atum_bench::emit(
            &BenchRecord::new("fig13", seed)
                .param("target", target)
                .param("join_rate", rate)
                .metric("time_to_target_secs", report.elapsed_secs)
                .metric(
                    "exchange_completion_rate",
                    report.exchange_completion_rate(),
                )
                .metric("exchanges_completed", report.exchanges_completed)
                .metric("exchanges_suppressed", report.exchanges_suppressed)
                .metric("reached", report.reached_target)
                .perf(wall, Some(report.events_processed)),
        );
    }
    println!();
    println!("Expected shape: higher join rates finish sooner but complete a smaller fraction");
    println!("of shuffle exchanges (the paper reports the same trend at 8%, 20% and 24%).");
}
