//! Figure 12: AStream second-tier latency for a 1 MB/s stream, with tier-one
//! gossip restricted to a single or a double H-graph cycle
//! (`GossipPolicy::Cycles`), for 20- and 50-node systems.

#![forbid(unsafe_code)]

use atum_apps::astream::build_forest;
use atum_apps::{AStreamApp, AStreamConfig};
use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_sim::{ClusterBuilder, LatencySeries};
use atum_simnet::NetConfig;
use atum_types::{Duration, GossipPolicy, NodeId};

fn run_stream(n: usize, cycles: u8, seed: u64) -> (f64, f64, u64) {
    let chunk_size = 1u32 << 20; // 1 MiB per second
    let chunks = scaled(10u64, 30);
    let params = experiment_params(n, 1_000).with_gossip(GossipPolicy::Cycles(cycles));
    let mut cluster = ClusterBuilder::new(n)
        .params(params)
        .net(NetConfig::lan())
        .seed(seed)
        .build(|_| AStreamApp::new(1, AStreamConfig::default()));

    // Build the tier-two forest from the ground-truth vgroups, rooted at the
    // first member of the first vgroup.
    let groups: Vec<Vec<NodeId>> = cluster
        .directory
        .group_ids()
        .iter()
        .map(|g| cluster.directory.composition(*g).unwrap().iter().collect())
        .collect();
    let source = groups[0][0];
    let forest = build_forest(&groups, source, chunk_size);
    for (node, config) in forest {
        cluster.sim.call(node, move |n, ctx| {
            n.app_call(ctx, |app, _| app.set_config(config.clone()));
        });
    }
    cluster.sim.run_for(Duration::from_secs(1));

    // The source publishes one chunk per second.
    let start = cluster.sim.now();
    for i in 0..chunks {
        let at = start + Duration::from_secs(i + 1);
        cluster.sim.call_at(at, source, move |n, ctx| {
            n.app_call(ctx, |app, actx| app.publish_chunk(i, actx));
        });
    }
    cluster.sim.run_for(Duration::from_secs(chunks + 60));

    // Second-tier latency: receipt time minus the moment tier one delivered
    // the digest at that node (the paper reports the two tiers separately;
    // tier one's cost is the group-communication latency of Figure 8).
    let mut tier2 = LatencySeries::new();
    let mut delivered = 0u64;
    for id in cluster.initial_nodes.clone() {
        if id == source {
            continue;
        }
        let app = cluster.sim.node(id).unwrap().app();
        for (chunk, at) in app.received() {
            let published = start + Duration::from_secs(chunk + 1);
            let reference = app
                .digest_times()
                .get(chunk)
                .copied()
                .unwrap_or(published)
                .max(published);
            tier2.push(at.saturating_since(reference));
            delivered += 1;
        }
    }
    let expected = (n as u64 - 1) * chunks;
    println!("  [N={n}, cycles={cycles}] chunk deliveries {delivered}/{expected}",);
    (
        tier2.mean() * 1000.0,
        {
            let mut t = tier2;
            t.percentile(90.0) * 1000.0
        },
        cluster.sim.stats().events_processed,
    )
}

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 12",
        "AStream latency for a 1 MB/s stream: single vs double dissemination cycle",
    );
    let sizes: Vec<usize> = vec![20, 50];
    println!(
        "{:>6} {:>14} {:>20} {:>20}",
        "N", "cycles", "mean latency (ms)", "p90 latency (ms)"
    );
    for &n in &sizes {
        for cycles in [1u8, 2] {
            let seed = 1_200 + n as u64 + cycles as u64;
            let wall_start = std::time::Instant::now();
            let (mean_ms, p90_ms, events) = run_stream(n, cycles, seed);
            let wall = wall_start.elapsed();
            let label = if cycles == 1 { "Single" } else { "Double" };
            println!("{n:>6} {label:>14} {mean_ms:>20.0} {p90_ms:>20.0}");
            atum_bench::emit(
                &BenchRecord::new("fig12", seed)
                    .param("nodes", n)
                    .param("cycles", cycles)
                    .metric("tier2_mean_ms", mean_ms)
                    .metric("tier2_p90_ms", p90_ms)
                    .perf(wall, Some(events)),
            );
        }
    }
    println!();
    println!("Expected shape: the second tier adds only a few hundred milliseconds; using two");
    println!(
        "cycles for the digests lowers latency relative to a single cycle (paper: 100-900 ms)."
    );
}
