//! Wall-clock scenarios of the `atum-net` TCP runtime that the repository's
//! benchmark (`benchmark/`) has no twin for. Steady-state throughput and
//! latency over sockets are the benchmark's `node_sync` and `edge_async`
//! workloads; small-cluster growth is `tests/net_cluster.rs`.
//!
//! `--scale-only` (`net_scale` records) is the reactor runtime's headline
//! demonstration: hundreds (reduced) to a thousand-plus (`ATUM_FULL=1`)
//! socket-backed nodes in one process on a single reactor thread, growing
//! through the real join protocol and then delivering tracked broadcasts
//! across the whole membership.
//!
//! `--churn-soak` (`net_churn_soak` records) is the robustness soak: a
//! cluster grows through join waves, then sustains kill/rejoin churn cycles
//! — members are removed from their runtime mid-flight and replaced through
//! the real join protocol — and finally must still blanket the surviving
//! membership with tracked broadcasts (the `completion_ratio` floor CI
//! gates on). With `ATUM_FLIGHT_DIR` set it leaves every node's flight
//! ring behind.
//!
//! Both measure *wall-clock* behaviour, so records are stamped
//! `runtime: "tcp"` and their latencies are not comparable to the simulated
//! figures. Run with `--json <path>` to append records; `--reduced` is the
//! default scale, `ATUM_FULL=1` the paper-ish one.

#![forbid(unsafe_code)]

use atum_bench::{print_header, rss_mib, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_net::NetClusterBuilder;
use atum_sim::LatencySeries;
use atum_types::{BroadcastId, Duration, NodeId, Params};
use std::time::{Duration as StdDuration, Instant as StdInstant};

fn main() {
    atum_bench::init_obs();
    let flag = |name: &str| std::env::args().any(|a| a == name);
    if flag("--scale-only") {
        run_scale();
    } else if flag("--churn-soak") {
        run_churn_soak();
    } else {
        eprintln!("usage: bench_net --scale-only | --churn-soak [--reduced] [--json PATH] [--trace-out PATH]");
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------- net_scale

/// Hundreds to a thousand-plus socket-backed nodes in one process: the
/// whole membership hosted on one reactor thread, grown through the real
/// join protocol, then covered by tracked broadcasts. The numbers that
/// matter are `threads` (O(reactors), not O(node-pairs)), `reached`
/// (membership actually converged) and `decode_errors` (the multiplexed
/// wire stayed clean).
fn run_scale() {
    print_header(
        "Net scale",
        "one reactor thread hosting the whole cluster over real sockets",
    );
    let seeded = scaled(224usize, 960);
    let joiners = scaled(32usize, 64);
    let total = seeded + joiners;
    let broadcasts = 8usize;
    let payload_size = 256usize;
    let seed = 61u64;

    // Long rounds and very lazy failure detection: at this node count on a
    // small host the bottleneck is CPU, and eager suspicion would turn
    // scheduler hiccups into spurious membership churn.
    let params = Params::default()
        .with_round(Duration::from_millis(scaled(500u64, 1000)))
        .with_group_bounds(4, 16)
        .with_overlay(2, 4)
        .with_failure_detection(Duration::from_secs(scaled(60u64, 120)), 5);

    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(seeded, joiners)
        .params(params)
        .group_size(8)
        .seed(seed)
        .runtime(atum_net::RuntimeConfig {
            // The bound is per *connection*, and every co-hosted node pair
            // shares the runtime's one multiplexed self-connection, so this
            // must absorb the whole cluster's in-flight traffic: at 8192 the
            // 1024-node full run dropped 0.24% of frames at its gossip
            // bursts (the reduced run peaked at 8). A queued frame is a
            // 16-byte route plus an Arc pointer, so depth is cheap.
            queue_capacity: 65536,
            ..atum_net::RuntimeConfig::default()
        })
        .build(|_| CollectingApp::new());
    let threads = cluster.stats().threads;
    println!(
        "cluster: {seeded} seeded + {joiners} joiners = {total} socket-backed nodes on {threads} reactor thread(s)"
    );

    // Grow through the real join protocol, in waves so contacts are not
    // swamped by concurrent placement walks.
    let growth_start = StdInstant::now();
    let joiner_ids = cluster.joiners.clone();
    for (wave_idx, wave) in joiner_ids.chunks(8).enumerate() {
        for (i, &joiner) in wave.iter().enumerate() {
            let contact = NodeId::new(((wave_idx * 8 + i) % seeded) as u64);
            cluster.join(joiner, contact);
        }
        cluster.wait_for_members(
            (seeded + (wave_idx + 1) * 8).min(total),
            StdDuration::from_secs(120),
        );
    }
    let members = cluster.wait_for_members(total, StdDuration::from_secs(300));
    let growth_wall = growth_start.elapsed();
    // "Converged" at scale: at least 95% of the target membership (a
    // straggler join on a CPU-starved host is churn noise, not a runtime
    // failure); CI gates on this.
    let reached = members * 100 >= total * 95;
    println!(
        "growth: {members}/{total} members in {:.1}s wall (reached: {reached})",
        growth_wall.as_secs_f64()
    );

    // Tracked broadcasts across the full membership.
    std::thread::sleep(StdDuration::from_secs(5));
    let mut sent: Vec<(BroadcastId, atum_types::Instant)> = Vec::new();
    for i in 0..broadcasts {
        let origin = NodeId::new((i * 13 % seeded) as u64);
        let sent_at = atum_types::Instant::from_micros(cluster.elapsed().as_micros() as u64);
        if let Some(id) = cluster.broadcast_tracked(origin, vec![0x5a; payload_size]) {
            sent.push((id, sent_at));
        }
        std::thread::sleep(StdDuration::from_millis(1000));
    }
    let want: Vec<BroadcastId> = sent.iter().map(|&(id, _)| id).collect();
    let covered = cluster.wait_for_nodes(
        members,
        StdDuration::from_secs(scaled(180, 600)),
        move |n| {
            want.iter()
                .all(|id| n.app().delivered().iter().any(|d| d.id == *id))
        },
    );

    let mut observed = 0usize;
    let mut delivery_latency = LatencySeries::new();
    let sent_at_of: std::collections::HashMap<BroadcastId, atum_types::Instant> =
        sent.iter().copied().collect();
    for (_, deliveries) in cluster.map_nodes(|n| n.app().delivered().to_vec()) {
        for d in deliveries {
            if let Some(&sent_at) = sent_at_of.get(&d.id) {
                observed += 1;
                delivery_latency.push(d.at.saturating_since(sent_at));
            }
        }
    }
    let expected = sent.len() * members;
    let ratio = if expected == 0 {
        0.0
    } else {
        observed as f64 / expected as f64
    };
    println!(
        "broadcast: {observed}/{expected} deliveries ({:.1}%), full coverage on {covered}/{members} nodes, p90 {:.2}s",
        ratio * 100.0,
        delivery_latency.percentile(90.0),
    );

    // The paper's broadcast guarantee is about a settled membership; right
    // after mass growth a single gossip pass leaves holes (broadcast
    // anti-entropy closes them, but only on announce cadence — slower than
    // this probe — and composition anti-entropy heals post-growth link
    // asymmetry on heartbeat cadence; the threaded runtime behaved the
    // same). The system-level claim — every member is reachable — is
    // demonstrated the way `tests/net_cluster.rs` does it: re-broadcast
    // one probe payload from rotating origins until it blankets the
    // membership, counting attempts.
    let probe: Vec<u8> = b"net-scale-coverage-probe".to_vec();
    let max_attempts = 16usize;
    let mut coverage_attempts = 0usize;
    let mut covered_nodes = 0usize;
    let mut uncovered: Vec<NodeId> = Vec::new();
    while coverage_attempts < max_attempts {
        // Once the holes are known, broadcast from *inside* them: a vgroup
        // whose inbound overlay links are still healing post-growth still
        // delivers its own member's broadcast locally, and the copy spreads
        // outward from there. Up to eight dark spots are probed per
        // attempt — the tail of the healing curve is per-vgroup, not
        // global, so probing them one at a time converges linearly.
        let origins: Vec<NodeId> = if uncovered.is_empty() {
            vec![NodeId::new(((coverage_attempts * 31 + 7) % seeded) as u64)]
        } else {
            uncovered
                .iter()
                .step_by((uncovered.len().div_ceil(8)).max(1))
                .copied()
                .take(8)
                .collect()
        };
        for &origin in &origins {
            cluster.broadcast(origin, probe.clone());
        }
        coverage_attempts += 1;
        let probe_ref = probe.clone();
        covered_nodes =
            cluster.wait_for_nodes(members, StdDuration::from_secs(scaled(30, 45)), move |n| {
                n.app().delivered_payloads().contains(&probe_ref)
            });
        println!("coverage: attempt {coverage_attempts}: probe on {covered_nodes}/{members} nodes");
        if covered_nodes >= members {
            break;
        }
        let probe_ref = probe.clone();
        uncovered = cluster
            .map_nodes(move |n| n.app().delivered_payloads().contains(&probe_ref))
            .into_iter()
            .filter_map(|(id, has)| (!has).then_some(id))
            .collect();
    }
    let full_coverage = covered_nodes >= members;
    let coverage_ratio = if members == 0 {
        0.0
    } else {
        covered_nodes as f64 / members as f64
    };

    let stats = cluster.stats();
    let wall = wall_start.elapsed();
    let rss = rss_mib();
    println!(
        "runtime: {threads} thread(s) for {total} nodes, {} frames sent, {} dropped, {} decode errors, RSS {rss:.0} MiB",
        stats.frames_sent, stats.frames_dropped, stats.decode_errors,
    );

    let record = BenchRecord::new("net_scale", seed)
        .runtime("tcp")
        .param("seeded", seeded)
        .param("joiners", joiners)
        .param("broadcasts", broadcasts)
        .param("payload_size", payload_size)
        .metric("final_members", members)
        .metric("reached", reached)
        .metric("threads", threads)
        .metric("growth_wall_secs", growth_wall.as_secs_f64())
        .metric("broadcasts_sent", sent.len())
        .metric("delivery_ratio", ratio)
        .metric(
            "delivery_latency_p90_secs",
            delivery_latency.percentile(90.0),
        )
        .metric("coverage_ratio", coverage_ratio)
        .metric("coverage_attempts", coverage_attempts)
        .metric("full_coverage", full_coverage)
        .metric("frames_sent", stats.frames_sent)
        .metric("frames_dropped", stats.frames_dropped)
        .metric("decode_errors", stats.decode_errors)
        .metric("bytes_sent", stats.bytes_sent)
        .metric("writes", stats.writes)
        .metric("messages_encoded", stats.messages_encoded)
        .metric("peak_outbound_queue", stats.peak_outbound_queue)
        .metric("peak_inbound_queue", stats.peak_inbound_queue)
        .metric("rss_mib", rss)
        .perf(wall, Some(stats.events_processed));
    atum_bench::emit(&record);

    cluster.shutdown();
}

// ----------------------------------------------------------- churn soak

/// Member count over an explicit live-id set. The churn scenario *kills*
/// nodes (removes them from their runtime), after which a blanket
/// `member_count()` would stall five seconds per corpse waiting for a
/// reactor reply that can never come — so every poll here goes through
/// the survivor list only.
fn live_member_count(
    cluster: &atum_net::NetCluster<CollectingApp>,
    live: &std::collections::BTreeSet<NodeId>,
) -> usize {
    live.iter()
        .filter(|&&id| {
            cluster
                .node(id)
                .and_then(|h| h.with_node(|n| n.is_member()))
                .unwrap_or(false)
        })
        .count()
}

/// Polls until at least `target` of the `live` set are members, or
/// `timeout` elapses; returns the final count.
fn wait_live_members(
    cluster: &atum_net::NetCluster<CollectingApp>,
    live: &std::collections::BTreeSet<NodeId>,
    target: usize,
    timeout: StdDuration,
) -> usize {
    let deadline = StdInstant::now() + timeout;
    loop {
        let count = live_member_count(cluster, live);
        if count >= target || StdInstant::now() >= deadline {
            return count;
        }
        std::thread::sleep(StdDuration::from_millis(200));
    }
}

/// The churn-soak robustness experiment: grow through join waves, then
/// sustain kill/rejoin cycles, then prove the surviving membership still
/// completes broadcasts. Promoted into the committed suite (CI gates the
/// completion floor) from the ad-hoc churn experiments.
fn run_churn_soak() {
    print_header(
        "Net churn soak",
        "kill/rejoin churn over loopback TCP: recovery wall clock and broadcast completion floor",
    );
    let seeded = 16usize;
    let wave_joiners = 16usize;
    let churn_cycles = scaled(3usize, 8);
    let kills_per_cycle = 2usize;
    let probe_attempts = scaled(6usize, 12);
    let completion_floor = 0.9f64;
    let seed = 53u64;
    // Spare joiners are pre-spawned (idle) so every killed member can be
    // replaced through the real join protocol.
    let spares = churn_cycles * kills_per_cycle;
    let total_joiners = wave_joiners + spares;

    // Eager-ish failure detection: the soak *wants* corpses evicted while
    // replacements join, so detection must fit inside the soak window.
    let params = Params::default()
        .with_round(Duration::from_millis(200))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(8), 3);

    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(seeded, total_joiners)
        .params(params)
        .group_size(4)
        .seed(seed)
        .build(|_| CollectingApp::new());
    println!(
        "cluster: {seeded} seeded + {wave_joiners} wave joiners + {spares} spares, \
         {churn_cycles} churn cycles x {kills_per_cycle} kills"
    );

    let mut live: std::collections::BTreeSet<NodeId> = cluster.seeded.iter().copied().collect();
    let joiner_ids = cluster.joiners.clone();
    let (wave_ids, spare_ids) = joiner_ids.split_at(wave_joiners);

    // ------------------------------------------------------------- growth
    let growth_start = StdInstant::now();
    for (wave_idx, wave) in wave_ids.chunks(4).enumerate() {
        for (i, &joiner) in wave.iter().enumerate() {
            let contact = NodeId::new(((wave_idx * 4 + i) % seeded) as u64);
            cluster.join(joiner, contact);
            live.insert(joiner);
        }
        wait_live_members(&cluster, &live, live.len(), StdDuration::from_secs(60));
    }
    let grown = wait_live_members(&cluster, &live, live.len(), StdDuration::from_secs(120));
    println!(
        "growth: {grown}/{} members in {:.1}s wall",
        live.len(),
        growth_start.elapsed().as_secs_f64()
    );

    // -------------------------------------------------------------- churn
    // Victims rotate through the wave joiners (seeded nodes stay alive to
    // serve as join contacts); each killed member is replaced by a spare
    // in the same cycle, so the target membership is constant.
    let mut victims = wave_ids.iter().copied();
    let mut replacements = spare_ids.iter().copied();
    let mut kills = 0usize;
    let mut rejoins = 0usize;
    let mut max_recovery_secs = 0.0f64;
    for cycle in 0..churn_cycles {
        let cycle_start = StdInstant::now();
        for _ in 0..kills_per_cycle {
            let Some(victim) = victims.next() else { break };
            if let Some(handle) = cluster.node(victim) {
                handle.clone().shutdown();
                live.remove(&victim);
                kills += 1;
            }
        }
        for k in 0..kills_per_cycle {
            let Some(spare) = replacements.next() else {
                break;
            };
            let contact = NodeId::new(((cycle * kills_per_cycle + k) % seeded) as u64);
            cluster.join(spare, contact);
            live.insert(spare);
            rejoins += 1;
        }
        let reached = wait_live_members(&cluster, &live, live.len(), StdDuration::from_secs(90));
        let recovery = cycle_start.elapsed().as_secs_f64();
        max_recovery_secs = max_recovery_secs.max(recovery);
        println!(
            "cycle {cycle}: {kills_per_cycle} killed, {kills_per_cycle} rejoined, \
             {reached}/{} members after {recovery:.1}s",
            live.len()
        );
    }

    // --------------------------------------------------------- completion
    // Post-churn settle, then the floor the soak exists for: a probe
    // payload must blanket the *surviving* membership even though
    // compositions still carry evicting corpses. One-shot broadcasts into
    // a freshly churned cluster deliver probabilistically (anti-entropy
    // heals holes on announce cadence), so — exactly like the scale
    // scenario and `tests/net_cluster.rs` — the probe is re-broadcast
    // from inside the remaining holes, counting attempts; the floor is on
    // the coverage the repair path actually reaches.
    std::thread::sleep(StdDuration::from_secs(5));
    let live_vec: Vec<NodeId> = live.iter().copied().collect();
    let probe: Vec<u8> = b"churn-soak-completion-probe".to_vec();
    let mut uncovered: Vec<NodeId> = live_vec.clone();
    let mut attempts = 0usize;
    while attempts < probe_attempts {
        // Broadcast from inside the dark spots: a vgroup still healing its
        // inbound links delivers its own member's broadcast locally and
        // the copy spreads outward from there.
        let origins: Vec<NodeId> = uncovered
            .iter()
            .step_by((uncovered.len().div_ceil(8)).max(1))
            .copied()
            .take(8)
            .collect();
        for &origin in &origins {
            cluster.broadcast(origin, probe.clone());
        }
        attempts += 1;
        let wave_deadline = StdInstant::now() + StdDuration::from_secs(30);
        loop {
            uncovered = live_vec
                .iter()
                .filter(|&&id| {
                    let want = probe.clone();
                    !cluster
                        .node(id)
                        .and_then(|h| {
                            h.with_node(move |n| n.app().delivered_payloads().contains(&want))
                        })
                        .unwrap_or(false)
                })
                .copied()
                .collect();
            if uncovered.is_empty() || StdInstant::now() >= wave_deadline {
                break;
            }
            std::thread::sleep(StdDuration::from_millis(500));
        }
        println!(
            "completion: attempt {attempts}: probe on {}/{} survivors",
            live_vec.len() - uncovered.len(),
            live_vec.len()
        );
        if uncovered.is_empty() {
            break;
        }
    }
    let covered = live_vec.len() - uncovered.len();
    let completion_ratio = if live_vec.is_empty() {
        0.0
    } else {
        covered as f64 / live_vec.len() as f64
    };
    let members_final = live_member_count(&cluster, &live);
    let stats = cluster.stats();
    let wall = wall_start.elapsed();
    println!(
        "soak: {kills} kills, {rejoins} rejoins, completion {covered}/{} in {attempts} attempts \
         ({:.1}%, floor {:.0}%), {members_final}/{} members, {} decode errors ({:.1}s wall)",
        live_vec.len(),
        completion_ratio * 100.0,
        completion_floor * 100.0,
        live.len(),
        stats.decode_errors,
        wall.as_secs_f64()
    );

    let record = BenchRecord::new("net_churn_soak", seed)
        .runtime("tcp")
        .param("seeded", seeded)
        .param("wave_joiners", wave_joiners)
        .param("churn_cycles", churn_cycles)
        .param("kills_per_cycle", kills_per_cycle)
        .param("probe_attempts", probe_attempts)
        .param("completion_floor", completion_floor)
        .metric("members_final", members_final)
        .metric("target_members", live.len())
        .metric("reached", members_final == live.len())
        .metric("kills", kills)
        .metric("rejoins", rejoins)
        .metric("max_recovery_secs", max_recovery_secs)
        .metric("completion_attempts", attempts)
        .metric("completion_ratio", completion_ratio)
        .metric("completion_floor_met", completion_ratio >= completion_floor)
        .metric("decode_errors", stats.decode_errors)
        .metric("frames_sent", stats.frames_sent)
        .metric("frames_dropped", stats.frames_dropped)
        .metric("rss_mib", rss_mib())
        .perf(wall, Some(stats.events_processed));
    atum_bench::emit(&record);

    // With `ATUM_FLIGHT_DIR` set (the CI obs-smoke job does this), persist
    // every node's flight-recorder ring so a failed or degraded run leaves
    // a per-node protocol history behind as an artifact.
    if let Ok(dir) = std::env::var("ATUM_FLIGHT_DIR") {
        match cluster.dump_flights(std::path::Path::new(&dir)) {
            Ok(paths) => println!("flight: dumped {} recorder ring(s) to {dir}", paths.len()),
            Err(err) => eprintln!("warning: flight dump to {dir} failed: {err}"),
        }
    }

    // `NetCluster::shutdown` walks every handle, including the corpses';
    // the runtimes are still live (only nodes were removed), so the walk
    // completes without the per-corpse stall.
    cluster.shutdown();
}
