//! Wall-clock benchmark of the `atum-net` TCP runtime: an in-process
//! loopback cluster bootstraps, grows to its target membership through the
//! real join protocol, then serves an application broadcast workload — all
//! over real sockets. A second scenario, `net_saturation`, drives a
//! sustained broadcast storm through a standing cluster and reports the
//! network path's throughput baseline: delivered msgs/s, MB/s on the wire,
//! frames-per-write (syscall coalescing) and delivery-latency percentiles,
//! plus allocations-per-delivery from a counting global allocator.
//!
//! Unlike the fig binaries this measures *wall-clock* behaviour, so records
//! are stamped `runtime: "tcp"` and their latencies are not comparable to
//! the simulated figures. The peak outbound and inbound queue depths are
//! recorded as the runtime's RSS-ish memory proxies (the only places
//! frames queue).
//!
//! A third scenario, `net_scale` (opt-in via `--scale-only`), is the
//! reactor runtime's headline demonstration: hundreds (reduced) to a
//! thousand-plus (`ATUM_FULL=1`) socket-backed nodes in one process on a
//! single reactor thread, growing through the real join protocol and then
//! delivering tracked broadcasts across the whole membership.
//!
//! A fourth scenario, `net_churn_soak` (opt-in via `--churn-soak`), is the
//! robustness soak promoted from the churn experiments: a cluster grows
//! through join waves, then sustains kill/rejoin churn cycles — members
//! are removed from their runtime mid-flight and replaced through the
//! real join protocol — and finally must still blanket the surviving
//! membership with tracked broadcasts (the `completion_ratio` floor CI
//! gates on).
//!
//! Run with `--json BENCH_net.json` (or `ATUM_BENCH_JSON=...`) to append
//! records; `--reduced` is the default scale, `ATUM_FULL=1` the paper-ish
//! one. `--saturation-only` / `--growth-only` / `--scale-only` /
//! `--churn-soak` select a single scenario.

use atum_bench::{print_header, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_net::{AggregateStats, NetClusterBuilder};
use atum_sim::LatencySeries;
use atum_types::{BroadcastId, Duration, NodeId, Params};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant as StdInstant};

/// A pass-through allocator that counts allocations, so the saturation
/// scenario can report allocations-per-delivered-message — the number the
/// encode-once/coalescing work is meant to push down.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter has no effect on layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    atum_bench::init_obs();
    let args: Vec<String> = std::env::args().collect();
    let saturation_only = args.iter().any(|a| a == "--saturation-only");
    let growth_only = args.iter().any(|a| a == "--growth-only");
    let scale_only = args.iter().any(|a| a == "--scale-only");
    let churn_soak = args.iter().any(|a| a == "--churn-soak");
    if scale_only {
        run_scale();
        return;
    }
    if churn_soak {
        run_churn_soak();
        return;
    }
    if !saturation_only {
        run_growth_bench();
    }
    if !growth_only {
        run_saturation();
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`
/// (Linux-only; 0.0 elsewhere) — the scale scenario's real memory figure.
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
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
                .all(|id| n.delivered().iter().any(|(d, _, _)| d == id))
        },
    );

    let mut observed = 0usize;
    let mut delivery_latency = LatencySeries::new();
    let sent_at_of: std::collections::HashMap<BroadcastId, atum_types::Instant> =
        sent.iter().copied().collect();
    for (_, deliveries) in cluster.map_nodes(|n| n.delivered().to_vec()) {
        for (id, at, _hops) in deliveries {
            if let Some(&sent_at) = sent_at_of.get(&id) {
                observed += 1;
                delivery_latency.push(at.saturating_since(sent_at));
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

// ------------------------------------------------------- growth + broadcast

fn run_growth_bench() {
    print_header(
        "Net bench",
        "loopback TCP runtime: wall-clock join latency, growth time, broadcast delivery",
    );
    let seeded = scaled(12usize, 24);
    let joiners = scaled(8usize, 24);
    let total = seeded + joiners;
    let broadcasts = scaled(8usize, 32);
    let payload_size = 256usize;
    let seed = 31u64;

    // Same wall-clock reasoning as `tests/net_cluster.rs`: lazy failure
    // detection (nothing crashes here) and group bounds tight enough that
    // growth forces live split surgery now that link repair heals torn
    // overlay links (1-core caveat: CPU starvation, not protocol latency,
    // dominates on shared runners).
    let params = Params::default()
        .with_round(Duration::from_millis(200))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(8), 3);

    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(seeded, joiners)
        .params(params)
        .group_size(4)
        .seed(seed)
        .build(|_| CollectingApp::new());
    println!("cluster: {seeded} seeded members + {joiners} joiners on loopback TCP");

    // ------------------------------------------------------------- growth
    let growth_start = StdInstant::now();
    let joiner_ids = cluster.joiners.clone();
    for (wave_idx, wave) in joiner_ids.chunks(4).enumerate() {
        for (i, &joiner) in wave.iter().enumerate() {
            let contact = NodeId::new(((wave_idx * 4 + i) % seeded) as u64);
            cluster.join(joiner, contact);
        }
        cluster.wait_for_members(
            (seeded + (wave_idx + 1) * 4).min(total),
            StdDuration::from_secs(60),
        );
    }
    let members = cluster.wait_for_members(total, StdDuration::from_secs(120));
    let growth_wall = growth_start.elapsed();

    let mut join_latency = LatencySeries::new();
    for (_, latency) in cluster.map_nodes(|n| {
        n.stats
            .join_requested_at
            .zip(n.stats.joined_at)
            .map(|(req, joined)| joined.saturating_since(req))
    }) {
        if let Some(latency) = latency {
            join_latency.push(latency);
        }
    }
    println!(
        "growth: {members}/{total} members in {:.1}s wall; join latency mean {:.2}s p90 {:.2}s max {:.2}s ({} joins)",
        growth_wall.as_secs_f64(),
        join_latency.mean(),
        join_latency.percentile(90.0),
        join_latency.max(),
        join_latency.len(),
    );

    // ---------------------------------------------------------- broadcast
    // Let the admission-triggered shuffle waves drain first: broadcasting
    // into members mid-transfer measures churn losses, not the runtime.
    std::thread::sleep(StdDuration::from_secs(10));
    let bcast_start = StdInstant::now();
    let mut sent: Vec<(BroadcastId, atum_types::Instant)> = Vec::new();
    for i in 0..broadcasts {
        // Rotate origins across the whole membership, seeded and joined.
        let origin = NodeId::new((i * 7 % total) as u64);
        let sent_at = atum_types::Instant::from_micros(cluster.elapsed().as_micros() as u64);
        if let Some(id) = cluster.broadcast_tracked(origin, vec![0x5a; payload_size]) {
            sent.push((id, sent_at));
        }
        std::thread::sleep(StdDuration::from_millis(500));
    }
    // Settle until every member delivered every tracked broadcast (or the
    // timeout expires — delivery under churn is a ratio, not a certainty).
    let expected_ids: Vec<BroadcastId> = sent.iter().map(|&(id, _)| id).collect();
    let want = expected_ids.clone();
    cluster.wait_for_nodes(total, StdDuration::from_secs(60), move |n| {
        want.iter()
            .all(|id| n.delivered().iter().any(|(d, _, _)| d == id))
    });
    let bcast_wall = bcast_start.elapsed();

    let mut delivery_latency = LatencySeries::new();
    let mut observed = 0usize;
    for (_, deliveries) in cluster.map_nodes(|n| n.delivered().to_vec()) {
        for (id, at, _hops) in deliveries {
            if let Some(&(_, sent_at)) = sent.iter().find(|&&(s, _)| s == id) {
                observed += 1;
                delivery_latency.push(at.saturating_since(sent_at));
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
        "broadcast: {observed}/{expected} deliveries ({:.1}%), latency mean {:.2}s p50 {:.2}s p90 {:.2}s max {:.2}s",
        ratio * 100.0,
        delivery_latency.mean(),
        delivery_latency.percentile(50.0),
        delivery_latency.percentile(90.0),
        delivery_latency.max(),
    );

    if atum_obs::trace::sink_enabled(atum_obs::EventKind::Net) {
        for (id, line) in cluster.map_nodes(|n| match n.member() {
            Some(m) => format!(
                "phase {:?} vgroup {:?} epoch {} comp {} engine {} delivered {}",
                n.phase(),
                m.vgroup,
                m.epoch,
                m.composition.len(),
                m.engine_running(),
                n.delivered().len(),
            ),
            None => format!("phase {:?}", n.phase()),
        }) {
            eprintln!("{id}: {line}");
        }
    }

    let stats = cluster.stats();
    let wall = wall_start.elapsed();
    println!(
        "runtime: {} frames sent, {} dropped, {} decode errors, {:.1} MiB, peak outbound queue {}",
        stats.frames_sent,
        stats.frames_dropped,
        stats.decode_errors,
        stats.bytes_sent as f64 / (1024.0 * 1024.0),
        stats.peak_outbound_queue,
    );

    let record = BenchRecord::new("net", seed)
        .runtime("tcp")
        .param("seeded", seeded)
        .param("joiners", joiners)
        .param("broadcasts", broadcasts)
        .param("payload_size", payload_size)
        .metric("final_members", members)
        .metric("reached", members == total)
        .metric("growth_wall_secs", growth_wall.as_secs_f64())
        .metric("join_latency_mean_secs", join_latency.mean())
        .metric("join_latency_p90_secs", join_latency.percentile(90.0))
        .metric("join_latency_max_secs", join_latency.max())
        .metric("broadcasts_sent", sent.len())
        .metric("delivery_ratio", ratio)
        .metric("delivery_latency_mean_secs", delivery_latency.mean())
        .metric(
            "delivery_latency_p50_secs",
            delivery_latency.percentile(50.0),
        )
        .metric(
            "delivery_latency_p90_secs",
            delivery_latency.percentile(90.0),
        )
        .metric(
            "broadcast_throughput_per_sec",
            if bcast_wall.as_secs_f64() > 0.0 {
                observed as f64 / bcast_wall.as_secs_f64()
            } else {
                0.0
            },
        )
        .metric("frames_sent", stats.frames_sent)
        .metric("frames_dropped", stats.frames_dropped)
        .metric("decode_errors", stats.decode_errors)
        .metric("bytes_sent", stats.bytes_sent)
        .metric("bytes_received", stats.bytes_received)
        .metric("writes", stats.writes)
        .metric("messages_encoded", stats.messages_encoded)
        .metric("peak_outbound_queue", stats.peak_outbound_queue)
        .metric("peak_inbound_queue", stats.peak_inbound_queue)
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

    // `NetCluster::shutdown` walks every handle, including the corpses';
    // the runtimes are still live (only nodes were removed), so the walk
    // completes without the per-corpse stall.
    cluster.shutdown();
}

// ----------------------------------------------------------- saturation

/// Drives a sustained broadcast storm through a standing loopback cluster
/// and reports the message path's throughput: the repo's committed
/// network-throughput baseline (CI gates on `msgs_per_sec`).
fn run_saturation() {
    print_header(
        "Net saturation",
        "sustained broadcast storm over loopback TCP: msgs/s, MB/s, frames-per-write, latency",
    );
    let seeded = scaled(12usize, 24);
    // `ATUM_STORM` overrides the broadcast count (sweeps, regression bisects).
    let storm = std::env::var("ATUM_STORM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(scaled(1200usize, 6000));
    let payload_size = 1024usize;
    let seed = 47u64;

    // Fast SMR rounds (the storm is agreement-bound at the origin vgroup),
    // lazy failure detection (nothing crashes), and the same split-forcing
    // group bounds the growth scenario uses (link repair keeps surgery
    // safe; 1-core CPU starvation still dominates wall clock).
    let params = Params::default()
        .with_round(Duration::from_millis(100))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(10), 3);

    // Deep outbound queues: a throughput scenario wants backpressure, not
    // loss, to absorb scheduler hiccups — a dropped gossip copy waits for
    // announce-cadence anti-entropy to be repaired, so on an overloaded
    // host a shallow bound turns one stall into holes the run can only
    // close on repair cadence and the bench measures the timeout, not the
    // path. The bound is per *connection*, and co-hosted nodes share
    // one multiplexed self-connection, so the depth must cover the whole
    // cluster's in-flight storm traffic (queue entries are an address plus
    // an `Arc` to the shared frame, so depth is cheap; the frames
    // themselves are fan-out-shared). `peak_outbound_queue` still reports
    // how deep it got.
    let runtime_cfg = atum_net::RuntimeConfig {
        queue_capacity: 262_144,
        ..atum_net::RuntimeConfig::default()
    };
    let cluster = NetClusterBuilder::new(seeded, 0)
        .params(params)
        .group_size(4)
        .runtime(runtime_cfg)
        .seed(seed)
        .build(|_| CollectingApp::new());
    println!("cluster: {seeded} standing members on loopback TCP, {storm} broadcast storm");

    // Let heartbeats and composition anti-entropy settle before measuring.
    std::thread::sleep(StdDuration::from_secs(2));

    let before = cluster.stats();
    let (digest_hits_before, _) = atum_core::verified_digest_stats();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let storm_start = StdInstant::now();
    // Flood issuance: queue every broadcast without waiting for per-call
    // round trips, so the SMR pipelines and the gossip fabric stay
    // saturated; ids and event-loop send timestamps stream back through a
    // channel as the calls execute.
    let (id_tx, id_rx) = std::sync::mpsc::channel::<(BroadcastId, atum_types::Instant)>();
    for i in 0..storm {
        // Rotate origins so every vgroup's SMR engine carries storm load.
        let origin = NodeId::new((i % seeded) as u64);
        let Some(node) = cluster.node(origin) else {
            continue;
        };
        let tx = id_tx.clone();
        let payload = vec![0xa5u8; payload_size];
        node.call(move |n, ctx| {
            let sent_at = ctx.now();
            if let Ok(id) = n.broadcast(payload, ctx) {
                let _ = tx.send((id, sent_at));
            }
        });
    }
    drop(id_tx);
    let mut sent: Vec<(BroadcastId, atum_types::Instant)> = Vec::with_capacity(storm);
    while let Ok(pair) = id_rx.recv_timeout(StdDuration::from_secs(30)) {
        sent.push(pair);
    }
    // Settle, tracking when the cluster crosses 95% of the expected
    // deliveries (the same floor CI gates `delivery_ratio` on): throughput
    // is measured at that mark so one straggler hole (a gossip copy lost to
    // overload waits for announce-cadence repair) degrades
    // `delivery_ratio`, not the rate —
    // dividing by the settle timeout would report noise. The poll counts deliveries without cloning them so it
    // does not pollute the allocation measurement.
    let want = sent.len();
    let expected_total = want * seeded;
    let deadline = StdInstant::now() + StdDuration::from_secs(scaled(90, 300));
    // Deliveries, elapsed seconds and wire counters at the 95% mark.
    let mut sustained: Option<(usize, f64, AggregateStats)> = None;
    loop {
        let total: usize = cluster
            .map_nodes(|n| n.delivered().len())
            .into_iter()
            .map(|(_, count)| count)
            .sum();
        if sustained.is_none() && total * 100 >= expected_total * 95 {
            sustained = Some((total, storm_start.elapsed().as_secs_f64(), cluster.stats()));
        }
        if total >= expected_total || StdInstant::now() >= deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    let storm_wall = storm_start.elapsed();
    let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);
    let (digest_hits_after, _) = atum_core::verified_digest_stats();
    let after = cluster.stats();
    let delta = |f: fn(&AggregateStats) -> u64| f(&after).saturating_sub(f(&before));

    // Index send instants once: the match below runs per delivery
    // (storm x members entries), and `ATUM_STORM` sweeps make a linear
    // scan per delivery quadratic.
    let sent_at_of: std::collections::HashMap<BroadcastId, atum_types::Instant> =
        sent.iter().copied().collect();
    let mut delivery_latency = LatencySeries::new();
    let mut observed = 0usize;
    for (_, deliveries) in cluster.map_nodes(|n| n.delivered().to_vec()) {
        for (id, at, _hops) in deliveries {
            if let Some(&sent_at) = sent_at_of.get(&id) {
                observed += 1;
                delivery_latency.push(at.saturating_since(sent_at));
            }
        }
    }
    let expected = sent.len() * seeded;
    let ratio = if expected == 0 {
        0.0
    } else {
        observed as f64 / expected as f64
    };
    let secs = storm_wall.as_secs_f64().max(1e-9);
    // Sustained rate at the 95% mark; a run that never got there reports
    // its (degraded) rate over the whole settle window.
    let (sustained_count, sustained_secs, sustained_stats) =
        sustained.unwrap_or((observed, secs, after));
    let sustained_secs = sustained_secs.max(1e-9);
    let msgs_per_sec = sustained_count as f64 / sustained_secs;
    let mb_per_sec = sustained_stats.bytes_sent.saturating_sub(before.bytes_sent) as f64
        / (1024.0 * 1024.0)
        / sustained_secs;
    let frames_per_write = delta(|s| s.frames_sent) as f64 / delta(|s| s.writes).max(1) as f64;
    let allocs = allocs_after.saturating_sub(allocs_before);
    let allocs_per_delivery = allocs as f64 / (observed.max(1)) as f64;

    println!(
        "storm: {observed}/{expected} deliveries ({:.1}%) in {:.1}s -> {:.0} msgs/s, {:.2} MB/s",
        ratio * 100.0,
        storm_wall.as_secs_f64(),
        msgs_per_sec,
        mb_per_sec,
    );
    println!(
        "wire: {} frames in {} writes ({:.1} frames/write), {} logical encodes, {} digest-cache hits, {:.0} allocs/delivery",
        delta(|s| s.frames_sent),
        delta(|s| s.writes),
        frames_per_write,
        delta(|s| s.messages_encoded),
        digest_hits_after.saturating_sub(digest_hits_before),
        allocs_per_delivery,
    );
    println!(
        "latency: p50 {:.3}s p90 {:.3}s p99 {:.3}s max {:.3}s",
        delivery_latency.percentile(50.0),
        delivery_latency.percentile(90.0),
        delivery_latency.percentile(99.0),
        delivery_latency.max(),
    );

    let record = BenchRecord::new("net_saturation", seed)
        .runtime("tcp")
        .param("seeded", seeded)
        .param("broadcasts", storm)
        .param("payload_size", payload_size)
        .metric("broadcasts_sent", sent.len())
        .metric("deliveries", observed)
        .metric("delivery_ratio", ratio)
        .metric("msgs_per_sec", msgs_per_sec)
        .metric("mb_per_sec", mb_per_sec)
        .metric("frames_per_write", frames_per_write)
        .metric("allocs_per_delivery", allocs_per_delivery)
        .metric(
            "digest_cache_hits",
            digest_hits_after.saturating_sub(digest_hits_before),
        )
        .metric(
            "delivery_latency_p50_secs",
            delivery_latency.percentile(50.0),
        )
        .metric(
            "delivery_latency_p90_secs",
            delivery_latency.percentile(90.0),
        )
        .metric(
            "delivery_latency_p99_secs",
            delivery_latency.percentile(99.0),
        )
        .metric("frames_sent", delta(|s| s.frames_sent))
        .metric("frames_dropped", delta(|s| s.frames_dropped))
        .metric("writes", delta(|s| s.writes))
        .metric("messages_encoded", delta(|s| s.messages_encoded))
        .metric("bytes_sent", delta(|s| s.bytes_sent))
        .metric("bytes_received", delta(|s| s.bytes_received))
        .metric("decode_errors", after.decode_errors)
        .metric("peak_outbound_queue", after.peak_outbound_queue)
        .metric("peak_inbound_queue", after.peak_inbound_queue)
        .perf(storm_wall, Some(delta(|s| s.events_processed)));
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

    cluster.shutdown();
}
