//! Fault-plane system tests: injected damage on real sockets, and one
//! partition-then-heal script run against both the simulator and the TCP
//! runtime.
//!
//! The deterministic *decision* layer (seeded decider streams, partition
//! matrices) is unit-tested in `atum_net::faults`; these tests drive whole
//! clusters through the plane — injected loss, injected corruption,
//! connection kills, partition-then-heal — and assert the middleware
//! degrades and recovers the way the paper's hostile-network story
//! requires. Loss on the simulator is its `NetConfig`'s
//! `loss_probability`, as in the last test.

use atum::core::CollectingApp;
use atum::net::NetClusterBuilder;
use atum::sim::ClusterBuilder;
use atum::simnet::NetConfig;
use atum::types::{Duration, NodeId, Params};
use std::time::Duration as StdDuration;

fn net_params() -> Params {
    // Mirrors the `net_cluster` tuning: fast rounds, lazy failure
    // detection so scheduling jitter (and the deliberately injected fault
    // windows below, all shorter than the eviction horizon) never turns
    // into eviction storms on a loaded CI box.
    Params::default()
        .with_round(Duration::from_millis(100))
        .with_group_bounds(3, 10)
        .with_overlay(2, 4)
        .with_failure_detection(Duration::from_secs(8), 3)
}

#[test]
fn injected_loss_is_counted_and_heals() {
    let cluster = NetClusterBuilder::new(4, 0)
        .params(net_params())
        .seed(11)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), 4);

    // Total injected loss: every cross-node frame is dropped at the send
    // path, counted apart from organic drops.
    cluster.faults().set_default_loss(1.0);
    cluster.broadcast(NodeId::new(0), b"into-the-void".to_vec());
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    while cluster.stats().frames_dropped_injected == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(50));
    }
    let stats = cluster.stats();
    assert!(
        stats.frames_dropped_injected > 0,
        "injected drops must be counted: {stats:?}"
    );

    // Clearing the rules restores the benign path: a fresh broadcast
    // blankets the membership.
    cluster.faults().clear();
    cluster.broadcast(NodeId::new(1), b"after-heal".to_vec());
    let delivered = cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
        n.app()
            .delivered_payloads()
            .iter()
            .any(|p| p == b"after-heal")
    });
    assert_eq!(delivered, 4, "stats: {:?}", cluster.stats());
    cluster.shutdown();
}

#[test]
fn injected_corruption_closes_connections_not_nodes() {
    let cluster = NetClusterBuilder::new(4, 0)
        .params(net_params())
        .seed(13)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), 4);

    // Corrupt every frame: receivers must reject each one (decode errors),
    // close only the damaged connection, and never panic or wedge.
    cluster.faults().set_corruption(1.0);
    cluster.broadcast(NodeId::new(0), b"mangled".to_vec());
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let s = cluster.stats();
        if s.frames_corrupted_injected > 0 && s.decode_errors > 0 {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    let stats = cluster.stats();
    assert!(
        stats.frames_corrupted_injected > 0,
        "corruption must be injected: {stats:?}"
    );
    assert!(
        stats.decode_errors > 0,
        "corrupted frames must be rejected by the decoder: {stats:?}"
    );

    // Every reactor is still alive: with the plane cleared, connections are
    // re-established and a fresh broadcast goes end to end.
    cluster.faults().clear();
    cluster.broadcast(NodeId::new(2), b"recovered".to_vec());
    let delivered = cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
        n.app()
            .delivered_payloads()
            .iter()
            .any(|p| p == b"recovered")
    });
    assert_eq!(delivered, 4, "stats: {:?}", cluster.stats());
    cluster.shutdown();
}

#[test]
fn injected_connection_kills_reconnect_transparently() {
    let cluster = NetClusterBuilder::new(4, 0)
        .params(net_params())
        .seed(17)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), 4);
    // Let the heartbeat mesh build some connections first.
    cluster.broadcast(NodeId::new(0), b"warm-up".to_vec());
    cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
        n.app().delivered_payloads().iter().any(|p| p == b"warm-up")
    });

    cluster.faults().kill_connections();
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    while cluster.stats().conns_killed_injected == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(50));
    }
    assert!(
        cluster.stats().conns_killed_injected > 0,
        "kills must be observed: {:?}",
        cluster.stats()
    );

    // The reconnect ladder (now jittered) re-builds the mesh without any
    // protocol-level help.
    cluster.broadcast(NodeId::new(3), b"post-kill".to_vec());
    let delivered = cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
        n.app()
            .delivered_payloads()
            .iter()
            .any(|p| p == b"post-kill")
    });
    assert_eq!(delivered, 4, "stats: {:?}", cluster.stats());
    cluster.shutdown();
}

/// The vocabulary-parity scenario: the *same* partition-heal script, spoken
/// through each runtime's `partition`/`heal`, must leave both runtimes with
/// full membership and a post-heal broadcast blanketing every member.
#[test]
fn partition_heal_parity_between_sim_and_net() {
    let n = 8usize;
    let halves = |ids: &[NodeId]| -> (Vec<NodeId>, Vec<NodeId>) {
        let mid = ids.len() / 2;
        (ids[..mid].to_vec(), ids[mid..].to_vec())
    };

    // --- Simulator run.
    let mut cluster = ClusterBuilder::new(n)
        .params(net_params())
        .seed(23)
        .build(|_| CollectingApp::new());
    let ids = cluster.initial_nodes.clone();
    let (a, b) = halves(&ids);
    cluster.sim.partition(&a, &b);
    cluster.sim.run_for(Duration::from_secs(5));
    cluster.sim.heal();
    cluster.sim.run_for(Duration::from_secs(5));
    assert_eq!(
        cluster.member_count(),
        n,
        "sim membership survived the split"
    );
    let origin = ids[0];
    cluster
        .broadcast_tracked(origin, b"sim-post-heal".to_vec())
        .expect("origin is a member");
    cluster.sim.run_for(Duration::from_secs(60));
    for &id in &ids {
        let delivered = cluster.sim.node(id).unwrap().app().delivered_payloads();
        assert!(
            delivered.iter().any(|p| p == b"sim-post-heal"),
            "sim node {id} missed the post-heal broadcast"
        );
    }

    // --- TCP run: identical script, the plane speaking the same verbs.
    let cluster = NetClusterBuilder::new(n, 0)
        .params(net_params())
        .seed(23)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), n);
    let ids = cluster.node_ids();
    let (a, b) = halves(&ids);
    cluster.faults().partition(&a, &b);
    std::thread::sleep(StdDuration::from_secs(2));
    cluster.faults().heal();
    assert_eq!(
        cluster.member_count(),
        n,
        "net membership survived the split"
    );
    cluster.broadcast(ids[0], b"net-post-heal".to_vec());
    let delivered = cluster.wait_for_nodes(n, StdDuration::from_secs(60), |node| {
        node.app()
            .delivered_payloads()
            .iter()
            .any(|p| p == b"net-post-heal")
    });
    assert_eq!(delivered, n, "stats: {:?}", cluster.stats());
    cluster.shutdown();
}

/// The straggler hole the repair path closes: under sustained random loss a
/// gossip copy that is dropped used to have no retransmit, stranding single
/// members without the broadcast forever. With broadcast repair on, the
/// announce-piggybacked digest → pull → re-gossip loop blankets the
/// membership anyway. Deterministic (simulator, fixed seed).
#[test]
fn lossy_links_are_repaired_by_broadcast_anti_entropy() {
    let params = Params::default()
        .with_round(Duration::from_millis(250))
        .with_group_bounds(3, 8)
        .with_overlay(2, 4)
        // Fast announce cadence (2 × heartbeat) so repair rounds fit the
        // horizon; eviction patience high enough that loss-eaten
        // heartbeats cannot trigger eviction churn during the run.
        .with_failure_detection(Duration::from_secs(2), 30);
    let mut cluster = ClusterBuilder::new(24)
        .params(params)
        .seed(41)
        .net(NetConfig::lossy(0.15))
        .build(|_| CollectingApp::new());
    let ids = cluster.initial_nodes.clone();
    let origin = ids[5];
    cluster
        .broadcast_tracked(origin, b"through-the-storm".to_vec())
        .expect("origin is a member");
    cluster.sim.run_for(Duration::from_secs(90));
    let holes: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&id| {
            !cluster
                .sim
                .node(id)
                .unwrap()
                .app()
                .delivered_payloads()
                .iter()
                .any(|p| p == b"through-the-storm")
        })
        .collect();
    assert!(holes.is_empty(), "broadcast repair left holes at {holes:?}");
}
