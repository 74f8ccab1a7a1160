//! Loopback TCP system test: the acceptance bar of the `atum-net` runtime.
//!
//! A 32-node cluster (16 members seeded into vgroups, 16 joiners) must
//! bootstrap, grow to full membership through the *real* join protocol —
//! contact round-trips, placement walks, welcome quorums, all over real
//! sockets — and deliver an application broadcast end-to-end.

use atum::core::CollectingApp;
use atum::net::NetClusterBuilder;
use atum::types::{Duration, NodeId, Params};
use std::time::Duration as StdDuration;

fn net_params() -> Params {
    // Wall-clock scale: 200 ms rounds keep joins a few-second affair while
    // leaving the per-node timer cadence (round/2) far from busy-waiting.
    // Failure detection is deliberately *lazier* than the simulator
    // configurations use: on a loaded CI box a debug-build event loop can
    // stall for hundreds of milliseconds, and a short eviction window turns
    // that scheduling jitter into spurious eviction storms (ghost fuses
    // firing on members whose welcome quorum is still assembling, rejoin
    // churn, overlay fragmentation). Nothing actually crashes in this test,
    // so a ~24 s eviction horizon (and a 16 s never-activated ghost fuse, comfortably above the worst observed join latency) costs nothing and keeps the failure
    // detector honest about what silence means on a wall clock.
    // Group bounds are sized so doubling the membership *does* force
    // splits: overlay surgery (split insertion, merge cycle-patching)
    // racing admission churn used to strand vgroups behind one-directional
    // links, so earlier revisions pinned gmax high enough that the seeded
    // cycle structure never changed. The link-repair probes (see
    // `crates/mcheck`, which model-checks exactly this hole) now detect and
    // re-stitch torn links, so the test exercises the full story over
    // sockets: contact round-trips, placement walks, welcome quorums, SMR
    // slots, shuffle exchanges, gossip — and live split surgery. Caveat
    // unchanged: on a 1-core CI runner every node thread shares one CPU,
    // and CPU starvation (not protocol latency) dominates the wall clock.
    Params::default()
        .with_round(Duration::from_millis(200))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(8), 3)
}

#[test]
fn loopback_cluster_grows_to_32_members_and_broadcasts() {
    const SEEDED: usize = 16;
    const JOINERS: usize = 16;
    const TOTAL: usize = SEEDED + JOINERS;

    let cluster = NetClusterBuilder::new(SEEDED, JOINERS)
        .params(net_params())
        .group_size(4)
        .seed(11)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), SEEDED);

    // Grow through the join protocol in waves of four, each joiner through a
    // distinct seeded contact, waiting for the previous wave to (mostly)
    // land so placement walks run on a settled overlay.
    let joiners = cluster.joiners.clone();
    for (wave_idx, wave) in joiners.chunks(4).enumerate() {
        for (i, &joiner) in wave.iter().enumerate() {
            let contact = NodeId::new(((wave_idx * 4 + i) % SEEDED) as u64);
            cluster.join(joiner, contact);
        }
        cluster.wait_for_members(
            (SEEDED + (wave_idx + 1) * 4).min(TOTAL),
            StdDuration::from_secs(30),
        );
    }
    let members = cluster.wait_for_members(TOTAL, StdDuration::from_secs(60));
    assert_eq!(
        members, TOTAL,
        "cluster did not reach full membership over TCP"
    );

    // An application broadcast must reach every member end-to-end. One
    // caveat of the protocol itself (not of the TCP runtime): shuffle
    // exchanges keep reconfiguring vgroups continuously after growth — the
    // paper's steady state is churn, not quiescence — and a single
    // broadcast can race a member mid-transfer and miss it (delivery is
    // probabilistic under churn; §6 reports ratios, not certainty). The
    // simulator behaves identically. So the end-to-end bar is: within a few
    // attempts, one broadcast reaches *all* members over real sockets.
    let origin = *joiners.last().unwrap();
    let mut full_delivery = false;
    let mut last_delivered = 0;
    for attempt in 0..8u8 {
        let payload = format!("over-real-sockets-{attempt}").into_bytes();
        cluster.broadcast(origin, payload.clone());
        let expected = payload.clone();
        last_delivered = cluster.wait_for_nodes(TOTAL, StdDuration::from_secs(30), move |n| {
            n.app().delivered_payloads().contains(&expected)
        });
        if last_delivered == TOTAL {
            full_delivery = true;
            break;
        }
    }
    if !full_delivery {
        for (id, line) in cluster.map_nodes(|n| {
            let delivered = n.app().delivered_payloads().len();
            match n.member() {
                Some(m) => format!(
                    "phase {:?} vgroup {:?} epoch {} comp {} fenced {} delivered {delivered}",
                    n.phase(),
                    m.config().vgroup,
                    m.config().epoch,
                    m.config().composition.len(),
                    m.fenced(),
                ),
                None => format!("phase {:?} (no member state)", n.phase()),
            }
        }) {
            eprintln!("{id}: {line}");
        }
        eprintln!("aggregate stats: {:?}", cluster.stats());
    }
    assert!(
        full_delivery,
        "no broadcast reached every member over TCP (best attempt {last_delivered}/{TOTAL})"
    );

    // The sockets genuinely carried the protocol, and no frame was rejected
    // by the decoder.
    let stats = cluster.stats();
    assert!(stats.frames_sent > 0 && stats.frames_received > 0);
    assert_eq!(stats.decode_errors, 0, "codec rejected well-formed traffic");
    cluster.shutdown();
}
