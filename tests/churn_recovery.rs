//! Sustained-churn recovery: the headline liveness property of the Atum
//! evaluation (§6.1.2). A standing cluster endures continuous leave/re-join
//! cycles; at least 90 % of the cycles must complete, the run must be
//! deterministic for a fixed seed, and no ghost composition entries (nodes
//! listed by a vgroup they are not members of) may survive the final cycle.
//!
//! One broadcast a second runs through the churn: volatile groups move and
//! re-admit nodes all the time, and a node must neither be handed a
//! broadcast twice nor reuse a broadcast id because of it — and at this
//! scale every accepted broadcast reaches every node that is a member at
//! the end.

use atum::core::CollectingApp;
use atum::sim::{run_churn, ChurnReport, ClusterBuilder};
use atum::simnet::NetConfig;
use atum::types::{BroadcastId, Duration, NodeId, Params};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const SEED: u64 = 23;
const CHURN_SECS: u64 = 180;

fn churn_params() -> Params {
    Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5)
        // Tight failure detection, as in the churny_cluster example: churny
        // deployments must evict stranded entries within seconds.
        .with_failure_detection(Duration::from_secs(5), 3)
}

/// What the broadcasts running through the churn came to.
struct Broadcasts {
    /// The id each accepted `AtumNode::broadcast` call returned, in order.
    issued: Vec<BroadcastId>,
    /// Per node (victims included): whether it is a member at the end, and
    /// the ids it delivered, in order.
    logs: Vec<(NodeId, bool, Vec<BroadcastId>)>,
}

fn run_once() -> (ChurnReport, Broadcasts) {
    let mut cluster = ClusterBuilder::new(30)
        .params(churn_params())
        .net(NetConfig::lan())
        .seed(SEED)
        .build(|_| CollectingApp::new());
    let nodes = cluster.correct_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let issued: Arc<Mutex<Vec<BroadcastId>>> = Arc::default();
    let begin = cluster.sim.now();
    for second in 0..CHURN_SECS {
        let origin = *nodes.choose(&mut rng).expect("30 nodes");
        // 256 bytes: the second it was sent in, then a random body.
        let mut payload = vec![0u8; 256];
        rng.fill_bytes(&mut payload[16..]);
        payload[..8].copy_from_slice(&second.to_le_bytes());
        let issued = Arc::clone(&issued);
        let at = begin + Duration::from_secs(2 + second);
        cluster.sim.call_at(at, origin, move |node, ctx| {
            // Refused while the origin is between memberships.
            if let Ok(id) = node.broadcast(payload, ctx) {
                issued.lock().expect("no panic holds it").push(id);
            }
        });
    }
    let report = run_churn(
        &mut cluster,
        2.0,
        Duration::from_secs(CHURN_SECS),
        Duration::from_secs(5),
        SEED,
    );
    let logs = nodes
        .iter()
        .map(|&id| {
            let node = cluster.sim.node(id).expect("hosted");
            let delivered = node.delivered().iter().map(|d| d.0).collect();
            (id, node.is_member(), delivered)
        })
        .collect();
    let issued = std::mem::take(&mut *issued.lock().expect("no panic holds it"));
    (report, Broadcasts { issued, logs })
}

#[test]
fn sustained_churn_completes_ninety_percent_without_ghosts() {
    let (report, broadcasts) = run_once();
    // At-most-once delivery and id uniqueness on every node, reach on every
    // node that is a member at the end.
    assert!(
        broadcasts.issued.len() >= 150,
        "{}",
        broadcasts.issued.len()
    );
    let issued: BTreeSet<BroadcastId> = broadcasts.issued.iter().copied().collect();
    assert_eq!(
        issued.len(),
        broadcasts.issued.len(),
        "an origin reused a broadcast id"
    );
    for (node, member_at_end, log) in &broadcasts.logs {
        let delivered: BTreeSet<BroadcastId> = log.iter().copied().collect();
        assert_eq!(
            delivered.len(),
            log.len(),
            "{node} was handed a broadcast twice"
        );
        assert!(
            delivered.is_subset(&issued),
            "{node} delivered an unknown id"
        );
        if *member_at_end {
            let missing: Vec<&BroadcastId> = issued.difference(&delivered).collect();
            assert!(missing.is_empty(), "{node} never delivered {missing:?}");
        }
    }
    assert!(
        report.attempted >= 5,
        "expected a meaningful number of cycles, got {}",
        report.attempted
    );
    assert!(
        report.completion_ratio() >= 0.9,
        "completion {}/{} ({:.0}%), stalls {:?}",
        report.completed,
        report.attempted,
        report.completion_ratio() * 100.0,
        report.stalls
    );
    assert_eq!(
        report.ghost_entries, 0,
        "ghost composition entries survived the final cycle"
    );
    // The audit's classification must be internally consistent, and — the
    // stronger, always-true form of the zero-ghosts bar — every ghost the
    // protocol *could* have healed must be healed. With no Byzantine
    // members in this run no vgroup can be wedged by construction, so both
    // counts are zero.
    assert_eq!(report.ghost_audit.entries, report.ghost_entries);
    assert_eq!(
        report.ghost_audit.healable(),
        0,
        "healable ghost entries survived: {:?}",
        report.ghost_audit
    );
    assert_eq!(report.ghost_audit.unhealable, 0);
    // Every completed cycle has a recovery latency sample and a consistent
    // per-cycle record.
    assert_eq!(report.rejoin_latencies.len(), report.completed);
    assert_eq!(report.cycles.len(), report.attempted);
    assert_eq!(
        report.stalls.total(),
        report.attempted - report.completed,
        "stall causes must account for every uncompleted cycle"
    );
    for cycle in &report.cycles {
        assert!(cycle.rejoin_at_secs > cycle.left_at_secs);
        if let Some(t) = cycle.completed_at_secs {
            assert!(t >= cycle.left_at_secs);
        }
    }
}

#[test]
fn churn_run_is_deterministic_for_a_fixed_seed() {
    let (a, a_broadcasts) = run_once();
    let (b, b_broadcasts) = run_once();
    assert_eq!(a_broadcasts.issued, b_broadcasts.issued);
    assert_eq!(a_broadcasts.logs, b_broadcasts.logs);
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.final_members, b.final_members);
    assert_eq!(a.ghost_entries, b.ghost_entries);
    assert_eq!(a.stalls, b.stalls);
    let key = |r: &ChurnReport| -> Vec<(u64, String, Option<String>)> {
        r.cycles
            .iter()
            .map(|c| {
                (
                    c.victim.raw(),
                    format!("{:.6}/{:.6}", c.left_at_secs, c.rejoin_at_secs),
                    c.completed_at_secs.map(|t| format!("{t:.6}")),
                )
            })
            .collect()
    };
    assert_eq!(key(&a), key(&b), "per-cycle records must be identical");
}
