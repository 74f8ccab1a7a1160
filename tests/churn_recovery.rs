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
use atum::sim::{run_churn, ChurnReport, ClusterBuilder, ReachAudit};
use atum::simnet::NetConfig;
use atum::types::{BroadcastId, Duration, Instant, NodeId, Params};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
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
    /// The id each accepted `AtumNode::broadcast` call returned, with its
    /// send time, in order.
    issued: Vec<(BroadcastId, Instant)>,
    /// Per node (victims included): whether it is a member at the end, and
    /// the ids it delivered, in order.
    logs: Vec<(NodeId, bool, Vec<BroadcastId>)>,
    /// Reach over the pairs owed by the churn's membership intervals.
    audit: ReachAudit,
    /// Reach with no interval excused: every node that is a member at the
    /// end owes every broadcast, including those sent while it was away.
    caught_up: ReachAudit,
}

fn run_once() -> (ChurnReport, Broadcasts) {
    let mut cluster = ClusterBuilder::new(30)
        .params(churn_params())
        .net(NetConfig::lan())
        .seed(SEED)
        .build(|_| CollectingApp::new());
    let nodes = cluster.correct_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let issued: Arc<Mutex<Vec<(BroadcastId, Instant)>>> = Arc::default();
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
                issued.lock().expect("no panic holds it").push((id, at));
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
            let delivered = node.app().delivered().iter().map(|d| d.id).collect();
            (id, node.is_member(), delivered)
        })
        .collect();
    let issued = std::mem::take(&mut *issued.lock().expect("no panic holds it"));
    let audit = ReachAudit::fold(&cluster, &issued, &report.cycles);
    let caught_up = ReachAudit::fold(&cluster, &issued, &[]);
    (
        report,
        Broadcasts {
            issued,
            logs,
            audit,
            caught_up,
        },
    )
}

#[test]
fn sustained_churn_completes_ninety_percent_without_ghosts() {
    let (report, broadcasts) = run_once();
    // At-most-once delivery and id uniqueness on every node; every node
    // that is a member at the end delivered every broadcast sent while it
    // was a member — and at this scale the repair path has also caught it
    // up on the ones sent while it was away.
    let audit = &broadcasts.audit;
    assert!(
        broadcasts.issued.len() >= 150,
        "{}",
        broadcasts.issued.len()
    );
    assert_eq!(audit.reused_ids, 0, "an origin reused a broadcast id");
    assert_eq!(audit.duplicates, 0, "a node was handed a broadcast twice");
    assert_eq!(audit.unknown, 0, "a node delivered an unknown id");
    assert!(audit.pairs > 0);
    assert!(
        audit.missed.is_empty(),
        "never delivered: {:?}",
        audit.missed
    );
    let caught_up = &broadcasts.caught_up;
    assert!(caught_up.pairs >= audit.pairs);
    assert!(
        caught_up.missed.is_empty(),
        "never caught up on: {:?}",
        caught_up.missed
    );
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
    assert_eq!(a_broadcasts.audit, b_broadcasts.audit);
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

/// The benchmark's `sim_churn` shape: 200 nodes (10 Byzantine,
/// heartbeat-only) under 20 re-joins a minute for 480 simulated seconds,
/// with one 256-byte broadcast a second from a random correct node —
/// drawn from the seed exactly as `benchmark/src/sim.rs` draws them, so a
/// seed here replays that workload's trajectory. Prints one line of
/// [`ReachAudit`] per seed, 1 to 48; asserts only what must hold on every
/// seed. Run with `cargo test --release --test churn_recovery -- --ignored
/// --nocapture` (about half a minute a seed).
#[test]
#[ignore = "48 runs at 200 nodes; prints pair reach per seed"]
fn pair_reach_of_the_sim_churn_shape_per_seed() {
    const NODES: usize = 200;
    const CHURN_SECS: u64 = 480;
    for seed in 1..=48u64 {
        let mut cluster = ClusterBuilder::new(NODES)
            .params(churn_params())
            .net(NetConfig::lan())
            .seed(47)
            .byzantine(10)
            .build(|_| CollectingApp::new());
        cluster.sim.run_for(Duration::from_secs(2));
        let correct = cluster.correct_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let issued: Arc<Mutex<Vec<(BroadcastId, Instant)>>> = Arc::default();
        let begin = cluster.sim.now();
        for i in 0..CHURN_SECS {
            let at = begin + Duration::from_secs(2 + i);
            let origin = *correct.choose(&mut rng).expect("correct nodes");
            // The benchmark's payload: sequence number and FNV-1a checksum
            // of the random body, then the body.
            let mut payload = vec![0u8; 256];
            rng.fill_bytes(&mut payload[16..]);
            let sum = payload[16..].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            payload[..8].copy_from_slice(&i.to_le_bytes());
            payload[8..16].copy_from_slice(&sum.to_le_bytes());
            let issued = Arc::clone(&issued);
            cluster.sim.call_at(at, origin, move |node, ctx| {
                if let Ok(id) = node.broadcast(payload, ctx) {
                    issued.lock().expect("no panic holds it").push((id, at));
                }
            });
        }
        let report = run_churn(
            &mut cluster,
            20.0,
            Duration::from_secs(CHURN_SECS),
            Duration::from_secs(5),
            seed,
        );
        let issued = std::mem::take(&mut *issued.lock().expect("no panic holds it"));
        let audit = ReachAudit::fold(&cluster, &issued, &report.cycles);
        // Every correct node against every broadcast, owed or not.
        let all_pairs =
            audit.reach.iter().sum::<usize>() as f64 / (correct.len() * issued.len()).max(1) as f64;
        println!(
            "seed {seed:2}: pair reach {:.4} ({} of {} owed pairs), all-pairs {all_pairs:.4}, \
             broadcasts {} (≤ 10 nodes: {}), duplicates {}, unknown {}, reused ids {}, \
             failed cycles {} of {}",
            audit.pair_reach(),
            audit.reached,
            audit.pairs,
            issued.len(),
            audit.reaching_at_most(10),
            audit.duplicates,
            audit.unknown,
            audit.reused_ids,
            report.attempted - report.completed,
            report.attempted,
        );
        assert_eq!(audit.duplicates, 0, "seed {seed}");
        assert_eq!(audit.unknown, 0, "seed {seed}");
        assert_eq!(audit.reused_ids, 0, "seed {seed}");
    }
}
