//! Fixed-seed equivalence: the zero-copy message fabric (structural digests,
//! Arc-shared envelopes, engine scratch buffers) is a *performance* change —
//! for a fixed seed the protocol-level outcomes of the churn and growth
//! drivers must stay pinned. These golden values were captured when the
//! fabric landed; a future change that shifts them is either a deliberate
//! protocol change (update the goldens and say so in the commit) or an
//! accidental trajectory change (a bug — e.g. a digest encoding that lost
//! injectivity, a hash-map iteration order leaking into behaviour).

use atum::core::CollectingApp;
use atum::sim::{
    run_broadcast_workload, run_churn, run_growth, BroadcastWorkloadReport, ChurnReport,
    ClusterBuilder, GrowthReport,
};
use atum::simnet::NetConfig;
use atum::types::{Duration, Params, SmrMode};

fn churn_once() -> ChurnReport {
    // A small churn configuration without Byzantine members (whose
    // heartbeat-only behaviour can legitimately push a small vgroup
    // past its fault bound, which is a property of the fault model rather
    // than of the fabric this test pins).
    let params = Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(5), 3);
    let mut cluster = ClusterBuilder::new(40)
        .params(params)
        .net(NetConfig::lan())
        .seed(99)
        .build(|_| CollectingApp::new());
    run_churn(
        &mut cluster,
        2.0,
        Duration::from_secs(120),
        Duration::from_secs(5),
        17,
    )
}

fn growth_once() -> GrowthReport {
    run_growth(
        Params::default()
            .with_round(Duration::from_millis(250))
            .with_group_bounds(1, 6)
            .with_overlay(2, 4),
        NetConfig::lan(),
        19,
        14,
        0.5,
        Duration::from_secs(1800),
    )
}

#[test]
fn churn_metrics_are_pinned_for_fixed_seed() {
    let report = churn_once();
    let summary = (
        report.attempted,
        report.completed,
        report.final_members,
        report.ghost_entries,
    );
    assert_eq!(
        summary,
        (4, 4, 40, 0),
        "churn protocol metrics moved for a fixed seed: {summary:?}"
    );
    // The trajectory, not only its summary: every simulated event counts,
    // so any effect reordered or message added moves this number even when
    // the outcome above holds. Pinned when `MemberState` was split into
    // its three parts, a pure move that reprinted it.
    assert_eq!(
        report.events_processed, 289_291,
        "churn trajectory moved for a fixed seed"
    );
    // And the run is bit-stable within the process: same seed, same cycles.
    let again = churn_once();
    assert_eq!(report.attempted, again.attempted);
    assert_eq!(report.completed, again.completed);
    assert_eq!(report.final_members, again.final_members);
    assert_eq!(report.events_processed, again.events_processed);
    let times = |r: &ChurnReport| -> Vec<(u64, String)> {
        r.cycles
            .iter()
            .map(|c| {
                (
                    c.victim.raw(),
                    format!(
                        "{:.6}/{:.6}/{:?}",
                        c.left_at_secs, c.rejoin_at_secs, c.completed_at_secs
                    ),
                )
            })
            .collect()
    };
    assert_eq!(times(&report), times(&again));
}

#[test]
fn growth_metrics_are_pinned_for_fixed_seed() {
    let report = growth_once();
    assert!(report.reached_target, "growth must reach its target");
    let summary = (
        report.size_over_time.last().map(|&(_, n)| n).unwrap_or(0),
        report.elapsed_secs as u64,
        report.exchanges_completed,
        report.exchanges_suppressed,
    );
    // Re-baselined in the atum-net PR: the composition anti-entropy
    // (periodic `CompositionUpdate`s + correspondent back-links, added to
    // heal the stale-addressing gossip starvation the loopback TCP test
    // exposed) is a deliberate protocol change; it shifts shuffle-walk
    // trajectories, which shows up here as more suppressed exchanges
    // (28 → 34) while reach, time-to-target and completions are unchanged.
    //
    // Re-pinned once more when the statistics moved into the node-lifetime
    // `Session` (`(.., 5, 34)` → `(.., 6, 40)`): the trajectory is the
    // same — final size and time-to-target did not move — but an exchanged
    // node's counters used to be dropped with its old `MemberState`, so
    // every exchange was under-counted by the members it moved.
    //
    // Re-pinned when the synchronous engine was pipelined (a slot opens
    // every round, so a decision takes `f + 2` to `f + 3` rounds instead
    // of `f + 2` to `2(f + 2)`) and a fresh engine stopped replaying from
    // round 0 (`(.., 6, 40)` → `(.., 0, 62)`): every SMR decision lands at
    // a different time, which moves the shuffle walks; final size and
    // time-to-target did not move. Completed exchanges are rare at this
    // scale and seed-dependent (see the atum-sim growth sweep).
    //
    // Re-pinned when a joiner came to be welcomed after the resize its
    // admission triggers (`(14, 141, 0, 62)` → `(14, 151, 4, 82)`). At 83 s
    // node 9's admission split vgroup 0 in the same decided op, and node 9
    // was welcomed into the pre-split configuration that nobody held: its
    // engine ran on alone for the rest of the run, deciding joins and
    // exchanges by itself. Now it is welcomed into the half it lands in.
    // The welcome's new place in the effect order moves every later
    // message. No membership fence closes in this run. Over seeds 11–42
    // of this configuration the median time-to-target stays 131 s; this
    // seed is one of the slower ones.
    //
    // Re-pinned when an idle member's proposal started to go out at once,
    // into the slot already open, instead of at its first tick of the next
    // round (`(14, 151, 4, 82)` → `(14, 131, 0, 55)`): joins, splits and
    // exchanges are decided up to a round sooner, which moves every later
    // message. Final size is unchanged and this seed now reaches the
    // target at the configuration's median time. Completed exchanges are
    // rare at this scale and seed-dependent, as above.
    //
    // Re-pinned when the fields no receiver read left the wire
    // (`(14, 131, 0, 55)` → `(14, 131, 16, 59)`): a joiner is its `NodeId`
    // without a placeholder address, and `OfferExchange` no longer repeats
    // its walk's origin. Those op digests seed placement walks and pick
    // exchange candidates, so the exchanges re-roll; final size and
    // time-to-target did not move. The re-roll is one draw for every seed
    // at once: the seeds share their opening (the same joins, in the same
    // order, start the same walks), and members whose reservation maps
    // differ pick different candidates for one offer, so most exchanges die
    // for want of a majority. Over seeds 11–58, 8 runs completed an
    // exchange before (31 exchanges) and 37 after (485).
    assert_eq!(
        summary,
        (14, 131, 16, 59),
        "growth protocol metrics moved for a fixed seed: {summary:?}"
    );
    // The trajectory, as for churn above.
    assert_eq!(
        report.events_processed, 22_302,
        "growth trajectory moved for a fixed seed"
    );
    let again = growth_once();
    assert_eq!(report.size_over_time, again.size_over_time);
    assert_eq!(report.events_processed, again.events_processed);
}

fn wan_broadcasts_once() -> (BroadcastWorkloadReport, u64, u64) {
    let params = Params::default()
        .with_round(Duration::from_millis(250))
        .with_group_bounds(2, 8)
        .with_overlay(3, 5)
        .with_smr(SmrMode::Asynchronous);
    let mut cluster = ClusterBuilder::new(12)
        .params(params)
        .net(NetConfig::wan())
        .seed(31)
        .build(|_| CollectingApp::new());
    let report = run_broadcast_workload(
        &mut cluster,
        4,
        64,
        Duration::from_secs(1),
        Duration::from_secs(20),
        5,
    );
    let stats = cluster.sim.stats();
    (report, stats.events_processed, stats.messages_lost)
}

/// The WAN profile's link draws: an asynchronous cluster on
/// `NetConfig::wan()`, whose 0.1 % loss also exercises the loss draw. Every
/// latency sample comes from the profile's propagation draw, so any change
/// to how a link delay or a loss is drawn moves these numbers.
#[test]
fn wan_async_broadcast_metrics_are_pinned_for_fixed_seed() {
    let (mut report, events, lost) = wan_broadcasts_once();
    let micros = |secs: f64| (secs * 1e6).round() as u64;
    let summary = (
        report.expected_deliveries,
        report.observed_deliveries,
        micros(report.latencies.percentile(50.0)),
        micros(report.latencies.percentile(99.0)),
        micros(report.latencies.max()),
        micros(report.latencies.mean()),
    );
    assert_eq!(
        summary,
        (48, 48, 8156, 10643, 10744, 7865),
        "WAN broadcast metrics moved for a fixed seed: {summary:?}"
    );
    assert_eq!(
        (events, lost),
        (2_792, 1),
        "WAN trajectory moved for a fixed seed"
    );
    let (mut again, events_again, _) = wan_broadcasts_once();
    assert_eq!(
        again.latencies.percentile(50.0),
        report.latencies.percentile(50.0)
    );
    assert_eq!(again.latencies, report.latencies);
    assert_eq!(events, events_again);
}
