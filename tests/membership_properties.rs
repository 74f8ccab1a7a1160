//! Property-based and invariant tests across crates: quorum arithmetic,
//! overlay surgery, walk uniformity and collector behaviour under arbitrary
//! inputs.

use atum::crypto::Digest;
use atum::overlay::{is_carrier, GroupMessageCollector, HGraph, VgroupDirectory};
use atum::types::{Composition, NodeId, SmrMode, VgroupId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synchronous and asynchronous fault bounds never exceed the composition
    /// size and satisfy the classic inequalities n > 2f (sync) and n > 3f
    /// (async).
    #[test]
    fn fault_bounds_respect_quorum_inequalities(size in 1usize..200) {
        let comp: Composition = (0..size as u64).map(NodeId::new).collect();
        let f_sync = comp.max_faults(SmrMode::Synchronous);
        let f_async = comp.max_faults(SmrMode::Asynchronous);
        prop_assert!(size > 2 * f_sync);
        prop_assert!(size > 3 * f_async);
        prop_assert!(f_async <= f_sync);
        prop_assert!(comp.majority() > size / 2);
        prop_assert!(comp.majority() <= size);
    }

    /// Splitting a composition by any permutation yields two disjoint halves
    /// that cover the original and differ in size by at most one.
    #[test]
    fn split_partitions_cleanly(size in 2usize..64, seed in 0u64..1000) {
        let comp: Composition = (0..size as u64).map(NodeId::new).collect();
        let mut order: Vec<usize> = (0..size).collect();
        use rand::seq::SliceRandom;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let (a, b) = comp.split_by_order(&order);
        prop_assert_eq!(a.union(&b), comp);
        prop_assert!(a.intersection(&b).is_empty());
        prop_assert!(a.len() >= b.len());
        prop_assert!(a.len() - b.len() <= 1);
    }

    /// H-graph surgery (insert then remove) preserves the structural
    /// invariants and returns to the original vertex set.
    #[test]
    fn hgraph_surgery_preserves_invariants(
        vertices in 2usize..80,
        hc in 1u8..8,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids: Vec<VgroupId> = (0..vertices as u64).map(VgroupId::new).collect();
        let mut graph = HGraph::random(&ids, hc, &mut rng);
        prop_assert!(graph.check_invariants().is_ok());
        prop_assert!(graph.is_connected());

        let new = VgroupId::new(10_000);
        let anchors: Vec<VgroupId> = (0..hc as usize)
            .map(|c| graph.successor(c, ids[0]).unwrap())
            .collect();
        graph.insert(new, &anchors);
        prop_assert!(graph.check_invariants().is_ok());
        prop_assert_eq!(graph.vertex_count(), vertices + 1);

        prop_assert!(graph.remove(new));
        prop_assert!(graph.check_invariants().is_ok());
        prop_assert_eq!(graph.vertices(), ids);
    }

    /// The group-message collector accepts exactly once regardless of the
    /// order in which copies arrive, and never accepts without a majority.
    #[test]
    fn collector_accepts_exactly_once(
        group_size in 1u64..30,
        senders in proptest::collection::vec(0u64..30, 1..120),
    ) {
        let composition: Composition = (0..group_size).map(NodeId::new).collect();
        let mut collector = GroupMessageCollector::new(16);
        let digest = Digest::of(b"payload");
        let mut accepted = 0;
        let mut distinct_members = std::collections::BTreeSet::new();
        for s in senders {
            let sender = NodeId::new(s);
            if composition.contains(sender) {
                distinct_members.insert(sender);
            }
            if collector.observe(VgroupId::new(1), &composition, sender, digest, true) {
                accepted += 1;
                prop_assert!(distinct_members.len() >= composition.majority());
            }
        }
        prop_assert!(accepted <= 1);
        if distinct_members.len() >= composition.majority() {
            prop_assert_eq!(accepted, 1);
        }
    }

    /// The carriers of a group message are ⌈g/2⌉ members that every
    /// majority-sized set of senders intersects (so the copy completing a
    /// quorum never waits for a body), whatever the digest and the ids.
    #[test]
    fn carriers_are_half_the_group_and_meet_every_majority(
        ids in proptest::collection::vec(0u64..1_000_000, 1..21),
        seed in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let composition: Composition = ids.iter().map(|&i| NodeId::new(i)).collect();
        let digest = Digest::of(&seed);
        let g = composition.len();
        let carriers: Vec<NodeId> = composition
            .iter()
            .filter(|&m| is_carrier(&composition, digest, m))
            .collect();
        prop_assert_eq!(carriers.len(), g.div_ceil(2));
        prop_assert_eq!(carriers.len(), g + 1 - composition.majority());
        prop_assert!(carriers.len() > composition.max_faults(SmrMode::Synchronous));
        // Every majority-sized subset holds a carrier: the members that are
        // not carriers are too few to form one.
        prop_assert!(g - carriers.len() < composition.majority());
        // The set is a function of (membership, digest) alone — every
        // member derives it from its own copy of the composition, however
        // that copy was assembled — and outsiders never carry.
        prop_assert!(!is_carrier(&composition, digest, NodeId::new(2_000_000)));
        let peer_view: Composition = ids.iter().rev().map(|&i| NodeId::new(i)).collect();
        let again: Vec<NodeId> = peer_view
            .iter()
            .filter(|&m| is_carrier(&peer_view, digest, m))
            .collect();
        prop_assert_eq!(carriers, again);
    }

    /// Partitioning nodes into vgroups always satisfies the directory
    /// invariants and produces sizes within one of each other.
    #[test]
    fn directory_partition_is_balanced(nodes in 1usize..400, target in 1usize..30, seed in 0u64..100) {
        let ids: Vec<NodeId> = (0..nodes as u64).map(NodeId::new).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dir = VgroupDirectory::partition(&ids, target, &mut rng);
        prop_assert!(dir.check_invariants().is_ok());
        prop_assert_eq!(dir.node_count(), nodes);
        let sizes = dir.sizes();
        let min = sizes.iter().min().copied().unwrap_or(0);
        let max = sizes.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }
}

#[test]
fn recommended_overlay_parameters_sample_uniformly() {
    // The guideline of Figure 4, checked end to end: walks of the
    // recommended length on the recommended density pass the χ² test.
    use atum::sim::is_uniform_99;
    for vgroups in [32usize, 128] {
        let entry = atum::types::recommended_params(vgroups);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ids: Vec<VgroupId> = (0..vgroups as u64).map(VgroupId::new).collect();
        let graph = HGraph::random(&ids, entry.hc, &mut rng);
        let hits = atum::overlay::simulate_walk_hits(
            &graph,
            VgroupId::new(0),
            entry.rwl,
            40 * vgroups,
            &mut rng,
        );
        let counts: Vec<u64> = hits.values().copied().collect();
        assert!(
            is_uniform_99(&counts),
            "recommended rwl {} / hc {} not uniform for {vgroups} vgroups",
            entry.rwl,
            entry.hc
        );
    }
}

// ---------------------------------------------------------------------------
// Model-checker counterexamples pinned as fixed-seed regression tests.
//
// The trace below was found by `crates/mcheck` (BFS over adversarial
// message/timer interleavings of real `AtumNode`s) and replays
// deterministically: same scenario config, same per-node RNG streams, same
// action sequence. If a protocol change breaks a replay, either the fix
// regressed (a verdict flips) or the trace no longer applies (an action is
// reported as stale) — both demand attention, not a blind re-baseline.
//
// Regenerate with:
//   cargo run --release -p atum-mcheck --bin mcheck -- \
//       --scenario torn_link --no-link-repair --depth 2 --trace-out traces/

use atum_mcheck::{Scenario, ScenarioConfig, Trace};

/// The minimal counterexample for the overlay link-surgery hole, exactly as
/// the checker emitted it: after a new group N is spliced between X and B on
/// cycle 0, the `CyclePatch` copies re-pointing B's predecessor from X to N
/// are in flight — one from each of X's four members to each B member.
/// Dropping two of the four copies addressed to B's member n4 leaves only
/// two distinct senders, below the majority (3) of X's composition, so n4's
/// predecessor stays wedged at X forever.
const TORN_LINK_COUNTEREXAMPLE: &str = r#"
{"config":{"scenario":"TornLink","seed":7,"link_repair":false,"drop_budget":2,"dup_budget":1},"property":"links_bidirectional"}
{"Drop":{"from":0,"to":4}}
{"Drop":{"from":1,"to":4}}
"#;

/// With link repair off (the pre-fix protocol), the counterexample replays
/// to a permanently one-directional link: the violation the repair was
/// built against.
#[test]
fn torn_link_counterexample_replays_to_violation_without_repair() {
    let trace = Trace::from_jsonl(TORN_LINK_COUNTEREXAMPLE).expect("embedded trace parses");
    assert_eq!(trace.header.property, "links_bidirectional");
    assert!(!trace.header.config.link_repair);
    let verdicts = trace
        .replay()
        .expect("trace replays against current protocol");
    assert!(
        !verdicts.links_bidirectional,
        "the pre-fix protocol must exhibit the torn link"
    );
    // The damage is contained: the healthy members of B still link back, so
    // the overlay stays connected and group-local agreement is intact.
    assert!(verdicts.cycles_connected);
    assert!(verdicts.epoch_agreement);
}

/// The identical adversarial schedule against the current protocol (link
/// repair on): the probe/confirm exchange detects the one-directional link
/// and re-stitches it before the properties are judged.
#[test]
fn torn_link_counterexample_is_healed_by_link_repair() {
    let mut trace = Trace::from_jsonl(TORN_LINK_COUNTEREXAMPLE).expect("embedded trace parses");
    trace.header.config.link_repair = true;
    let verdicts = trace
        .replay()
        .expect("trace replays against current protocol");
    assert!(
        verdicts.links_bidirectional,
        "link repair must heal the dropped-CyclePatch schedule"
    );
    assert!(verdicts.cycles_connected);
    assert!(verdicts.epoch_agreement);
    assert!(verdicts.broadcast_reach);
}

/// Dropping only *one* patch copy leaves three distinct senders — still a
/// majority of X's four members — so even the pre-fix protocol converges.
/// Pins the exact boundary the counterexample sits on.
#[test]
fn single_dropped_patch_copy_stays_below_the_majority_threshold() {
    let jsonl = concat!(
        r#"{"config":{"scenario":"TornLink","seed":7,"link_repair":false,"drop_budget":2,"dup_budget":1},"property":""}"#,
        "\n",
        r#"{"Drop":{"from":0,"to":4}}"#,
        "\n",
    );
    let trace = Trace::from_jsonl(jsonl).expect("parses");
    let verdicts = trace.replay().expect("replays");
    assert!(verdicts.links_bidirectional);
    assert!(verdicts.epoch_agreement);
}

/// Clean-run witness: the split-racing-join configuration settles with all
/// four invariants intact from the unperturbed initial state.
#[test]
fn split_racing_join_witness_settles_clean() {
    let trace = Trace::new(
        ScenarioConfig::new(Scenario::SplitRacingJoin).with_budgets(1, 1),
        "",
        Vec::new(),
    );
    let verdicts = trace.replay().expect("replays");
    assert!(verdicts.links_bidirectional);
    assert!(verdicts.cycles_connected);
    assert!(verdicts.epoch_agreement);
    assert!(verdicts.broadcast_reach);
}

/// The carrier set rotates with the digest: over 1 000 messages no member
/// of a vgroup ships the body more than twice its fair share of the time.
#[test]
fn carrier_load_is_balanced_across_messages() {
    for g in 1u64..=20 {
        let composition: Composition = (0..g).map(|i| NodeId::new(i * 7 + 3)).collect();
        let mut carried = std::collections::BTreeMap::new();
        for n in 0..1_000u64 {
            let digest = Digest::of(&n.to_le_bytes());
            for m in composition
                .iter()
                .filter(|&m| is_carrier(&composition, digest, m))
            {
                *carried.entry(m).or_insert(0u64) += 1;
            }
        }
        let fair = 1_000 * g.div_ceil(2) / g;
        for (member, count) in carried {
            assert!(
                count <= 2 * fair,
                "member {member} of {g} carried {count} of 1000 (fair share {fair})"
            );
        }
    }
}
