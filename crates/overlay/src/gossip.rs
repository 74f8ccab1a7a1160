//! Gossip planning: which neighbours a vgroup forwards a broadcast to.
//!
//! The second phase of `broadcast` (§3.3.4) disseminates a message across the
//! H-graph. The paper lets the application decide, per neighbour, whether to
//! forward; here that choice is one of the policies of
//! [`GossipPolicy`]:
//!
//! * `Flood` — forward along every cycle in both directions (lowest latency);
//! * `Cycles(k)` — forward along the first `k` cycles only (AStream's
//!   "Single" and "Double" configurations);
//! * `Random { percent }` — forward to each neighbour with a given
//!   probability, but always along cycle 0 so delivery stays deterministic.

use crate::fifo_set::{FifoSet, Inserted};
use atum_types::{BroadcastId, GossipPolicy};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A direction along a Hamiltonian cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards the successor.
    Successor,
    /// Towards the predecessor.
    Predecessor,
}

/// One forwarding target: a cycle and a direction on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ForwardTarget {
    /// Cycle index (0-based, `< hc`).
    pub cycle: u8,
    /// Direction on that cycle.
    pub direction: Direction,
}

/// Computes forwarding plans according to a policy.
#[derive(Debug, Clone, Default)]
pub struct GossipPlanner;

impl GossipPlanner {
    /// Returns the set of (cycle, direction) pairs a vgroup should forward a
    /// freshly delivered broadcast along.
    pub fn plan<R: Rng + ?Sized>(policy: GossipPolicy, hc: u8, rng: &mut R) -> Vec<ForwardTarget> {
        const BOTH: [Direction; 2] = [Direction::Successor, Direction::Predecessor];
        // The cycles used whole: all of them under `Flood`, and cycle 0
        // always, so delivery stays deterministic.
        let whole = match policy {
            GossipPolicy::Flood => hc,
            GossipPolicy::Cycles(k) => k.min(hc),
            GossipPolicy::Random { .. } => 1,
        };
        let mut out: Vec<ForwardTarget> = (0..whole)
            .flat_map(|cycle| BOTH.map(|direction| ForwardTarget { cycle, direction }))
            .collect();
        if let GossipPolicy::Random { percent } = policy {
            // The other links are probabilistic.
            for cycle in 1..hc {
                for direction in BOTH {
                    if rng.gen_range(0..100u8) < percent.min(100) {
                        out.push(ForwardTarget { cycle, direction });
                    }
                }
            }
        }
        out
    }
}

/// Bounded memory of which broadcasts a vgroup has already delivered, so
/// duplicates arriving over other links are not delivered or re-forwarded.
///
/// The ids live in one ring in the order they were delivered, found through
/// a hashed index; `Debug` renders the ring, once as a sorted set and once
/// in eviction order, and the model checker fingerprints that.
#[derive(Clone)]
pub struct SeenCache {
    order: FifoSet<BroadcastId>,
}

impl fmt::Debug for SeenCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seen: BTreeSet<&BroadcastId> = self.order.iter().collect();
        f.debug_struct("SeenCache")
            .field("seen", &seen)
            .field("order", &self.order)
            .field("limit", &self.order.limit())
            .finish()
    }
}

impl Default for SeenCache {
    fn default() -> Self {
        SeenCache::new(1)
    }
}

impl SeenCache {
    /// Creates a cache remembering up to `limit` broadcast identifiers,
    /// clamped to `1..=65 536`.
    pub fn new(limit: usize) -> Self {
        SeenCache {
            order: FifoSet::new(limit),
        }
    }

    /// Records a broadcast. Returns `true` if it was new.
    pub fn insert(&mut self, id: BroadcastId) -> bool {
        matches!(self.order.insert(id), Inserted::Added { .. })
    }

    /// `true` when the broadcast has been seen (and is still remembered).
    pub fn contains(&self, id: BroadcastId) -> bool {
        self.order.find(&id).is_some()
    }

    /// Number of remembered broadcasts.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::VecDeque;

    #[test]
    fn flood_plan_covers_all_cycles_both_directions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plan = GossipPlanner::plan(GossipPolicy::Flood, 5, &mut rng);
        assert_eq!(plan.len(), 10);
        let cycles: BTreeSet<u8> = plan.iter().map(|t| t.cycle).collect();
        assert_eq!(cycles.len(), 5);
    }

    #[test]
    fn cycles_plan_limits_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let single = GossipPlanner::plan(GossipPolicy::Cycles(1), 5, &mut rng);
        assert_eq!(single.len(), 2);
        assert!(single.iter().all(|t| t.cycle == 0));
        let double = GossipPlanner::plan(GossipPolicy::Cycles(2), 5, &mut rng);
        assert_eq!(double.len(), 4);
        // Requesting more cycles than exist is clamped.
        let clamped = GossipPlanner::plan(GossipPolicy::Cycles(9), 3, &mut rng);
        assert_eq!(clamped.len(), 6);
    }

    #[test]
    fn random_plan_always_includes_cycle_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for percent in [0u8, 30, 100] {
            let plan = GossipPlanner::plan(GossipPolicy::Random { percent }, 6, &mut rng);
            assert!(plan
                .iter()
                .any(|t| t.cycle == 0 && t.direction == Direction::Successor));
            assert!(plan
                .iter()
                .any(|t| t.cycle == 0 && t.direction == Direction::Predecessor));
            if percent == 0 {
                assert_eq!(plan.len(), 2);
            }
            if percent == 100 {
                assert_eq!(plan.len(), 12);
            }
        }
    }

    #[test]
    fn random_plan_probability_is_roughly_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut extra = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            let plan = GossipPlanner::plan(GossipPolicy::Random { percent: 50 }, 3, &mut rng);
            extra += plan.len() - 2;
        }
        // 4 optional links at 50 % each → expected 2 per trial.
        let mean = extra as f64 / trials as f64;
        assert!((1.7..2.3).contains(&mean), "mean {mean}");
    }

    /// The model checker fingerprints this rendering: the remembered ids
    /// as a sorted set, then in eviction order, then the limit.
    #[test]
    fn seen_cache_rendering_is_pinned() {
        let mut cache = SeenCache::new(3);
        for (origin, seq) in [(2, 0), (1, 5), (2, 1), (1, 5), (1, 0), (3, 9)] {
            cache.insert(BroadcastId::new(NodeId::new(origin), seq));
        }
        let pinned = concat!(
            "SeenCache { seen: {",
            "BroadcastId { origin: NodeId(1), seq: 0 }, ",
            "BroadcastId { origin: NodeId(2), seq: 1 }, ",
            "BroadcastId { origin: NodeId(3), seq: 9 }",
            "}, order: [",
            "BroadcastId { origin: NodeId(2), seq: 1 }, ",
            "BroadcastId { origin: NodeId(1), seq: 0 }, ",
            "BroadcastId { origin: NodeId(3), seq: 9 }",
            "], limit: 3 }",
        );
        assert_eq!(format!("{cache:?}"), pinned);
    }

    #[test]
    fn seen_cache_dedups_and_bounds_memory() {
        let mut cache = SeenCache::new(3);
        assert!(cache.is_empty());
        let ids: Vec<BroadcastId> = (0..5)
            .map(|i| BroadcastId::new(NodeId::new(1), i))
            .collect();
        for id in &ids {
            assert!(cache.insert(*id));
            assert!(!cache.insert(*id));
        }
        assert_eq!(cache.len(), 3);
        assert!(!cache.contains(ids[0]));
        assert!(!cache.contains(ids[1]));
        assert!(cache.contains(ids[4]));
    }

    #[test]
    fn a_full_cache_finds_every_id_within_short_probes() {
        let mut cache = SeenCache::new(usize::MAX);
        let ids: Vec<BroadcastId> = (0..65_536u64)
            .map(|i| BroadcastId::new(NodeId::new(i % 97), i / 97))
            .collect();
        for &id in &ids {
            assert!(cache.insert(id));
        }
        assert_eq!(cache.len(), 65_536);
        assert!(ids.iter().all(|&id| cache.contains(id)));
        // A home bucket taken from too few hash bits crowds the keys into
        // part of the table, and the runs grow into the thousands; with the
        // whole hash, 300 fills read at most 59.
        let longest = cache.order.longest_probe();
        assert!(longest <= 128, "longest probe {longest}");
        // One more id evicts the oldest.
        assert!(cache.insert(BroadcastId::new(NodeId::new(1), u64::MAX)));
        assert!(!cache.contains(ids[0]) && cache.contains(ids[1]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Inserts and lookups over a small id space at limits 1–64: every
        /// answer and `len` equal a plain ring's, through evictions.
        #[test]
        fn seen_cache_matches_a_plain_ring(
            limit in 1usize..=64,
            steps in proptest::collection::vec(0u64..192, 1..400),
        ) {
            let mut cache = SeenCache::new(limit);
            let mut model: VecDeque<BroadcastId> = VecDeque::new();
            for s in steps {
                let (i, insert) = (s / 2, s % 2 == 0);
                let id = BroadcastId::new(NodeId::new(i % 3), i / 3);
                let known = model.contains(&id);
                if insert {
                    proptest::prop_assert_eq!(cache.insert(id), !known);
                    if !known {
                        if model.len() == limit {
                            model.pop_front();
                        }
                        model.push_back(id);
                    }
                } else {
                    proptest::prop_assert_eq!(cache.contains(id), known);
                }
                proptest::prop_assert_eq!(cache.len(), model.len());
                cache.order.longest_probe();
            }
        }
    }
}
