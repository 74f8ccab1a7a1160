//! Random walks over the H-graph: the sampling primitive behind random walk
//! shuffling and split-anchor selection.
//!
//! A walk of length `rwl` starts at some vgroup and is relayed `rwl` times,
//! each time over a uniformly random incident overlay link. The vgroup where
//! it stops is the selected sample. Of the practical aspects of §5.1 this
//! implements:
//!
//! * **Bulk RNG** — all `rwl` random numbers are generated when the walk is
//!   created and carried with it, so no forwarding vgroup needs distributed
//!   random number generation and a Byzantine node cannot bias decisions by
//!   draining a pre-computed pool.
//! * **A direct answer** — the selected vgroup acts on the walk's
//!   [`WalkPurpose`] itself, and answers the origin, when the purpose needs
//!   an answer, with a majority-accepted group message to the
//!   `origin_composition` the walk carries.
//!
//! Neither of §5.1's two ways back to the origin is implemented: a walk
//! records no visited path for a backward phase, and carries no certificate
//! chain.

use crate::hgraph::HGraph;
use atum_types::{
    Composition, NodeId, VgroupId, WalkId, WireDecode, WireEncode, WireError, WireReader,
    WireWriter,
};
use rand::Rng;
use std::collections::BTreeMap;

/// Why a walk was started; the selected vgroup interprets the result
/// accordingly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WalkPurpose {
    /// Find the vgroup that will host a joining node.
    JoinPlacement {
        /// The joining node.
        joiner: NodeId,
    },
    /// Find an exchange partner for one member during a shuffle.
    ShuffleExchange {
        /// The member of the shuffling vgroup to be exchanged.
        member: NodeId,
    },
    /// Find the anchor vgroup after which a freshly split-off vgroup is
    /// inserted on one cycle.
    SplitAnchor {
        /// The cycle the anchor is for.
        cycle: u8,
        /// The new vgroup being inserted.
        new_group: VgroupId,
        /// The new vgroup's composition (so the anchor can introduce it to
        /// its former successor and vice versa).
        composition: Composition,
    },
}

atum_types::wire_codec!(WalkPurpose, "walk-purpose tag" {
    0 => JoinPlacement { joiner },
    1 => ShuffleExchange { member },
    2 => SplitAnchor { cycle, new_group, composition },
    // Tag 3 was a plain sample that no vgroup acted on: retired.
});

/// The state carried by a random walk message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkState {
    /// Identifier of the walk: the vgroup that started it, and a sequence
    /// number.
    pub id: WalkId,
    /// What the walk is for.
    pub purpose: WalkPurpose,
    /// The origin's composition at walk start, which the selected vgroup
    /// answers.
    pub origin_composition: Composition,
    /// Remaining steps before the walk stops.
    pub remaining: u8,
    /// Pre-generated random numbers, one per step (§5.1 bulk RNG).
    pub rng_values: Vec<u64>,
}

impl WireEncode for WalkState {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.id.wire_encode(w);
        self.purpose.wire_encode(w);
        self.origin_composition.wire_encode(w);
        w.put_u8(self.remaining);
        w.put_seq(&self.rng_values);
    }
}

impl WireDecode for WalkState {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = WalkId::wire_decode(r)?;
        let purpose = WalkPurpose::wire_decode(r)?;
        let origin_composition = Composition::wire_decode(r)?;
        let remaining = r.take_u8()?;
        let rng_values: Vec<u64> = r.take_seq(8)?;
        // `current_rng` indexes `rng_values[len - remaining]`: reject
        // encodings that would panic.
        if (remaining as usize) > rng_values.len() {
            return Err(WireError::Malformed("walk remaining exceeds bulk RNG pool"));
        }
        Ok(WalkState {
            id,
            purpose,
            origin_composition,
            remaining,
            rng_values,
        })
    }
}

impl WalkState {
    /// Creates a new walk of length `rwl`, drawing the bulk random numbers
    /// from `rng`.
    pub fn new<R: Rng + ?Sized>(
        id: WalkId,
        purpose: WalkPurpose,
        origin_composition: Composition,
        rwl: u8,
        rng: &mut R,
    ) -> Self {
        let rng_values = (0..rwl).map(|_| rng.gen::<u64>()).collect();
        WalkState {
            id,
            purpose,
            origin_composition,
            remaining: rwl,
            rng_values,
        }
    }

    /// `true` when the walk has no steps left (the current holder is the
    /// selected vgroup).
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// The bulk random number to use for the next forwarding decision.
    pub fn current_rng(&self) -> Option<u64> {
        if self.is_complete() {
            None
        } else {
            let idx = self.rng_values.len() - self.remaining as usize;
            self.rng_values.get(idx).copied()
        }
    }

    /// Consumes one step.
    ///
    /// # Panics
    ///
    /// Panics if the walk is already complete.
    pub fn advance(&mut self) {
        assert!(!self.is_complete(), "walk already complete");
        self.remaining -= 1;
    }

    /// Chooses a link index among `total` incident links, re-routing around
    /// links the forwarding member knows are dead (`eligible` lists the
    /// others). The *primary* choice is `rng % total` — a pure function of
    /// the walk's bulk RNG, identical at every member regardless of local
    /// knowledge — and is kept whenever it is eligible (or nothing is), so
    /// members can only ever disagree about a hop whose primary target is
    /// locally known to have dissolved. Copies forwarded to a dissolved
    /// vgroup are lost regardless (no member is left there to relay them),
    /// so the deviation replaces guaranteed-dead copies with copies that
    /// agree on one deterministic alternative; it never splits a live hop.
    ///
    /// Returns `None` when the walk is complete or `total` is zero.
    pub fn choose_link_index(&self, total: usize, eligible: &[usize]) -> Option<usize> {
        if total == 0 {
            return None;
        }
        let r = self.current_rng()?;
        let primary = (r % total as u64) as usize;
        if eligible.is_empty() || eligible.contains(&primary) {
            Some(primary)
        } else {
            Some(eligible[(r % eligible.len() as u64) as usize])
        }
    }
}

/// Graph-level simulation used by the Figure 4 guideline: runs `walks` random
/// walks of length `rwl` starting from `start` and counts where they stop.
pub fn simulate_walk_hits<R: Rng + ?Sized>(
    graph: &HGraph,
    start: VgroupId,
    rwl: u8,
    walks: usize,
    rng: &mut R,
) -> BTreeMap<VgroupId, u64> {
    let mut hits: BTreeMap<VgroupId, u64> = BTreeMap::new();
    for v in graph.vertices() {
        hits.insert(v, 0);
    }
    for _ in 0..walks {
        let mut here = start;
        for _ in 0..rwl {
            // One step: pick a random incident link (2 per cycle).
            let cycle = rng.gen_range(0..graph.cycle_count());
            let forward: bool = rng.gen();
            here = if forward {
                graph.successor(cycle, here)
            } else {
                graph.predecessor(cycle, here)
            }
            .expect("walk stays on the graph");
        }
        *hits.entry(here).or_insert(0) += 1;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A placement walk of length `rwl` from vgroup 1, its RNG seeded with
    /// `seed`.
    fn walk(seed: u64, rwl: u8) -> WalkState {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        WalkState::new(
            WalkId::new(VgroupId::new(1), 0),
            WalkPurpose::JoinPlacement {
                joiner: NodeId::new(9),
            },
            [1, 2, 3].into_iter().map(NodeId::new).collect(),
            rwl,
            &mut rng,
        )
    }

    #[test]
    fn walk_state_lifecycle() {
        let mut walk = walk(1, 3);
        assert_eq!(walk.rng_values.len(), 3);
        assert!(!walk.is_complete());

        let r0 = walk.current_rng().unwrap();
        walk.advance();
        let r1 = walk.current_rng().unwrap();
        assert_ne!(r0, r1, "bulk RNG values should differ step to step");
        walk.advance();
        walk.advance();
        assert!(walk.is_complete());
        assert_eq!(walk.current_rng(), None);
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn advance_past_completion_panics() {
        let mut walk = walk(2, 1);
        walk.advance();
        walk.advance();
    }

    #[test]
    fn link_choice_keeps_primary_unless_it_is_dead() {
        let walk = walk(6, 4);
        let total = 6usize;
        let primary = (walk.current_rng().unwrap() % total as u64) as usize;
        // The primary choice is used when eligible, and when the member has
        // no departed-set knowledge at all — so members with and without
        // that knowledge agree on every live hop.
        assert_eq!(walk.choose_link_index(total, &[]), Some(primary));
        let all: Vec<usize> = (0..total).collect();
        assert_eq!(walk.choose_link_index(total, &all), Some(primary));
        // Only when the primary target is known-dead does the choice move,
        // deterministically, into the eligible subset.
        let eligible: Vec<usize> = (0..total).filter(|&i| i != primary).collect();
        let rerouted = walk.choose_link_index(total, &eligible).unwrap();
        assert_ne!(rerouted, primary);
        assert!(eligible.contains(&rerouted));
        assert_eq!(walk.choose_link_index(0, &[]), None);
    }

    #[test]
    fn graph_walks_cover_the_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let vertices: Vec<VgroupId> = (0..32).map(VgroupId::new).collect();
        let graph = HGraph::random(&vertices, 4, &mut rng);
        let hits = simulate_walk_hits(&graph, VgroupId::new(0), 10, 5_000, &mut rng);
        assert_eq!(hits.len(), 32);
        let total: u64 = hits.values().sum();
        assert_eq!(total, 5_000);
        // With rwl=10 on a dense small graph, every vertex should be hit.
        let unvisited = hits.values().filter(|&&c| c == 0).count();
        assert_eq!(unvisited, 0);
    }

    #[test]
    fn short_walks_are_visibly_non_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let vertices: Vec<VgroupId> = (0..64).map(VgroupId::new).collect();
        let graph = HGraph::random(&vertices, 2, &mut rng);
        let hits = simulate_walk_hits(&graph, VgroupId::new(0), 1, 10_000, &mut rng);
        // A walk of length 1 can only reach direct neighbours of the start.
        let reachable = hits.values().filter(|&&c| c > 0).count();
        assert!(reachable <= 2 * 2 + 1, "reachable {reachable}");
    }
}
