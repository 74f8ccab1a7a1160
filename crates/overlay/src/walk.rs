//! Random walks over the H-graph: the sampling primitive behind random walk
//! shuffling and split-anchor selection.
//!
//! A walk of length `rwl` starts at some vgroup and is relayed `rwl` times,
//! each time over a uniformly random incident overlay link. The vgroup where
//! it stops is the selected sample. Two practical aspects from §5.1 are
//! modelled here:
//!
//! * **Bulk RNG** — all `rwl` random numbers are generated when the walk is
//!   created and carried with it, so no forwarding vgroup needs distributed
//!   random number generation and a Byzantine node cannot bias decisions by
//!   draining a pre-computed pool.
//! * **Certificates vs. backward phase** — the walk carries both the visited
//!   path (enough for the backward phase used by the synchronous deployment)
//!   and, optionally, a [`WalkCertificate`] chain (used by the asynchronous
//!   deployment) in which each forwarding vgroup signs the identity of the
//!   vgroup it forwarded to.

use crate::hgraph::HGraph;
use atum_crypto::{Digest, KeyRegistry, NodeSigner, Signature};
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
    /// Plain sampling (used by tests and by applications that need a random
    /// vgroup).
    Sample,
}

impl WireEncode for WalkPurpose {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        match self {
            WalkPurpose::JoinPlacement { joiner } => {
                w.put_u8(0);
                joiner.wire_encode(w);
            }
            WalkPurpose::ShuffleExchange { member } => {
                w.put_u8(1);
                member.wire_encode(w);
            }
            WalkPurpose::SplitAnchor {
                cycle,
                new_group,
                composition,
            } => {
                w.put_u8(2);
                w.put_u8(*cycle);
                new_group.wire_encode(w);
                composition.wire_encode(w);
            }
            WalkPurpose::Sample => w.put_u8(3),
        }
    }
}

impl WireDecode for WalkPurpose {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => WalkPurpose::JoinPlacement {
                joiner: NodeId::wire_decode(r)?,
            },
            1 => WalkPurpose::ShuffleExchange {
                member: NodeId::wire_decode(r)?,
            },
            2 => WalkPurpose::SplitAnchor {
                cycle: r.take_u8()?,
                new_group: VgroupId::wire_decode(r)?,
                composition: Composition::wire_decode(r)?,
            },
            3 => WalkPurpose::Sample,
            _ => return Err(WireError::Malformed("walk-purpose tag")),
        })
    }
}

/// One step of a walk certificate: the forwarding vgroup attests which vgroup
/// it forwarded the walk to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertStep {
    /// The vgroup the walk was forwarded to.
    pub to: VgroupId,
    /// That vgroup's composition, as known by the forwarder.
    pub to_composition: Composition,
    /// Signatures by members of the *forwarding* vgroup over this step.
    pub signatures: Vec<(NodeId, Signature)>,
}

impl WireEncode for CertStep {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.to.wire_encode(w);
        self.to_composition.wire_encode(w);
        w.put_seq(&self.signatures);
    }
}

impl WireDecode for CertStep {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CertStep {
            to: VgroupId::wire_decode(r)?,
            to_composition: Composition::wire_decode(r)?,
            // Each signature entry is a NodeId (8) + a 32-byte tag.
            signatures: r.take_seq(40)?,
        })
    }
}

/// A chain of [`CertStep`]s proving the path a walk took.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkCertificate {
    steps: Vec<CertStep>,
}

impl WalkCertificate {
    /// An empty certificate (walk not yet forwarded).
    pub fn new() -> Self {
        WalkCertificate { steps: Vec::new() }
    }

    /// Number of certified steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when no step has been certified yet.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The digest a forwarding vgroup's members sign for a step.
    pub fn step_digest(walk: WalkId, index: usize, to: VgroupId, to_comp: &Composition) -> Digest {
        let mut parts: Vec<Vec<u8>> = vec![
            b"walk-cert".to_vec(),
            walk.origin.raw().to_be_bytes().to_vec(),
            walk.seq.to_be_bytes().to_vec(),
            (index as u64).to_be_bytes().to_vec(),
            to.raw().to_be_bytes().to_vec(),
        ];
        for m in to_comp.iter() {
            parts.push(m.raw().to_be_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        Digest::of_parts(&refs)
    }

    /// Appends a step signed by `signers` (members of the forwarding vgroup).
    pub fn push_step(
        &mut self,
        walk: WalkId,
        to: VgroupId,
        to_composition: Composition,
        signers: &[NodeSigner],
    ) {
        let digest = Self::step_digest(walk, self.steps.len(), to, &to_composition);
        let signatures = signers
            .iter()
            .map(|s| (s.node(), s.sign_digest(&digest)))
            .collect();
        self.steps.push(CertStep {
            to,
            to_composition,
            signatures,
        });
    }

    /// Verifies the chain: step 0 must be signed by a majority of
    /// `origin_composition`; step *i* (> 0) by a majority of the composition
    /// certified in step *i − 1*.
    ///
    /// Returns the final vgroup and its composition when valid.
    pub fn verify(
        &self,
        walk: WalkId,
        registry: &KeyRegistry,
        origin_composition: &Composition,
    ) -> Option<(VgroupId, Composition)> {
        let mut expected_signers = origin_composition.clone();
        for (index, step) in self.steps.iter().enumerate() {
            let digest = Self::step_digest(walk, index, step.to, &step.to_composition);
            let mut valid = 0usize;
            let mut seen: Vec<NodeId> = Vec::new();
            for (node, sig) in &step.signatures {
                if seen.contains(node) || !expected_signers.contains(*node) {
                    continue;
                }
                if registry.verify_digest(*node, &digest, sig) {
                    seen.push(*node);
                    valid += 1;
                }
            }
            if valid < expected_signers.majority() {
                return None;
            }
            expected_signers = step.to_composition.clone();
        }
        self.steps.last().map(|s| (s.to, s.to_composition.clone()))
    }
}

impl WireEncode for WalkCertificate {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_seq(&self.steps);
    }
}

impl WireDecode for WalkCertificate {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // A step is at minimum a VgroupId (8) + two empty length prefixes.
        let steps = r.take_seq(16)?;
        Ok(WalkCertificate { steps })
    }
}

/// The state carried by a random walk message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkState {
    /// Identifier of the walk (origin vgroup + sequence number).
    pub id: WalkId,
    /// What the walk is for.
    pub purpose: WalkPurpose,
    /// The vgroup that started the walk.
    pub origin: VgroupId,
    /// Its composition at walk start (lets the selected vgroup answer
    /// directly in the certificate style, or the backward phase find its way
    /// home).
    pub origin_composition: Composition,
    /// Remaining steps before the walk stops.
    pub remaining: u8,
    /// Pre-generated random numbers, one per remaining step (§5.1 bulk RNG).
    pub rng_values: Vec<u64>,
    /// Vgroups visited so far, in order (origin first); the backward phase
    /// retraces this path.
    pub path: Vec<VgroupId>,
    /// Certificate chain (used by the asynchronous implementation).
    pub certificate: WalkCertificate,
}

impl WireEncode for WalkState {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.id.wire_encode(w);
        self.purpose.wire_encode(w);
        self.origin.wire_encode(w);
        self.origin_composition.wire_encode(w);
        w.put_u8(self.remaining);
        w.put_seq(&self.rng_values);
        w.put_seq(&self.path);
        self.certificate.wire_encode(w);
    }
}

impl WireDecode for WalkState {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = WalkId::wire_decode(r)?;
        let purpose = WalkPurpose::wire_decode(r)?;
        let origin = VgroupId::wire_decode(r)?;
        let origin_composition = Composition::wire_decode(r)?;
        let remaining = r.take_u8()?;
        let rng_values: Vec<u64> = r.take_seq(8)?;
        let path: Vec<VgroupId> = r.take_seq(8)?;
        let certificate = WalkCertificate::wire_decode(r)?;
        // `current()` expects a non-empty path, and `current_rng` indexes
        // `rng_values[len - remaining]`: reject encodings that would panic.
        if path.is_empty() {
            return Err(WireError::Malformed("walk path must contain the origin"));
        }
        if (remaining as usize) > rng_values.len() {
            return Err(WireError::Malformed("walk remaining exceeds bulk RNG pool"));
        }
        Ok(WalkState {
            id,
            purpose,
            origin,
            origin_composition,
            remaining,
            rng_values,
            path,
            certificate,
        })
    }
}

impl WalkState {
    /// Creates a new walk of length `rwl`, drawing the bulk random numbers
    /// from `rng`.
    pub fn new<R: Rng + ?Sized>(
        id: WalkId,
        purpose: WalkPurpose,
        origin: VgroupId,
        origin_composition: Composition,
        rwl: u8,
        rng: &mut R,
    ) -> Self {
        let rng_values = (0..rwl).map(|_| rng.gen::<u64>()).collect();
        WalkState {
            id,
            purpose,
            origin,
            origin_composition,
            remaining: rwl,
            rng_values,
            path: vec![origin],
            certificate: WalkCertificate::new(),
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

    /// Consumes one step: record that the walk moved to `next`.
    ///
    /// # Panics
    ///
    /// Panics if the walk is already complete.
    pub fn advance(&mut self, next: VgroupId) {
        assert!(!self.is_complete(), "walk already complete");
        self.remaining -= 1;
        self.path.push(next);
    }

    /// The vgroup currently holding the walk.
    pub fn current(&self) -> VgroupId {
        *self.path.last().expect("path always contains the origin")
    }

    /// Chooses the next hop among `neighbors` using the walk's own bulk RNG
    /// (deterministic given the walk state). Returns `None` when the walk is
    /// complete or there is no neighbour.
    pub fn choose_next(&self, neighbors: &[VgroupId]) -> Option<VgroupId> {
        if neighbors.is_empty() {
            return None;
        }
        let r = self.current_rng()?;
        Some(neighbors[(r % neighbors.len() as u64) as usize])
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

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn walk_state_lifecycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let id = WalkId::new(VgroupId::new(1), 0);
        let mut walk = WalkState::new(
            id,
            WalkPurpose::Sample,
            VgroupId::new(1),
            comp(&[1, 2, 3]),
            3,
            &mut rng,
        );
        assert_eq!(walk.rng_values.len(), 3);
        assert!(!walk.is_complete());
        assert_eq!(walk.current(), VgroupId::new(1));

        let r0 = walk.current_rng().unwrap();
        walk.advance(VgroupId::new(2));
        let r1 = walk.current_rng().unwrap();
        assert_ne!(r0, r1, "bulk RNG values should differ step to step");
        walk.advance(VgroupId::new(3));
        walk.advance(VgroupId::new(4));
        assert!(walk.is_complete());
        assert_eq!(walk.current(), VgroupId::new(4));
        assert_eq!(walk.current_rng(), None);
        assert_eq!(walk.path.len(), 4);
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn advance_past_completion_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut walk = WalkState::new(
            WalkId::new(VgroupId::new(1), 0),
            WalkPurpose::Sample,
            VgroupId::new(1),
            comp(&[1]),
            1,
            &mut rng,
        );
        walk.advance(VgroupId::new(2));
        walk.advance(VgroupId::new(3));
    }

    #[test]
    fn choose_next_is_deterministic_given_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let walk = WalkState::new(
            WalkId::new(VgroupId::new(1), 7),
            WalkPurpose::Sample,
            VgroupId::new(1),
            comp(&[1]),
            5,
            &mut rng,
        );
        let neighbors = vec![VgroupId::new(10), VgroupId::new(11), VgroupId::new(12)];
        assert_eq!(walk.choose_next(&neighbors), walk.choose_next(&neighbors));
        assert_eq!(walk.choose_next(&[]), None);
    }

    #[test]
    fn link_choice_keeps_primary_unless_it_is_dead() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let walk = WalkState::new(
            WalkId::new(VgroupId::new(1), 0),
            WalkPurpose::Sample,
            VgroupId::new(1),
            comp(&[1]),
            4,
            &mut rng,
        );
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
    fn certificate_chain_verifies_and_detects_tampering() {
        let mut registry = KeyRegistry::new();
        for i in 0..9 {
            registry.register(NodeId::new(i), 5);
        }
        let origin_comp = comp(&[0, 1, 2]);
        let mid_comp = comp(&[3, 4, 5]);
        let final_comp = comp(&[6, 7, 8]);
        let walk_id = WalkId::new(VgroupId::new(1), 3);

        let mut cert = WalkCertificate::new();
        // Step 0: origin vgroup {0,1,2} forwards to vgroup 2 (members 3,4,5).
        let signers: Vec<NodeSigner> = [0, 1]
            .iter()
            .map(|i| registry.signer(NodeId::new(*i)).unwrap())
            .collect();
        cert.push_step(walk_id, VgroupId::new(2), mid_comp.clone(), &signers);
        // Step 1: vgroup 2 forwards to vgroup 3 (members 6,7,8).
        let signers: Vec<NodeSigner> = [3, 4]
            .iter()
            .map(|i| registry.signer(NodeId::new(*i)).unwrap())
            .collect();
        cert.push_step(walk_id, VgroupId::new(3), final_comp.clone(), &signers);

        let (selected, selected_comp) = cert.verify(walk_id, &registry, &origin_comp).unwrap();
        assert_eq!(selected, VgroupId::new(3));
        assert_eq!(selected_comp, final_comp);

        // Tampering with the final composition invalidates the chain.
        let mut tampered = cert.clone();
        tampered.steps[1].to_composition = comp(&[6, 7, 8, 9]);
        assert!(tampered.verify(walk_id, &registry, &origin_comp).is_none());

        // A chain signed by too few members fails.
        let mut thin = WalkCertificate::new();
        let signers: Vec<NodeSigner> = vec![registry.signer(NodeId::new(0)).unwrap()]; // 1 of 3 < majority
        thin.push_step(walk_id, VgroupId::new(2), mid_comp, &signers);
        assert!(thin.verify(walk_id, &registry, &origin_comp).is_none());

        // Wrong walk id fails.
        assert!(cert
            .verify(WalkId::new(VgroupId::new(1), 4), &registry, &origin_comp)
            .is_none());
    }

    #[test]
    fn empty_certificate_verifies_to_none() {
        let registry = KeyRegistry::new();
        let cert = WalkCertificate::new();
        assert!(cert.is_empty());
        assert!(cert
            .verify(WalkId::new(VgroupId::new(1), 0), &registry, &comp(&[1]))
            .is_none());
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
