//! The H-graph: a multigraph over vgroups made of `hc` random Hamiltonian
//! cycles, plus the per-vgroup neighbour tables nodes actually hold.

use atum_types::{Composition, VgroupId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The global cycle structure (ground truth).
///
/// Every vertex is a vgroup; every cycle is a circular permutation of all
/// vertices. The same pair of vgroups may be adjacent on several cycles (it
/// is a multigraph). `HGraph` is used directly by the graph-level experiments
/// (Figure 4) and by the simulation harness to bootstrap systems and to check
/// invariants; protocol code only sees local [`NeighborTable`]s derived from
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HGraph {
    /// `cycles[c]` is the cyclic order of vgroups on cycle `c`.
    cycles: Vec<Vec<VgroupId>>,
}

impl HGraph {
    /// Builds an H-graph with `hc` random Hamiltonian cycles over `vertices`.
    ///
    /// # Panics
    ///
    /// Panics if `hc` is zero or `vertices` is empty.
    pub fn random<R: Rng + ?Sized>(vertices: &[VgroupId], hc: u8, rng: &mut R) -> Self {
        assert!(hc > 0, "an H-graph needs at least one cycle");
        assert!(!vertices.is_empty(), "an H-graph needs at least one vertex");
        let mut cycles = Vec::with_capacity(hc as usize);
        for _ in 0..hc {
            let mut order = vertices.to_vec();
            order.shuffle(rng);
            cycles.push(order);
        }
        HGraph { cycles }
    }

    /// Builds the trivial H-graph of a freshly bootstrapped system: a single
    /// vgroup that is its own neighbour on every cycle.
    pub fn bootstrap(vgroup: VgroupId, hc: u8) -> Self {
        assert!(hc > 0);
        HGraph {
            cycles: vec![vec![vgroup]; hc as usize],
        }
    }

    /// Number of cycles (`hc`).
    pub fn cycle_count(&self) -> usize {
        self.cycles.len()
    }

    /// Number of vertices (vgroups).
    pub fn vertex_count(&self) -> usize {
        self.cycles[0].len()
    }

    /// All vertices, sorted.
    pub fn vertices(&self) -> Vec<VgroupId> {
        let mut v = self.cycles[0].clone();
        v.sort_unstable();
        v
    }

    /// `true` when `vgroup` is a vertex of this graph.
    pub fn contains(&self, vgroup: VgroupId) -> bool {
        self.cycles[0].contains(&vgroup)
    }

    fn position(&self, cycle: usize, vgroup: VgroupId) -> Option<usize> {
        self.cycles[cycle].iter().position(|&v| v == vgroup)
    }

    /// The successor of `vgroup` on `cycle`.
    pub fn successor(&self, cycle: usize, vgroup: VgroupId) -> Option<VgroupId> {
        let pos = self.position(cycle, vgroup)?;
        let order = &self.cycles[cycle];
        Some(order[(pos + 1) % order.len()])
    }

    /// The predecessor of `vgroup` on `cycle`.
    pub fn predecessor(&self, cycle: usize, vgroup: VgroupId) -> Option<VgroupId> {
        let pos = self.position(cycle, vgroup)?;
        let order = &self.cycles[cycle];
        Some(order[(pos + order.len() - 1) % order.len()])
    }

    /// Every distinct neighbour of `vgroup` across all cycles (excluding
    /// itself unless it is the only vertex).
    pub fn neighbors(&self, vgroup: VgroupId) -> BTreeSet<VgroupId> {
        let mut out = BTreeSet::new();
        for c in 0..self.cycle_count() {
            if let (Some(p), Some(s)) = (self.predecessor(c, vgroup), self.successor(c, vgroup)) {
                out.insert(p);
                out.insert(s);
            }
        }
        if self.vertex_count() > 1 {
            out.remove(&vgroup);
        }
        out
    }

    /// Inserts `new` on every cycle. On cycle `c`, the new vertex is placed
    /// immediately after `after[c]` (which must be an existing vertex).
    ///
    /// This is the overlay surgery performed by a vgroup split: the splitting
    /// group runs one random walk per cycle, and each selected vgroup inserts
    /// the new group between itself and its successor (§3.3.2).
    ///
    /// # Panics
    ///
    /// Panics if `after.len()` differs from the cycle count, if `new` is
    /// already a vertex, or if any anchor is unknown.
    pub fn insert(&mut self, new: VgroupId, after: &[VgroupId]) {
        assert_eq!(after.len(), self.cycle_count(), "one anchor per cycle");
        assert!(!self.contains(new), "vertex already present");
        for (c, anchor) in after.iter().enumerate() {
            let pos = self
                .position(c, *anchor)
                .expect("anchor must be an existing vertex");
            self.cycles[c].insert(pos + 1, new);
        }
    }

    /// Removes `vgroup` from every cycle, bridging its predecessor and
    /// successor (the merge surgery of §3.3.3). Returns `false` if the vertex
    /// was not present or is the last remaining vertex.
    pub fn remove(&mut self, vgroup: VgroupId) -> bool {
        if !self.contains(vgroup) || self.vertex_count() == 1 {
            return false;
        }
        for c in 0..self.cycle_count() {
            let pos = self.position(c, vgroup).expect("checked contains");
            self.cycles[c].remove(pos);
        }
        true
    }

    /// The degree of a vertex: number of distinct neighbours.
    pub fn degree(&self, vgroup: VgroupId) -> usize {
        self.neighbors(vgroup).len()
    }

    /// Breadth-first eccentricity of `from` (longest shortest-path distance
    /// to any other vertex), used to check the logarithmic-diameter property.
    pub fn eccentricity(&self, from: VgroupId) -> usize {
        let mut dist: BTreeMap<VgroupId, usize> = BTreeMap::new();
        dist.insert(from, 0);
        let mut frontier = vec![from];
        let mut max = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for v in frontier {
                let d = dist[&v];
                for n in self.neighbors(v) {
                    if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(n) {
                        e.insert(d + 1);
                        max = max.max(d + 1);
                        next.push(n);
                    }
                }
            }
            frontier = next;
        }
        max
    }

    /// `true` when the graph is connected (single vertex counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        let mut dist = BTreeSet::new();
        let start = self.cycles[0][0];
        dist.insert(start);
        let mut frontier = vec![start];
        while let Some(v) = frontier.pop() {
            for n in self.neighbors(v) {
                if dist.insert(n) {
                    frontier.push(n);
                }
            }
        }
        dist.len() == self.vertex_count()
    }

    /// Checks structural invariants: every cycle visits every vertex exactly
    /// once and all cycles agree on the vertex set.
    pub fn check_invariants(&self) -> Result<(), String> {
        let reference: BTreeSet<VgroupId> = self.cycles[0].iter().copied().collect();
        if reference.len() != self.cycles[0].len() {
            return Err("cycle 0 visits a vertex twice".to_string());
        }
        for (i, cycle) in self.cycles.iter().enumerate() {
            let set: BTreeSet<VgroupId> = cycle.iter().copied().collect();
            if set.len() != cycle.len() {
                return Err(format!("cycle {i} visits a vertex twice"));
            }
            if set != reference {
                return Err(format!(
                    "cycle {i} disagrees with cycle 0 on the vertex set"
                ));
            }
        }
        Ok(())
    }
}

/// The neighbours of one vgroup on one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleNeighbors {
    /// The predecessor vgroup on this cycle.
    pub predecessor: VgroupId,
    /// Its composition, as last communicated.
    pub predecessor_composition: Composition,
    /// The successor vgroup on this cycle.
    pub successor: VgroupId,
    /// Its composition, as last communicated.
    pub successor_composition: Composition,
}

atum_types::wire_codec!(CycleNeighbors {
    predecessor,
    predecessor_composition,
    successor,
    successor_composition,
});

/// A vgroup's local view of the overlay: its neighbours on every cycle.
///
/// This is part of the replicated state of every vgroup (each pair of
/// connected vgroups informs each other of any composition change, §3.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NeighborTable {
    per_cycle: Vec<Option<CycleNeighbors>>,
}

impl NeighborTable {
    /// Creates an empty table for `hc` cycles.
    pub fn new(hc: u8) -> Self {
        NeighborTable {
            per_cycle: vec![None; hc as usize],
        }
    }

    /// Creates the table of a bootstrapped single-vgroup system, where the
    /// vgroup is its own neighbour on every cycle.
    pub fn self_loop(hc: u8, own: VgroupId, composition: Composition) -> Self {
        let entry = CycleNeighbors {
            predecessor: own,
            predecessor_composition: composition.clone(),
            successor: own,
            successor_composition: composition,
        };
        NeighborTable {
            per_cycle: vec![Some(entry); hc as usize],
        }
    }

    /// Number of cycles this table covers.
    pub fn cycle_count(&self) -> usize {
        self.per_cycle.len()
    }

    /// Neighbours on a cycle, if known.
    pub fn cycle(&self, cycle: usize) -> Option<&CycleNeighbors> {
        self.per_cycle.get(cycle).and_then(|c| c.as_ref())
    }

    /// Sets the neighbours of a cycle.
    pub fn set_cycle(&mut self, cycle: usize, neighbors: CycleNeighbors) {
        if cycle < self.per_cycle.len() {
            self.per_cycle[cycle] = Some(neighbors);
        }
    }

    /// Every distinct neighbouring vgroup with its composition (successors
    /// and predecessors over all cycles).
    pub fn distinct_neighbors(&self) -> BTreeMap<VgroupId, Composition> {
        let mut out = BTreeMap::new();
        for entry in self.per_cycle.iter().flatten() {
            out.insert(entry.predecessor, entry.predecessor_composition.clone());
            out.insert(entry.successor, entry.successor_composition.clone());
        }
        out
    }

    /// Updates every occurrence of `vgroup` with a new composition (applied
    /// when a neighbour announces a reconfiguration).
    pub fn update_composition(&mut self, vgroup: VgroupId, composition: &Composition) {
        for entry in self.per_cycle.iter_mut().flatten() {
            if entry.predecessor == vgroup {
                entry.predecessor_composition = composition.clone();
            }
            if entry.successor == vgroup {
                entry.successor_composition = composition.clone();
            }
        }
    }

    /// Points one side of `cycle` at `group`: the successor when
    /// `successor`, else the predecessor. Returns `false`, changing
    /// nothing, when the cycle has no entry.
    pub fn set_side(
        &mut self,
        cycle: usize,
        successor: bool,
        group: VgroupId,
        composition: Composition,
    ) -> bool {
        let Some(Some(entry)) = self.per_cycle.get_mut(cycle) else {
            return false;
        };
        if successor {
            (entry.successor, entry.successor_composition) = (group, composition);
        } else {
            (entry.predecessor, entry.predecessor_composition) = (group, composition);
        }
        true
    }

    /// The composition of `vgroup` if it appears anywhere in the table.
    pub fn composition_of(&self, vgroup: VgroupId) -> Option<&Composition> {
        for entry in self.per_cycle.iter().flatten() {
            if entry.predecessor == vgroup {
                return Some(&entry.predecessor_composition);
            }
            if entry.successor == vgroup {
                return Some(&entry.successor_composition);
            }
        }
        None
    }

    /// `true` when the table has an entry for every cycle.
    pub fn is_complete(&self) -> bool {
        self.per_cycle.iter().all(|c| c.is_some())
    }
}

// Each per-cycle slot is at least its one-byte presence tag.
atum_types::wire_codec!(NeighborTable { per_cycle: seq(1) });

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(n: u64) -> Vec<VgroupId> {
        (0..n).map(VgroupId::new).collect()
    }

    #[test]
    fn random_hgraph_has_valid_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = HGraph::random(&ids(50), 4, &mut rng);
        assert_eq!(g.cycle_count(), 4);
        assert_eq!(g.vertex_count(), 50);
        g.check_invariants().unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn bootstrap_graph_is_a_self_loop() {
        let g = HGraph::bootstrap(VgroupId::new(7), 3);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.successor(0, VgroupId::new(7)), Some(VgroupId::new(7)));
        assert_eq!(g.predecessor(2, VgroupId::new(7)), Some(VgroupId::new(7)));
        assert!(g.neighbors(VgroupId::new(7)).contains(&VgroupId::new(7)));
        assert!(g.is_connected());
    }

    #[test]
    fn successor_predecessor_are_inverse() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = HGraph::random(&ids(20), 3, &mut rng);
        for c in 0..3 {
            for v in g.vertices() {
                let s = g.successor(c, v).unwrap();
                assert_eq!(g.predecessor(c, s), Some(v));
            }
        }
    }

    #[test]
    fn degree_is_bounded_by_two_per_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let hc = 5u8;
        let g = HGraph::random(&ids(100), hc, &mut rng);
        for v in g.vertices() {
            let d = g.degree(v);
            assert!(d >= 1 && d <= 2 * hc as usize, "degree {d}");
        }
    }

    #[test]
    fn diameter_is_logarithmic_ish() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = HGraph::random(&ids(256), 4, &mut rng);
        // log2(256) = 8; the eccentricity of a random vertex should be small.
        let ecc = g.eccentricity(VgroupId::new(0));
        assert!(ecc <= 10, "eccentricity {ecc} too large for an expander");
    }

    #[test]
    fn insert_places_vertex_after_anchor_on_every_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut g = HGraph::random(&ids(10), 3, &mut rng);
        let new = VgroupId::new(100);
        let anchors: Vec<VgroupId> = (0..3)
            .map(|c| g.successor(c, VgroupId::new(0)).unwrap())
            .collect();
        g.insert(new, &anchors);
        g.check_invariants().unwrap();
        assert_eq!(g.vertex_count(), 11);
        for (c, anchor) in anchors.iter().enumerate() {
            assert_eq!(g.successor(c, *anchor), Some(new));
        }
    }

    #[test]
    fn remove_bridges_the_gap() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut g = HGraph::random(&ids(10), 2, &mut rng);
        let victim = VgroupId::new(4);
        let pred: Vec<VgroupId> = (0..2).map(|c| g.predecessor(c, victim).unwrap()).collect();
        let succ: Vec<VgroupId> = (0..2).map(|c| g.successor(c, victim).unwrap()).collect();
        assert!(g.remove(victim));
        g.check_invariants().unwrap();
        assert!(!g.contains(victim));
        for c in 0..2 {
            assert_eq!(g.successor(c, pred[c]), Some(succ[c]));
        }
        // Removing again fails.
        assert!(!g.remove(victim));
    }

    #[test]
    fn remove_refuses_last_vertex() {
        let mut g = HGraph::bootstrap(VgroupId::new(1), 2);
        assert!(!g.remove(VgroupId::new(1)));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn insert_rejects_duplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut g = HGraph::random(&ids(5), 2, &mut rng);
        let anchors = vec![VgroupId::new(0), VgroupId::new(1)];
        g.insert(VgroupId::new(3), &anchors);
    }

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn neighbor_table_self_loop_and_updates() {
        let own = VgroupId::new(1);
        let mut t = NeighborTable::self_loop(3, own, comp(&[1, 2, 3]));
        assert!(t.is_complete());
        assert_eq!(t.cycle_count(), 3);
        assert_eq!(t.distinct_neighbors().len(), 1);

        // A neighbour announces a new composition.
        t.update_composition(own, &comp(&[1, 2, 3, 4]));
        assert_eq!(t.composition_of(own).unwrap().len(), 4);

        // Re-point cycle 1's successor; an unknown cycle is left alone.
        assert!(t.set_side(1, true, VgroupId::new(9), comp(&[7])));
        assert!(!t.set_side(3, true, VgroupId::new(9), comp(&[7])));
        assert_eq!(t.cycle(1).unwrap().successor, VgroupId::new(9));
        assert_eq!(t.cycle(1).unwrap().predecessor, own);
        assert_eq!(t.cycle(0).unwrap().successor, own);
        assert_eq!(t.distinct_neighbors().len(), 2);
    }

    #[test]
    fn empty_neighbor_table_is_incomplete() {
        let t = NeighborTable::new(4);
        assert!(!t.is_complete());
        assert!(t.cycle(0).is_none());
        assert!(t.cycle(10).is_none());
        assert!(t.composition_of(VgroupId::new(1)).is_none());
        assert!(t.distinct_neighbors().is_empty());
    }

    #[test]
    fn set_cycle_out_of_range_is_ignored() {
        let mut t = NeighborTable::new(2);
        let entry = CycleNeighbors {
            predecessor: VgroupId::new(1),
            predecessor_composition: comp(&[1]),
            successor: VgroupId::new(2),
            successor_composition: comp(&[2]),
        };
        t.set_cycle(5, entry.clone());
        assert!(!t.is_complete());
        t.set_cycle(0, entry.clone());
        t.set_cycle(1, entry);
        assert!(t.is_complete());
    }
}
