//! A ground-truth directory of vgroups and their members.
//!
//! Protocol code never sees this structure — every node only knows its own
//! vgroup and its neighbours. The seeders use the directory to bootstrap
//! systems without executing thousands of sequential joins, and tests use it
//! to check global invariants (every node in exactly one vgroup, sizes within
//! bounds, ...).

use atum_types::{Composition, NodeId, VgroupId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ground-truth vgroup membership.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VgroupDirectory {
    groups: BTreeMap<VgroupId, Composition>,
    node_to_group: BTreeMap<NodeId, VgroupId>,
    next_group: u64,
}

impl VgroupDirectory {
    /// Creates an empty directory.
    fn new() -> Self {
        VgroupDirectory::default()
    }

    /// Creates a directory by partitioning `nodes` into vgroups of
    /// approximately `target_size` members each, shuffled randomly.
    ///
    /// # Panics
    ///
    /// Panics if `target_size` is zero.
    pub fn partition<R: Rng + ?Sized>(nodes: &[NodeId], target_size: usize, rng: &mut R) -> Self {
        assert!(target_size > 0, "target size must be positive");
        let mut dir = VgroupDirectory::new();
        if nodes.is_empty() {
            return dir;
        }
        let mut shuffled = nodes.to_vec();
        shuffled.shuffle(rng);
        let group_count = (nodes.len() / target_size).max(1);
        let mut chunks: Vec<Vec<NodeId>> = vec![Vec::new(); group_count];
        for (i, node) in shuffled.into_iter().enumerate() {
            chunks[i % group_count].push(node);
        }
        for chunk in chunks {
            dir.create_group(chunk.into_iter().collect());
        }
        dir
    }

    /// Allocates a fresh vgroup identifier.
    fn allocate_id(&mut self) -> VgroupId {
        let id = VgroupId::new(self.next_group);
        self.next_group += 1;
        id
    }

    /// Creates a group with the given composition and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if any member already belongs to another group.
    fn create_group(&mut self, composition: Composition) -> VgroupId {
        let id = self.allocate_id();
        for node in composition.iter() {
            assert!(
                !self.node_to_group.contains_key(&node),
                "{node} already belongs to a vgroup"
            );
            self.node_to_group.insert(node, id);
        }
        self.groups.insert(id, composition);
        id
    }

    /// Number of vgroups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of nodes across all vgroups.
    pub fn node_count(&self) -> usize {
        self.node_to_group.len()
    }

    /// All vgroup identifiers, sorted.
    pub fn group_ids(&self) -> Vec<VgroupId> {
        self.groups.keys().copied().collect()
    }

    /// The composition of a vgroup.
    pub fn composition(&self, id: VgroupId) -> Option<&Composition> {
        self.groups.get(&id)
    }

    /// Checks global invariants: the node→group index matches the group
    /// compositions exactly, and no group is empty.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, comp) in &self.groups {
            if comp.is_empty() {
                return Err(format!("vgroup {id} is empty"));
            }
            for node in comp.iter() {
                match self.node_to_group.get(&node) {
                    Some(g) if *g == *id => {}
                    Some(g) => return Err(format!("{node} indexed under {g} but listed in {id}")),
                    None => return Err(format!("{node} listed in {id} but not indexed")),
                }
            }
        }
        for (node, group) in &self.node_to_group {
            match self.groups.get(group) {
                Some(comp) if comp.contains(*node) => {}
                _ => return Err(format!("{node} indexed under missing/incorrect {group}")),
            }
        }
        Ok(())
    }

    /// Group sizes, for distribution checks.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.values().map(Composition::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn partition_covers_all_nodes_with_reasonable_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let dir = VgroupDirectory::partition(&nodes(100), 8, &mut rng);
        dir.check_invariants().unwrap();
        assert_eq!(dir.node_count(), 100);
        assert_eq!(dir.group_count(), 12);
        for size in dir.sizes() {
            assert!((8..=9).contains(&size), "size {size}");
        }
    }

    #[test]
    fn partition_with_fewer_nodes_than_target_creates_one_group() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let dir = VgroupDirectory::partition(&nodes(3), 10, &mut rng);
        assert_eq!(dir.group_count(), 1);
        assert_eq!(dir.node_count(), 3);
        let empty = VgroupDirectory::partition(&[], 10, &mut rng);
        assert_eq!(empty.group_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already belongs")]
    fn double_membership_is_rejected() {
        let mut dir = VgroupDirectory::new();
        dir.create_group(nodes(3).into_iter().collect());
        dir.create_group(nodes(2).into_iter().collect());
    }

    #[test]
    fn invariant_detects_empty_group() {
        let mut dir = VgroupDirectory::new();
        dir.create_group(Composition::new());
        assert!(dir.check_invariants().is_err());
    }

    #[test]
    fn allocate_id_is_monotonic() {
        let mut dir = VgroupDirectory::new();
        let a = dir.allocate_id();
        let b = dir.allocate_id();
        assert!(b > a);
        let g = dir.create_group(nodes(2).into_iter().collect());
        assert!(g > b);
    }
}
