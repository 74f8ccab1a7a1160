//! Ground-truth construction of a standing system: the state a long
//! sequence of joins converges to, built directly so experiments need not
//! run thousands of sequential joins first.
//!
//! Both harnesses — `atum_sim::ClusterBuilder` on the simulator and
//! `atum_net::NetClusterBuilder` over loopback TCP — seed their members
//! from [`seed_system`], so a given `(seed, n, params)` names the same
//! vgroups and the same overlay on either substrate.

use crate::member::Configuration;
use atum_crypto::KeyRegistry;
use atum_overlay::{CycleNeighbors, HGraph, NeighborTable, VgroupDirectory};
use atum_types::{Composition, NodeId, Params, VgroupId};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A seeded system's ground truth plus what each member starts from.
#[derive(Debug)]
pub struct SeededSystem {
    /// Keys of the members and of the spare identities (later joiners).
    pub registry: Arc<KeyRegistry>,
    /// Ground-truth vgroup membership.
    pub directory: VgroupDirectory,
    /// Ground-truth overlay.
    pub hgraph: HGraph,
    /// Per member, in vgroup order: its id and its vgroup's configuration
    /// at epoch 0 — the arguments of
    /// [`AtumNode::with_membership`](crate::AtumNode::with_membership).
    pub nodes: Vec<(NodeId, Configuration)>,
}

/// Partitions nodes `0..members` into vgroups of `group_size` (default:
/// midway between `gmin` and `gmax`), draws a random H-graph over them and
/// registers keys for `0..members + spare` under `seed`.
///
/// Draws from `rng` in a fixed order — partition, then overlay — and leaves
/// the stream to the caller, so fixed-seed trajectories are reproducible.
///
/// # Panics
///
/// Panics when `members` is zero or `params` is invalid.
pub fn seed_system(
    members: usize,
    spare: usize,
    group_size: Option<usize>,
    params: &Params,
    seed: u64,
    rng: &mut ChaCha8Rng,
) -> SeededSystem {
    assert!(members > 0, "a cluster needs at least one node");
    params.validate().expect("invalid Atum parameters");

    let mut registry = KeyRegistry::new();
    for i in 0..(members + spare) as u64 {
        registry.register(NodeId::new(i), seed);
    }
    let ids: Vec<NodeId> = (0..members as u64).map(NodeId::new).collect();
    let group_size = group_size.unwrap_or((params.gmin + params.gmax) / 2).max(1);
    let directory = VgroupDirectory::partition(&ids, group_size, rng);
    let group_ids = directory.group_ids();
    let hgraph = HGraph::random(&group_ids, params.hc, rng);

    let composition_of = |group: VgroupId| -> Composition {
        directory.composition(group).expect("group exists").clone()
    };
    let mut nodes = Vec::with_capacity(members);
    for &group in &group_ids {
        // The vgroup's local neighbour table, read off the ground truth.
        let mut table = NeighborTable::new(params.hc);
        for cycle in 0..params.hc as usize {
            let pred = hgraph.predecessor(cycle, group).expect("member of graph");
            let succ = hgraph.successor(cycle, group).expect("member of graph");
            table.set_cycle(
                cycle,
                CycleNeighbors {
                    predecessor: pred,
                    predecessor_composition: composition_of(pred),
                    successor: succ,
                    successor_composition: composition_of(succ),
                },
            );
        }
        let config = Configuration {
            vgroup: group,
            composition: composition_of(group),
            neighbors: table,
            epoch: 0,
        };
        nodes.extend(config.composition.iter().map(|id| (id, config.clone())));
    }
    SeededSystem {
        registry: registry.shared(),
        directory,
        hgraph,
        nodes,
    }
}
