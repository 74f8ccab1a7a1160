//! Construction of standing Atum systems for experiments.
//!
//! Experiments that measure steady-state behaviour (broadcast latency,
//! AShare reads, AStream dissemination) need a system of N nodes already
//! organised into vgroups and an overlay — the state a long sequence of joins
//! converges to. [`ClusterBuilder`] constructs that state directly from
//! ground truth (`VgroupDirectory` + `HGraph`) and instantiates one
//! [`AtumNode`] per node on the simulator. Growth and churn experiments use
//! the real `join`/`leave` protocol on top of such a cluster (or from a
//! single bootstrap node).

use atum_core::{seed_system, Application, AtumMessage, AtumNode, ByzantineBehavior};
use atum_crypto::KeyRegistry;
use atum_overlay::{HGraph, VgroupDirectory};
use atum_simnet::{NetConfig, Simulation};
use atum_types::{BroadcastId, Duration, NodeId, Params};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A standing Atum system hosted on the simulator.
pub struct Cluster<A: Application> {
    /// The simulation hosting every node.
    pub sim: Simulation<AtumMessage, AtumNode<A>>,
    /// Ground-truth vgroup membership at construction time.
    pub directory: VgroupDirectory,
    /// Ground-truth overlay at construction time.
    pub hgraph: HGraph,
    /// Nodes marked Byzantine (heartbeat-only).
    pub byzantine: Vec<NodeId>,
    /// The shared key registry (covers spare identities for later joiners).
    pub registry: Arc<KeyRegistry>,
    /// The system parameters every node was configured with.
    pub params: Params,
    /// Identifiers of the initial members, sorted.
    pub initial_nodes: Vec<NodeId>,
}

// Manual so `A` needs no `Debug` bound.
impl<A: Application> std::fmt::Debug for Cluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("sim", &self.sim)
            .field("byzantine", &self.byzantine)
            .field("params", &self.params)
            .field("initial_nodes", &self.initial_nodes)
            .finish_non_exhaustive()
    }
}

impl<A: Application> Cluster<A> {
    /// Correct (non-Byzantine) initial members.
    pub fn correct_nodes(&self) -> Vec<NodeId> {
        self.initial_nodes
            .iter()
            .copied()
            .filter(|n| !self.byzantine.contains(n))
            .collect()
    }

    /// Number of nodes that currently consider themselves members (all
    /// hosted nodes, including joiners added after construction).
    pub fn member_count(&self) -> usize {
        self.sim
            .node_ids()
            .into_iter()
            .filter(|&id| self.sim.node(id).map(|n| n.is_member()).unwrap_or(false))
            .count()
    }

    /// Runs the simulation until at least `target` nodes are members or
    /// `timeout` of *simulated* time elapses; returns the final member
    /// count. Mirrors `NetCluster::wait_for_members`, which polls the wall
    /// clock instead.
    pub fn wait_for_members(&mut self, target: usize, timeout: Duration) -> usize {
        let deadline = self.sim.now() + timeout;
        loop {
            let count = self.member_count();
            if count >= target || self.sim.now() >= deadline {
                return count;
            }
            self.sim.run_for(Duration::from_millis(100));
        }
    }

    /// Broadcasts `payload` from `origin` and returns the broadcast
    /// identifier (for latency correlation), or `None` when the origin is
    /// unknown or not a member. Mirrors `NetCluster::broadcast_tracked`.
    ///
    /// `Simulation::call` is *scheduled*, not immediate, so this advances
    /// the simulation by one millisecond to execute the closure.
    pub fn broadcast_tracked(&mut self, origin: NodeId, payload: Vec<u8>) -> Option<BroadcastId> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.sim.call(origin, move |n, ctx| {
            let _ = tx.send(n.broadcast(payload, ctx).ok());
        });
        self.sim.run_for(Duration::from_millis(1));
        rx.try_recv().ok().flatten()
    }
}

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n: usize,
    params: Params,
    net: NetConfig,
    seed: u64,
    byzantine: usize,
    target_group_size: Option<usize>,
    spare_identities: usize,
}

impl ClusterBuilder {
    /// Starts a builder for a system of `n` nodes.
    pub fn new(n: usize) -> Self {
        ClusterBuilder {
            n,
            params: Params::default(),
            net: NetConfig::lan(),
            seed: 42,
            byzantine: 0,
            target_group_size: None,
            spare_identities: 0,
        }
    }

    /// Sets the Atum parameters used by every node.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Sets the network profile.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the random seed (drives partitioning, the overlay and the
    /// simulator).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Marks `count` randomly chosen nodes as Byzantine (heartbeat-only).
    pub fn byzantine(mut self, count: usize) -> Self {
        self.byzantine = count;
        self
    }

    /// Overrides the initial vgroup size (default: midway between `gmin` and
    /// `gmax`).
    pub fn group_size(mut self, size: usize) -> Self {
        self.target_group_size = Some(size);
        self
    }

    /// Registers `count` additional identities (node ids `n..n+count`) in the
    /// key registry so growth/churn experiments can add new nodes later.
    pub fn spare_identities(mut self, count: usize) -> Self {
        self.spare_identities = count;
        self
    }

    /// Builds the cluster, creating each node's application with `make_app`.
    pub fn build<A: Application, F: FnMut(NodeId) -> A>(self, mut make_app: F) -> Cluster<A> {
        let ClusterBuilder {
            n,
            params,
            net,
            seed,
            byzantine,
            target_group_size,
            spare_identities,
        } = self;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let system = seed_system(
            n,
            spare_identities,
            target_group_size,
            &params,
            seed,
            &mut rng,
        );

        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
        // Shuffled on the stream the partition and the overlay drew from.
        let mut byz_nodes: Vec<NodeId> = nodes.clone();
        byz_nodes.shuffle(&mut rng);
        byz_nodes.truncate(byzantine.min(n));
        byz_nodes.sort_unstable();

        let mut sim: Simulation<AtumMessage, AtumNode<A>> = Simulation::new(net, seed);
        for (node_id, config) in system.nodes {
            let mut node = AtumNode::with_membership(
                node_id,
                params.clone(),
                system.registry.clone(),
                make_app(node_id),
                config,
            );
            if byz_nodes.contains(&node_id) {
                node.set_byzantine(ByzantineBehavior::HeartbeatOnly);
            }
            sim.add_node(node_id, node);
        }

        Cluster {
            sim,
            directory: system.directory,
            hgraph: system.hgraph,
            byzantine: byz_nodes,
            registry: system.registry,
            params,
            initial_nodes: nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::CollectingApp;
    use atum_types::Duration;

    #[test]
    fn builder_creates_consistent_ground_truth() {
        let params = Params::default()
            .with_group_bounds(3, 10)
            .with_overlay(3, 6);
        let cluster = ClusterBuilder::new(60)
            .params(params)
            .seed(7)
            .byzantine(5)
            .build(|_| CollectingApp::new());
        assert_eq!(cluster.initial_nodes.len(), 60);
        assert_eq!(cluster.byzantine.len(), 5);
        assert_eq!(cluster.correct_nodes().len(), 55);
        cluster.directory.check_invariants().unwrap();
        cluster.hgraph.check_invariants().unwrap();
        assert_eq!(
            cluster.hgraph.vertex_count(),
            cluster.directory.group_count()
        );
        assert_eq!(cluster.member_count(), 60);
    }

    #[test]
    fn broadcast_on_built_cluster_reaches_correct_nodes() {
        let params = Params::default()
            .with_group_bounds(2, 8)
            .with_overlay(3, 5)
            .with_round(Duration::from_millis(250));
        let mut cluster = ClusterBuilder::new(30)
            .params(params)
            .seed(3)
            .build(|_| CollectingApp::new());
        let origin = cluster.initial_nodes[4];
        cluster.sim.call(origin, |n, ctx| {
            n.broadcast(b"cluster-wide".to_vec(), ctx).unwrap();
        });
        cluster.sim.run_for(Duration::from_secs(40));
        let mut delivered = 0;
        for id in cluster.correct_nodes() {
            let node = cluster.sim.node(id).unwrap();
            if node
                .app()
                .delivered_payloads()
                .iter()
                .any(|p| p == b"cluster-wide")
            {
                delivered += 1;
            }
        }
        assert_eq!(delivered, cluster.correct_nodes().len());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_is_rejected() {
        ClusterBuilder::new(0).build(|_| CollectingApp::new());
    }

    #[test]
    fn tracked_broadcast_returns_an_id_and_delivers() {
        // The unified harness surface: `wait_for_members` +
        // `broadcast_tracked` behave like their NetCluster counterparts.
        let params = Params::default()
            .with_group_bounds(2, 8)
            .with_overlay(3, 5)
            .with_round(Duration::from_millis(250));
        let mut cluster = ClusterBuilder::new(12)
            .params(params)
            .seed(8)
            .build(|_| CollectingApp::new());
        assert_eq!(cluster.wait_for_members(12, Duration::from_secs(1)), 12);
        let origin = cluster.initial_nodes[2];
        let id = cluster
            .broadcast_tracked(origin, b"tracked".to_vec())
            .expect("origin is a member");
        assert_eq!(id.origin, origin);
        cluster.sim.run_for(Duration::from_secs(40));
        for node_id in cluster.correct_nodes() {
            let node = cluster.sim.node(node_id).unwrap();
            assert!(node
                .app()
                .delivered_payloads()
                .iter()
                .any(|p| p == b"tracked"));
        }
    }
}
