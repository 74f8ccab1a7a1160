//! In-process loopback clusters: the TCP runtime's analogue of
//! `atum_sim::ClusterBuilder`.
//!
//! A [`NetCluster`] hosts every node in this process on a small fixed pool
//! of [`NetRuntime`]s (one by default — one listener, one reactor thread),
//! all sharing one [`AddressBook`] and one wall-clock epoch. Like the
//! simulator harness it seeds a standing system directly from ground truth
//! (`VgroupDirectory` + `HGraph`) and then grows it with the *real* join
//! protocol — except here "real" means real sockets: every contact
//! round-trip, placement walk, welcome quorum and heartbeat crosses TCP.
//!
//! Because a runtime multiplexes all of its nodes over non-blocking
//! sockets, the process runs one thread per runtime no matter how
//! many nodes the cluster holds — this is what lets the `net_scale` bench
//! stand up 1000+ socket-backed nodes in one process.

use crate::reactor::{NetRuntime, NodeHandle};
use crate::runtime::{AddressBook, RuntimeConfig, RuntimeStats};
use atum_core::{seed_system, Application, AtumMessage, AtumNode};
use atum_crypto::KeyRegistry;
use atum_obs::Snapshot;
use atum_types::{NodeId, Params};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

/// [`RuntimeStats`] over the merged registries of every runtime of a
/// cluster: counters and histograms summed, peaks maxed (so `threads` is
/// the number of runtimes, independent of the node count).
pub type AggregateStats = RuntimeStats;

/// Builder for [`NetCluster`].
#[derive(Debug, Clone)]
pub struct NetClusterBuilder {
    seeded: usize,
    joiners: usize,
    params: Params,
    seed: u64,
    group_size: Option<usize>,
    runtime: RuntimeConfig,
    runtimes: usize,
}

impl NetClusterBuilder {
    /// A cluster seeded with `seeded` standing members; `joiners` further
    /// idle nodes are spawned for growth via the join protocol.
    pub fn new(seeded: usize, joiners: usize) -> Self {
        NetClusterBuilder {
            seeded,
            joiners,
            params: Params::default(),
            seed: 42,
            group_size: None,
            runtime: RuntimeConfig::default(),
            runtimes: 1,
        }
    }

    /// Sets the Atum parameters used by every node.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Sets the seed driving vgroup partitioning, the overlay and node RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.runtime.seed = seed;
        self
    }

    /// Overrides the initial vgroup size (default: midway between `gmin` and
    /// `gmax`).
    pub fn group_size(mut self, size: usize) -> Self {
        self.group_size = Some(size);
        self
    }

    /// Overrides the runtime tuning knobs (applied to every runtime; the
    /// `listen`, `book` and `epoch` fields are managed by the builder).
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// How many [`NetRuntime`]s (each a listener + its reactor thread) the
    /// cluster spreads its nodes over, round-robin. Default 1: the whole
    /// cluster on one reactor thread.
    pub fn runtimes(mut self, runtimes: usize) -> Self {
        self.runtimes = runtimes.max(1);
        self
    }

    /// Builds and starts the cluster, creating each node's application with
    /// `make_app`.
    ///
    /// # Panics
    ///
    /// Panics when a listener cannot be bound or the parameters are invalid.
    pub fn build<A, F>(self, mut make_app: F) -> NetCluster<A>
    where
        A: Application + Send + 'static,
        F: FnMut(NodeId) -> A,
    {
        let NetClusterBuilder {
            seeded,
            joiners,
            params,
            seed,
            group_size,
            runtime,
            runtimes: n_runtimes,
        } = self;
        let system = seed_system(
            seeded,
            joiners,
            group_size,
            &params,
            seed,
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let registry = system.registry;

        let book = AddressBook::new();
        let epoch = StdInstant::now();
        let runtimes: Vec<NetRuntime<AtumMessage, AtumNode<A>>> = (0..n_runtimes)
            .map(|_| {
                NetRuntime::bind(RuntimeConfig {
                    listen: "127.0.0.1:0".parse().expect("loopback bind address"),
                    book: book.clone(),
                    epoch: Some(epoch),
                    ..runtime.clone()
                })
                .expect("bind loopback listener")
            })
            .collect();
        let mut next_runtime = 0usize;
        let mut host = |id: NodeId, node: AtumNode<A>| -> NodeHandle<AtumMessage, AtumNode<A>> {
            let handle = runtimes[next_runtime].host(id, node);
            next_runtime = (next_runtime + 1) % runtimes.len();
            handle
        };

        let mut handles = BTreeMap::new();
        for (node_id, config) in system.nodes {
            let node = AtumNode::with_membership(
                node_id,
                params.clone(),
                registry.clone(),
                make_app(node_id),
                config,
            );
            handles.insert(node_id, host(node_id, node));
        }
        let joiner_ids: Vec<NodeId> = (seeded as u64..(seeded + joiners) as u64)
            .map(NodeId::new)
            .collect();
        for &node_id in &joiner_ids {
            let node = AtumNode::new(node_id, params.clone(), registry.clone(), make_app(node_id));
            handles.insert(node_id, host(node_id, node));
        }

        NetCluster {
            runtimes,
            handles,
            book,
            params,
            registry,
            seeded: (0..seeded as u64).map(NodeId::new).collect(),
            joiners: joiner_ids,
            epoch,
        }
    }
}

/// A standing Atum system running over loopback TCP.
pub struct NetCluster<A: Application + Send + 'static> {
    runtimes: Vec<NetRuntime<AtumMessage, AtumNode<A>>>,
    handles: BTreeMap<NodeId, NodeHandle<AtumMessage, AtumNode<A>>>,
    /// The shared node-address directory.
    pub book: AddressBook,
    /// The parameters every node runs with.
    pub params: Params,
    /// The shared key registry.
    pub registry: Arc<KeyRegistry>,
    /// Identifiers of the pre-formed members.
    pub seeded: Vec<NodeId>,
    /// Identifiers of the nodes spawned idle for protocol-driven growth.
    pub joiners: Vec<NodeId>,
    epoch: StdInstant,
}

// Manual so `A` needs no `Debug` bound.
impl<A: Application + Send + 'static> std::fmt::Debug for NetCluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCluster")
            .field("nodes", &self.handles.len())
            .field("runtimes", &self.runtimes.len())
            .field("params", &self.params)
            .field("seeded", &self.seeded)
            .field("joiners", &self.joiners)
            .finish_non_exhaustive()
    }
}

impl<A: Application + Send + 'static> NetCluster<A> {
    /// Every node identifier, sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.handles.keys().copied().collect()
    }

    /// Handle of one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeHandle<AtumMessage, AtumNode<A>>> {
        self.handles.get(&id)
    }

    /// Wall-clock elapsed since the cluster's epoch.
    pub fn elapsed(&self) -> StdDuration {
        self.epoch.elapsed()
    }

    /// Starts a join of `joiner` through `contact` (returns immediately; the
    /// protocol runs over the sockets).
    pub fn join(&self, joiner: NodeId, contact: NodeId) {
        if let Some(node) = self.handles.get(&joiner) {
            node.call(move |n, ctx| {
                let _ = n.join(contact, ctx);
            });
        }
    }

    /// Broadcasts `payload` from `origin`.
    pub fn broadcast(&self, origin: NodeId, payload: Vec<u8>) {
        if let Some(node) = self.handles.get(&origin) {
            node.call(move |n, ctx| {
                let _ = n.broadcast(payload, ctx);
            });
        }
    }

    /// Broadcasts `payload` from `origin` and returns the broadcast
    /// identifier (for latency correlation), or `None` when the origin is
    /// unknown, not a member, or did not answer within five seconds.
    pub fn broadcast_tracked(
        &self,
        origin: NodeId,
        payload: Vec<u8>,
    ) -> Option<atum_types::BroadcastId> {
        let node = self.handles.get(&origin)?;
        let (tx, rx) = std::sync::mpsc::channel();
        node.call(move |n, ctx| {
            let _ = tx.send(n.broadcast(payload, ctx).ok());
        });
        rx.recv_timeout(StdDuration::from_secs(5)).ok().flatten()
    }

    /// Evaluates `f` on every node (in id order), skipping nodes whose
    /// reactor did not answer.
    pub fn map_nodes<R, F>(&self, f: F) -> Vec<(NodeId, R)>
    where
        R: Send + 'static,
        F: Fn(&AtumNode<A>) -> R + Clone + Send + 'static,
    {
        self.handles
            .iter()
            .filter_map(|(&id, node)| node.with_node(f.clone()).map(|r| (id, r)))
            .collect()
    }

    /// Number of nodes that currently consider themselves members.
    pub fn member_count(&self) -> usize {
        self.map_nodes(|n| n.is_member())
            .into_iter()
            .filter(|&(_, m)| m)
            .count()
    }

    /// Polls until at least `target` nodes are members or `timeout` elapses;
    /// returns the final member count.
    ///
    /// On a miss the harness turns diagnostician: it checks the reactors'
    /// timer-lag peak for CPU starvation (an undersized machine makes
    /// healthy protocol code look broken) and dumps the flight-recorder
    /// rings of the stuck non-member nodes — to stderr, and as JSONL files
    /// under `$ATUM_FLIGHT_DIR` when that is set.
    pub fn wait_for_members(&self, target: usize, timeout: StdDuration) -> usize {
        let deadline = StdInstant::now() + timeout;
        loop {
            let count = self.member_count();
            if count >= target {
                return count;
            }
            if StdInstant::now() >= deadline {
                self.diagnose_missed_target(target, count);
                return count;
            }
            std::thread::sleep(StdDuration::from_millis(100));
        }
    }

    /// Node-timer lag (µs) beyond which a missed membership target is
    /// attributed to CPU starvation rather than a protocol defect: several
    /// whole heartbeat periods of slip.
    pub const STARVATION_TIMER_LAG_US: u64 = 750_000;

    fn diagnose_missed_target(&self, target: usize, count: usize) {
        let stats = self.stats();
        if stats.timer_lag_max_us >= Self::STARVATION_TIMER_LAG_US {
            eprintln!(
                "WARNING: wait_for_members missed its target ({count}/{target}) with a peak \
                 node-timer lag of {}ms — this machine is CPU-starved (reactors cannot keep up \
                 with the timer load), which makes failure detectors fire on healthy nodes. \
                 Rerun against the seed revision on the same machine before blaming a change.",
                stats.timer_lag_max_us / 1_000
            );
        }
        let flight_dir = std::env::var_os("ATUM_FLIGHT_DIR").map(std::path::PathBuf::from);
        let stuck: Vec<NodeId> = self
            .map_nodes(|n| n.is_member())
            .into_iter()
            .filter(|&(_, m)| !m)
            .map(|(id, _)| id)
            .collect();
        for id in stuck {
            let Some(handle) = self.handles.get(&id) else {
                continue;
            };
            let dump = handle.dump_flight();
            if dump.is_empty() {
                continue;
            }
            eprintln!("--- flight recorder dump ({id}, stuck non-member) ---");
            eprint!("{dump}");
            eprintln!("--- end flight recorder dump ({id}) ---");
            if let Some(dir) = &flight_dir {
                if let Err(err) = std::fs::create_dir_all(dir)
                    .and_then(|_| std::fs::write(dir.join(format!("flight-{id}.jsonl")), &dump))
                {
                    eprintln!("failed to write flight dump for {id}: {err}");
                }
            }
        }
    }

    /// Writes every node's flight-recorder ring to `<dir>/flight-<id>.jsonl`
    /// and returns the paths written.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while creating the directory or
    /// writing a dump.
    pub fn dump_flights(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (id, handle) in &self.handles {
            let dump = handle.dump_flight();
            if dump.is_empty() {
                continue;
            }
            let path = dir.join(format!("flight-{id}.jsonl"));
            std::fs::write(&path, dump)?;
            written.push(path);
        }
        Ok(written)
    }

    /// Polls until `pred` holds on at least `target` nodes or `timeout`
    /// elapses; returns how many nodes satisfied it last.
    pub fn wait_for_nodes<F>(&self, target: usize, timeout: StdDuration, pred: F) -> usize
    where
        F: Fn(&AtumNode<A>) -> bool + Clone + Send + 'static,
    {
        let deadline = StdInstant::now() + timeout;
        loop {
            let count = self
                .map_nodes(pred.clone())
                .into_iter()
                .filter(|&(_, ok)| ok)
                .count();
            if count >= target || StdInstant::now() >= deadline {
                return count;
            }
            std::thread::sleep(StdDuration::from_millis(100));
        }
    }

    /// Aggregated runtime counters across all runtimes.
    pub fn stats(&self) -> AggregateStats {
        let mut merged = Snapshot::default();
        for rt in &self.runtimes {
            merged.merge(rt.registry().snapshot());
        }
        RuntimeStats::read(&merged)
    }

    /// The fault plane shared by every runtime of this cluster: partitions,
    /// loss, delay, corruption and connection kills installed here hit the
    /// real frame path of every hosted node (see
    /// [`FaultPlane`](crate::faults::FaultPlane)).
    pub fn faults(&self) -> &crate::faults::FaultPlane {
        self.runtimes[0].faults()
    }

    /// Stops every runtime (draining outbound queues first).
    pub fn shutdown(self) {
        for rt in self.runtimes {
            rt.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::CollectingApp;
    use atum_types::Duration;

    #[test]
    fn seeded_vgroup_broadcasts_over_loopback() {
        let params = Params::default()
            .with_round(Duration::from_millis(100))
            .with_group_bounds(3, 10)
            .with_overlay(2, 4)
            .with_failure_detection(Duration::from_secs(2), 3);
        let cluster = NetClusterBuilder::new(4, 0)
            .params(params)
            .seed(5)
            .build(|_| CollectingApp::new());
        assert_eq!(cluster.member_count(), 4);
        // The whole cluster runs on a single reactor thread.
        assert_eq!(cluster.stats().threads, 1);
        cluster.broadcast(NodeId::new(1), b"net-hello".to_vec());
        let delivered = cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
            n.app()
                .delivered_payloads()
                .iter()
                .any(|p| p == b"net-hello")
        });
        assert_eq!(delivered, 4, "stats: {:?}", cluster.stats());
        cluster.shutdown();
    }

    #[test]
    fn nodes_spread_across_runtimes_still_converge() {
        let params = Params::default()
            .with_round(Duration::from_millis(100))
            .with_group_bounds(3, 10)
            .with_overlay(2, 4)
            .with_failure_detection(Duration::from_secs(2), 3);
        let cluster = NetClusterBuilder::new(4, 0)
            .params(params)
            .seed(9)
            .runtimes(2)
            .build(|_| CollectingApp::new());
        assert_eq!(cluster.stats().threads, 2);
        cluster.broadcast(NodeId::new(0), b"split".to_vec());
        let delivered = cluster.wait_for_nodes(4, StdDuration::from_secs(30), |n| {
            n.app().delivered_payloads().iter().any(|p| p == b"split")
        });
        assert_eq!(delivered, 4, "stats: {:?}", cluster.stats());
        cluster.shutdown();
    }
}
