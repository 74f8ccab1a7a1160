//! Atum: scalable group communication using volatile groups.
//!
//! This is the facade crate of the workspace: it re-exports the public API of
//! every layer so applications can depend on a single crate.
//!
//! * [`core`] — the middleware itself: [`core::AtumNode`] with `bootstrap`,
//!   `join`, `leave`, `broadcast` and the `deliver` callback.
//! * [`types`], [`crypto`], [`simnet`], [`smr`], [`overlay`] — the substrates
//!   (identifiers and configuration, digests and signatures, the
//!   discrete-event network simulator, the BFT replication engines, and the
//!   H-graph overlay).
//! * [`net`] — the real-socket TCP runtime: the same node state machines
//!   over loopback/LAN sockets, with the `NetCluster` harness.
//! * [`obs`] — observability: structured protocol-event tracing
//!   (`trace_event!`), the unified metrics registry, and the per-node
//!   flight recorder dumped on failures.
//! * [`apps`] — the three applications from the paper: ASub, AShare and
//!   AStream.
//! * [`edge`] — the hardened client gateway: circuit breakers, request
//!   deduplication, deadlines with retry, load shedding and graceful
//!   shutdown at the boundary where external clients meet the overlay.
//! * [`sim`] — the experiment harness (cluster construction, fault
//!   injection, workload drivers, metrics).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the per-figure experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use atum_apps as apps;
pub use atum_core as core;
pub use atum_crypto as crypto;
pub use atum_edge as edge;
pub use atum_net as net;
pub use atum_obs as obs;
pub use atum_overlay as overlay;
pub use atum_sim as sim;
pub use atum_simnet as simnet;
pub use atum_smr as smr;
pub use atum_types as types;

pub use atum_core::{AppCtx, Application, AtumNode, CollectingApp, Delivered};
pub use atum_types::{GossipPolicy, NodeId, Params, SmrMode};

/// One-stop imports for applications and harness code.
///
/// Brings in the node and application surface, the common configuration
/// types, and both cluster harnesses — the simulated
/// [`ClusterBuilder`](crate::sim::ClusterBuilder) and the socket-backed
/// [`NetClusterBuilder`](crate::net::NetClusterBuilder) share their builder
/// vocabulary (`params`/`seed`/`group_size`/`build`) and their cluster
/// vocabulary (`member_count`/`wait_for_members`/`broadcast_tracked`), so a
/// scenario written against one ports to the other by swapping the builder.
///
/// ```no_run
/// use atum::prelude::*;
///
/// let cluster = NetClusterBuilder::new(4, 0)
///     .params(Params::default().with_group_bounds(3, 10))
///     .seed(7)
///     .build(|_| CollectingApp::new());
/// cluster.broadcast(NodeId::new(0), b"hello".to_vec());
/// # cluster.shutdown();
/// ```
pub mod prelude {
    pub use atum_core::{AppCtx, Application, AtumMessage, AtumNode, CollectingApp, Delivered};
    pub use atum_crypto::KeyRegistry;
    pub use atum_net::{
        AddressBook, NetCluster, NetClusterBuilder, NetRuntime, NodeHandle, RuntimeConfig,
    };
    pub use atum_sim::{Cluster, ClusterBuilder};
    pub use atum_simnet::{Context, NetConfig, Node, Simulation};
    pub use atum_types::{Duration, GossipPolicy, Instant, NodeId, Params, SmrMode, VgroupId};
}
