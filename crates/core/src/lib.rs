//! The Atum group communication middleware.
//!
//! Atum sits between a distributed application and the network. It organises
//! nodes into **volatile groups** (vgroups): small, dynamic, robust clusters
//! that each run a BFT state-machine-replication protocol internally and are
//! connected to one another by an H-graph overlay. Faults are masked inside
//! vgroups; churn is absorbed by random-walk shuffling and logarithmic
//! grouping (splits and merges); dissemination uses gossip between vgroups.
//!
//! # API
//!
//! The public surface mirrors the paper (§3.3):
//!
//! * [`AtumNode::bootstrap`] — create a new system instance consisting of a
//!   single one-node vgroup;
//! * [`AtumNode::join`] — join an existing instance through a contact node;
//! * [`AtumNode::leave`] — leave the instance;
//! * [`AtumNode::broadcast`] — disseminate a message to every node;
//! * the [`Application`] callback `deliver` — how the application receives
//!   messages (gossip forwarding is shaped by `Params::gossip`).
//!
//! Nodes are driven by the deterministic simulator in `atum-simnet`; the same
//! state machines could be hosted on a real transport by implementing the
//! [`atum_simnet::Node`] contract over sockets.
//!
//! # Example
//!
//! ```
//! use atum_core::{AtumNode, CollectingApp};
//! use atum_crypto::KeyRegistry;
//! use atum_simnet::{NetConfig, Simulation};
//! use atum_types::{Duration, NodeId, Params};
//!
//! // One bootstrap node and two joiners, on a simulated LAN.
//! let mut registry = KeyRegistry::new();
//! for i in 0..3 {
//!     registry.register(NodeId::new(i), 7);
//! }
//! let registry = registry.shared();
//! let params = Params::default().with_group_bounds(1, 8);
//!
//! let mut sim = Simulation::new(NetConfig::lan(), 42);
//! for i in 0..3u64 {
//!     let node = AtumNode::new(
//!         NodeId::new(i),
//!         params.clone(),
//!         registry.clone(),
//!         CollectingApp::new(),
//!     );
//!     sim.add_node(NodeId::new(i), node);
//! }
//! sim.call(NodeId::new(0), |node, ctx| node.bootstrap(ctx).unwrap());
//! sim.run_for(Duration::from_secs(5));
//! sim.call(NodeId::new(1), |node, ctx| node.join(NodeId::new(0), ctx).unwrap());
//! sim.run_for(Duration::from_secs(60));
//! sim.call(NodeId::new(2), |node, ctx| node.join(NodeId::new(0), ctx).unwrap());
//! sim.run_for(Duration::from_secs(120));
//!
//! // Everyone is a member; a broadcast reaches all nodes.
//! sim.call(NodeId::new(2), |node, ctx| {
//!     node.broadcast(b"hello volatile world".to_vec(), ctx).unwrap();
//! });
//! sim.run_for(Duration::from_secs(60));
//! for i in 0..3u64 {
//!     let app = sim.node(NodeId::new(i)).unwrap().app();
//!     assert!(app.delivered_payloads().iter().any(|p| p == b"hello volatile world"));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod broadcast;
pub mod digest_cache;
pub mod member;
pub mod message;
pub mod node;
pub mod seed;

pub use app::{AppCtx, Application, CollectingApp, Delivered};
pub use broadcast::Session;
pub use digest_cache::verified_digest_stats;
pub use member::{Configuration, MemberState};
pub use message::{AtumMessage, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
pub use node::{AtumNode, ByzantineBehavior, NodePhase, NodeStats};
pub use seed::{seed_system, SeededSystem};
