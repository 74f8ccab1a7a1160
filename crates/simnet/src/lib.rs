//! A deterministic discrete-event network simulator: the substrate this
//! reproduction uses in place of the paper's EC2 deployment.
//!
//! The simulator executes a set of [`Node`] actors. Nodes only interact with
//! the world through their [`Context`]: they send messages, set timers, read
//! the simulated clock and draw from a per-node deterministic RNG. The
//! [`Simulation`] engine owns the event queue and delivers messages with a
//! uniform [`LatencyModel`] (LAN / WAN profiles), a serialisation delay
//! from the link bandwidth and a loss probability, plus partitions and
//! crashes. Those are the faults the simulator injects: every link draws
//! from the same latency range (nodes have no placement), and loss is one
//! probability for every message.
//!
//! Determinism: given the same seed, node set and external call schedule, a
//! simulation produces the same event order and the same results. All
//! randomness flows from `ChaCha`-seeded generators owned by the engine.
//!
//! # Example
//!
//! ```
//! use atum_simnet::{Context, Node, NetConfig, Simulation};
//! use atum_types::{Duration, NodeId};
//!
//! struct Echo {
//!     got: Vec<String>,
//! }
//!
//! impl Node<String> for Echo {
//!     fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut Context<'_, String>) {
//!         self.got.push(msg.clone());
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_string());
//!         }
//!     }
//!     fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, String>) {}
//! }
//!
//! let mut sim: Simulation<String, Echo> = Simulation::new(NetConfig::lan(), 7);
//! let a = sim.add_node(NodeId::new(0), Echo { got: vec![] });
//! let b = sim.add_node(NodeId::new(1), Echo { got: vec![] });
//! sim.call(a, move |_node, ctx| ctx.send(b, "ping".to_string()));
//! sim.run_until_idle(Duration::from_secs(10));
//! assert_eq!(sim.node(b).unwrap().got, vec!["ping".to_string()]);
//! assert_eq!(sim.node(a).unwrap().got, vec!["pong".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod latency;
pub mod node;
mod queue;
pub mod stats;

pub use engine::Simulation;
pub use latency::{LatencyModel, NetConfig};
pub use node::{Context, ContextEffects, Node, OutboundMessage, TimerRequest};
pub use stats::NetStats;
