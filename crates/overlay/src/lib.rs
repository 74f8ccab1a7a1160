//! The Atum overlay layer: the H-graph connecting volatile groups, group
//! messages, random walks and gossip planning.
//!
//! The overlay is a multigraph of vgroups made of `hc` random Hamiltonian
//! cycles (an *H-graph*, after Law & Siu). It is sparse (constant degree),
//! well connected and has logarithmic diameter with high probability, which
//! is what makes gossip and random-walk sampling efficient.
//!
//! This crate provides:
//!
//! * [`HGraph`] — the cycle structure itself, with the insert/remove surgery
//!   needed by vgroup splits and merges;
//! * [`NeighborTable`] — a single vgroup's local view of its neighbours
//!   (per-cycle predecessor and successor compositions);
//! * [`GroupMessageCollector`] — majority-acceptance of vgroup-to-vgroup
//!   messages (§3.1, Figure 3), and [`is_carrier`] — which members ship a
//!   message's body and which only vote with its digest (§5.1);
//! * [`WalkState`] — random walks with the bulk RNG of §5.1; the selected
//!   vgroup answers the origin directly, with a majority-accepted group
//!   message to the composition the walk carries (neither §5.1's backward
//!   phase nor its walk certificates is implemented);
//! * [`GossipPlanner`] and [`SeenCache`] — which neighbours a broadcast is
//!   forwarded to, under the configured `GossipPolicy`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod directory;
mod fifo_set;
pub mod gossip;
pub mod group_msg;
pub mod hgraph;
pub mod walk;

pub use directory::VgroupDirectory;
pub use gossip::{GossipPlanner, SeenCache};
pub use group_msg::{is_carrier, GroupMessageCollector, Observed};
pub use hgraph::{CycleNeighbors, HGraph, NeighborTable};
pub use walk::{simulate_walk_hits, WalkPurpose, WalkState};
