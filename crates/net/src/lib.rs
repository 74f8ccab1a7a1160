//! `atum-net`: the real-socket TCP runtime for Atum nodes.
//!
//! The reproduction's protocol logic is written against the runtime-neutral
//! effect surface of `atum_simnet` ([`atum_simnet::Node`] +
//! [`atum_simnet::Context`]). This crate supplies the second runtime for
//! that surface: a [`NetRuntime`] binds one TCP
//! listener and runs a fixed set of *reactor* threads, each multiplexing
//! non-blocking sockets and a timer heap for every node it hosts — the same
//! `AtumNode` state machine then runs over loopback or LAN sockets with no
//! protocol changes whatsoever, and a single process hosts 1000+ nodes on
//! O(reactors) threads.
//!
//! * [`frame`] — versioned length-prefixed framing with decode hardening
//!   (max-frame cap, magic/version checks, exact-consumption bodies): the
//!   one header validator and the one header encoder of the workspace, the
//!   per-connection `Hello` handshake and the `Route` frames that address
//!   messages on a multiplexed connection.
//! * [`conn`] — the connection layer under everything that owns sockets
//!   (the reactors here and the `atum-edge` gateway's I/O thread): slots
//!   with generation guards, poller registration, accept, non-blocking
//!   reads up to the frame boundary, bounded out-queues with coalesced
//!   flushes, close-with-reason, and the eventfd-woken mailbox into the
//!   owning thread. Mechanism only; the frame vocabulary and every policy
//!   stay with the caller.
//! * [`reactor`] — [`NetRuntime`] and
//!   [`NodeHandle`]: the event-loop runtime and the
//!   per-node view onto it — the node wire's hello/route/message pairing,
//!   dialling and reconnecting, timers and node dispatch on top of [`conn`].
//! * [`runtime`] — [`RuntimeConfig`],
//!   [`RuntimeStats`] and
//!   [`AddressBook`].
//! * [`cluster`] — [`NetCluster`]: an in-process
//!   loopback harness mirroring `atum_sim::ClusterBuilder`, used by the
//!   `net_cluster` system test, the `bench_net` scenarios and the
//!   repository's benchmark.
//! * [`faults`] — [`FaultPlane`]: the deterministic
//!   fault-injection plane (per-peer drop / delay / reorder / corrupt /
//!   connection-kill / asymmetric-partition / bandwidth-throttle at the
//!   frame boundary), sharing the `partition`/`heal`/`set_loss` vocabulary
//!   with the simulator via [`atum_simnet::FaultInjector`].
//!
//! Determinism note: wall-clock scheduling is inherently nondeterministic,
//! so TCP runs are *not* reproducible the way simulations are. The codec and
//! the node state machines are shared with the simulator; the
//! `fabric_equivalence` golden tests pin that hosting them here never
//! perturbs simulated trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod conn;
pub mod faults;
pub mod frame;
pub mod reactor;
pub mod runtime;

pub use cluster::{AggregateStats, NetCluster, NetClusterBuilder};
pub use faults::{FaultPlane, FaultRules};
pub use frame::{Hello, Route};
pub use reactor::{NetRuntime, NodeHandle};
pub use runtime::{AddressBook, NetMessage, RuntimeConfig, RuntimeStats};
