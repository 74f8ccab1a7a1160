//! Byzantine fault tolerant state machine replication (SMR) for volatile
//! groups.
//!
//! The paper keeps Atum agnostic to the SMR engine used inside each vgroup
//! and evaluates two of them:
//!
//! * a **synchronous** engine built on Dolev–Strong authenticated agreement
//!   ([`SyncSmr`]), tolerating `f = ⌊(g−1)/2⌋` Byzantine members, which is
//!   simple and predictable but pays a fixed number of rounds per decision;
//! * an **asynchronous** (eventually synchronous) engine in the style of
//!   PBFT ([`AsyncSmr`]), tolerating `f = ⌊(g−1)/3⌋`, which decides as fast as
//!   the network allows but needs view changes when the leader is faulty.
//!
//! Both engines implement the [`Replication`] trait: a pure state machine
//! that consumes proposals, peer messages and clock ticks, and emits
//! [`Action`]s (messages to send, operations decided). The Atum group layer
//! drives whichever engine the [`SmrMode`] selects and
//! applies decided operations to the vgroup state.
//!
//! Membership changes use the SMART approach: every reconfiguration starts a
//! new *epoch* with a fresh instance; operations that were in flight but not
//! decided must be re-proposed by the layer above.
//!
//! # Example
//!
//! ```
//! use atum_smr::{testkit::LockstepCluster, SmrConfig};
//! use atum_types::{NodeId, SmrMode};
//!
//! // Four correct replicas agree on two operations.
//! let mut cluster = LockstepCluster::new(4, SmrMode::Asynchronous, SmrConfig::default(), 7);
//! cluster.propose(NodeId::new(0), b"op-a".to_vec());
//! cluster.propose(NodeId::new(2), b"op-b".to_vec());
//! cluster.run_to_quiescence();
//! cluster.assert_agreement();
//! assert_eq!(cluster.decided(NodeId::new(1)).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pbft;
pub mod protocol;
pub mod sync;
pub mod testkit;

pub use pbft::AsyncSmr;
pub use protocol::{Action, ByzantineMode, Decision, Replication, SmrConfig, SmrMessage, SmrOp};
pub use sync::SyncSmr;

use atum_crypto::KeyRegistry;
use atum_types::{Composition, NodeId, SmrMode};
use std::sync::Arc;

/// A replication engine chosen at runtime from [`SmrMode`].
#[derive(Debug, Clone)]
pub enum Engine<O: SmrOp> {
    /// Synchronous Dolev–Strong-based engine.
    Sync(SyncSmr<O>),
    /// Asynchronous PBFT-style engine.
    Async(AsyncSmr<O>),
}

impl<O: SmrOp> Engine<O> {
    /// Creates the engine selected by `mode`.
    pub fn new(
        mode: SmrMode,
        me: NodeId,
        members: Composition,
        config: SmrConfig,
        registry: Arc<KeyRegistry>,
        start: atum_types::Instant,
    ) -> Self {
        match mode {
            SmrMode::Synchronous => {
                Engine::Sync(SyncSmr::new(me, members, config, registry, start))
            }
            SmrMode::Asynchronous => {
                Engine::Async(AsyncSmr::new(me, members, config, registry, start))
            }
        }
    }
}

impl<O: SmrOp> Replication<O> for Engine<O> {
    fn propose(&mut self, op: O, now: atum_types::Instant) -> Vec<Action<O>> {
        match self {
            Engine::Sync(e) => e.propose(op, now),
            Engine::Async(e) => e.propose(op, now),
        }
    }

    fn handle(
        &mut self,
        from: NodeId,
        msg: SmrMessage<O>,
        now: atum_types::Instant,
    ) -> Vec<Action<O>> {
        match self {
            Engine::Sync(e) => e.handle(from, msg, now),
            Engine::Async(e) => e.handle(from, msg, now),
        }
    }

    fn tick(&mut self, now: atum_types::Instant) -> Vec<Action<O>> {
        match self {
            Engine::Sync(e) => e.tick(now),
            Engine::Async(e) => e.tick(now),
        }
    }

    fn members(&self) -> &Composition {
        match self {
            Engine::Sync(e) => e.members(),
            Engine::Async(e) => e.members(),
        }
    }

    fn set_byzantine(&mut self, mode: ByzantineMode) {
        match self {
            Engine::Sync(e) => e.set_byzantine(mode),
            Engine::Async(e) => e.set_byzantine(mode),
        }
    }
}
