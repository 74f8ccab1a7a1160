//! The [`Replication`] trait shared by both SMR engines, and the common
//! message / action / configuration types.

use atum_crypto::{Digest, SignatureChain};
use atum_types::{Composition, Duration, Instant, NodeId};
use serde::{Deserialize, Serialize};

/// An operation that can be ordered by the SMR engines.
///
/// The Atum group layer instantiates `O` with its own operation enum (joins,
/// leaves, shuffles, broadcasts, ...). The trait only asks for what the
/// engines need: a content digest (what gets signed / quorum-matched).
pub trait SmrOp: Clone + Eq + std::fmt::Debug {
    /// Content digest of the operation.
    fn digest(&self) -> Digest;
}

/// Raw byte strings are valid operations (used by tests and benchmarks).
impl SmrOp for Vec<u8> {
    fn digest(&self) -> Digest {
        Digest::of(self)
    }
}

/// A decided operation, in decision order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision<O> {
    /// Position in the total order (per epoch, starting at 0).
    pub seq: u64,
    /// The member that proposed the operation.
    pub proposer: NodeId,
    /// The operation itself.
    pub op: O,
}

/// What an engine asks its host to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<O> {
    /// Send a protocol message to a vgroup peer.
    Send {
        /// Destination member.
        to: NodeId,
        /// Protocol message.
        msg: SmrMessage<O>,
    },
    /// An operation was decided; apply it to the replicated state.
    Deliver(Decision<O>),
}

/// Messages exchanged by the SMR engines.
///
/// A single enum covers both engines so the host can treat them uniformly;
/// each engine ignores the other's variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrMessage<O> {
    /// Dolev–Strong value relay (synchronous engine). The chain signs the
    /// batch digest; `slot` identifies the agreement instance.
    SyncValue {
        /// Slot (agreement instance) this value belongs to.
        slot: u64,
        /// The designated sender whose batch this is.
        sender: NodeId,
        /// Batch of operations proposed by `sender` in this slot.
        batch: Vec<O>,
        /// Signature chain over (slot, sender, batch digest).
        chain: SignatureChain,
    },
    /// Client-style request forwarded to the current primary (async engine).
    Request {
        /// The operation to order.
        op: O,
    },
    /// PBFT pre-prepare from the primary.
    PrePrepare {
        /// View number.
        view: u64,
        /// Sequence number assigned by the primary.
        seq: u64,
        /// The operation being ordered.
        op: O,
    },
    /// PBFT prepare vote.
    Prepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest of the operation voted on.
        digest: Digest,
    },
    /// PBFT commit vote.
    Commit {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest of the operation voted on.
        digest: Digest,
    },
    /// View-change vote: the sender wants to move to `new_view` and reports
    /// the operations it has prepared so far.
    ViewChange {
        /// The view the sender wants to enter.
        new_view: u64,
        /// Prepared operations carried over: (seq, op).
        prepared: Vec<(u64, O)>,
    },
    /// New-view announcement from the incoming primary, restating the
    /// operations that must keep their sequence numbers and the sequence
    /// numbers that are abandoned (never prepared anywhere, hence never
    /// committed) and must be skipped by the delivery order.
    NewView {
        /// The view being entered.
        view: u64,
        /// Operations re-proposed in the new view: (seq, op).
        ops: Vec<(u64, O)>,
        /// Sequence numbers proven unused; receivers skip them.
        skips: Vec<u64>,
    },
}

atum_types::wire_codec!(SmrMessage<O>, "smr-message tag" {
    0 => SyncValue { slot, sender, batch: seq(1), chain },
    1 => Request { op },
    2 => PrePrepare { view, seq, op },
    3 => Prepare { view, seq, digest },
    4 => Commit { view, seq, digest },
    5 => ViewChange { new_view, prepared: seq(9) },
    6 => NewView { view, ops: seq(9), skips: seq(8) },
});

/// How a (test-injected) faulty replica misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineMode {
    /// Behaves correctly.
    #[default]
    Correct,
    /// Sends nothing at all (crash-like, but keeps its state).
    Silent,
    /// Proposes conflicting values to different peers where the protocol
    /// allows it (equivocation); otherwise behaves like `Silent`.
    Equivocate,
}

/// View-change timeout multiplier: the async engine starts a view change
/// after `VIEW_CHANGE_ROUNDS × round` without progress on a pending request.
const VIEW_CHANGE_ROUNDS: u64 = 4;

/// Engine configuration shared by both protocols.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmrConfig {
    /// Round duration for the synchronous engine; also the base unit for the
    /// asynchronous engine's view-change timeout.
    pub round: Duration,
}

impl Default for SmrConfig {
    fn default() -> Self {
        SmrConfig {
            round: Duration::from_millis(1_000),
        }
    }
}

impl SmrConfig {
    /// The asynchronous engine's view-change timeout.
    pub fn view_change_timeout(&self) -> Duration {
        self.round.saturating_mul(VIEW_CHANGE_ROUNDS)
    }
}

/// A BFT replication engine driven by its host.
///
/// Hosts call [`propose`](Replication::propose) with operations to order,
/// feed incoming peer messages to [`handle`](Replication::handle), and call
/// [`tick`](Replication::tick) on a periodic timer: every host in this
/// workspace ticks every `round / 2`. An engine never asks for a wake-up; a
/// host that wants one at a round boundary can compute it from `round`,
/// since engines count rounds from the instant they are started at. All
/// three return actions the host must carry out.
pub trait Replication<O: SmrOp> {
    /// Submits an operation for ordering.
    fn propose(&mut self, op: O, now: Instant) -> Vec<Action<O>>;

    /// Handles a protocol message from a vgroup peer.
    fn handle(&mut self, from: NodeId, msg: SmrMessage<O>, now: Instant) -> Vec<Action<O>>;

    /// Advances time-driven parts of the protocol (round transitions,
    /// view-change timeouts).
    fn tick(&mut self, now: Instant) -> Vec<Action<O>>;

    /// Current membership of this replication group.
    fn members(&self) -> &Composition;

    /// Configures fault injection for this replica (testing only).
    fn set_byzantine(&mut self, mode: ByzantineMode);
}

/// Helper: extracts the decisions from a list of actions (test convenience).
pub fn decisions<O>(actions: &[Action<O>]) -> Vec<Decision<O>>
where
    O: Clone + std::fmt::Debug + Eq,
{
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Deliver(d) => Some(d.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::wire::wire_len;

    #[test]
    fn vec_u8_is_an_op() {
        let op: Vec<u8> = vec![1, 2, 3];
        assert_eq!(op.digest(), Digest::of(&[1, 2, 3]));
    }

    #[test]
    fn message_wire_sizes_are_plausible() {
        let op: Vec<u8> = vec![0u8; 100];
        let small: SmrMessage<Vec<u8>> = SmrMessage::Prepare {
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
        };
        let big = SmrMessage::PrePrepare {
            view: 0,
            seq: 1,
            op: op.clone(),
        };
        assert!(wire_len(&small) < wire_len(&big));
        let vc: SmrMessage<Vec<u8>> = SmrMessage::ViewChange {
            new_view: 1,
            prepared: vec![(1, op)],
        };
        assert!(wire_len(&vc) > wire_len(&small));
    }

    #[test]
    fn config_timeout_is_multiple_of_round() {
        let cfg = SmrConfig {
            round: Duration::from_millis(500),
        };
        assert_eq!(
            cfg.view_change_timeout().as_millis(),
            500 * VIEW_CHANGE_ROUNDS
        );
    }

    #[test]
    fn decisions_helper_filters_deliver_actions() {
        let actions: Vec<Action<Vec<u8>>> = vec![
            Action::Send {
                to: NodeId::new(2),
                msg: SmrMessage::Request { op: vec![8] },
            },
            Action::Deliver(Decision {
                seq: 0,
                proposer: NodeId::new(1),
                op: vec![9],
            }),
        ];
        let d = decisions(&actions);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op, vec![9]);
    }
}
