//! Wire messages exchanged by Atum nodes and the operations ordered by the
//! vgroup SMR engines.
//!
//! # One field walk
//!
//! Every type here describes its fields once, in `wire_encode`. Bytes,
//! sizes and digests are that walk against a different `WireWriter` sink:
//! [`GroupPayload::digest`] and `SmrOp::digest` for [`GroupOp`] hash it
//! (`atum_crypto::Digestible`), `WireSize` counts it. That walk and its
//! decode are generated from one `atum_types::wire_codec!` line per type, so
//! adding a field means editing the type and its one codec line — nothing
//! else.
//!
//! # Digest memoization invariant
//!
//! Group payloads are **immutable after creation**: a [`GroupEnvelope`]
//! computes its payload's digest once, in [`GroupEnvelope::new`], and every
//! fan-out copy (the envelope is shared behind an `Arc`) as well as every
//! receiver reuses that cached 32-byte value for majority acceptance.
//! Nothing may mutate a payload once it is wrapped in an envelope — there is
//! deliberately no `&mut` access to [`GroupEnvelope::payload`]. The digest
//! never travels: a receiver derives it from the *decoded value* (not from
//! the received bytes — `Composition::wire_decode` canonicalises, so byte
//! strings and values are not one-to-one) in [`GroupEnvelope::wire_decode`],
//! and envelopes have no other deserialisation path.

use crate::member::Configuration;
use atum_crypto::{Digest, Digestible};
use atum_overlay::WalkState;
use atum_smr::{SmrMessage, SmrOp};
use atum_types::wire::{self, FRAME_HEADER_LEN};
use atum_types::{
    BroadcastId, Composition, FrameMemo, NodeId, VgroupId, WalkId, WireDecode, WireEncode,
    WireError, WireReader, WireSize, WireWriter,
};
use std::sync::Arc;

/// Payload of a vgroup-to-vgroup group message.
///
/// A group message is physically realised as one copy from every correct
/// member of the source vgroup to every member of the destination vgroup:
/// an [`AtumMessage::Group`] carrying the payload, or — for `Gossip`, from
/// the members that are not its carriers — an [`AtumMessage::GroupVote`]
/// carrying only the digest. The receiver accepts the payload once a
/// majority of the source composition vouched for the same digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupPayload {
    /// Second-phase dissemination of a broadcast (gossip across the overlay).
    Gossip {
        /// Broadcast identifier (origin node + sequence).
        id: BroadcastId,
        /// Application payload, shared across every forwarded copy.
        payload: Arc<[u8]>,
        /// Overlay hops travelled so far (for statistics).
        hops: u32,
    },
    /// A random walk being relayed across the overlay.
    Walk(WalkState),
    /// A vgroup informs a neighbour of its current composition.
    CompositionUpdate {
        /// The vgroup whose composition changed.
        group: VgroupId,
        /// Its new composition.
        composition: Composition,
    },
    /// Shuffle: the walk-selected vgroup offers `incoming` as an exchange
    /// partner for the origin's member `leaving`.
    ExchangeOffer {
        /// The walk that selected the offering vgroup.
        walk: WalkId,
        /// The member of the origin vgroup being exchanged away.
        leaving: NodeId,
        /// The member the offering vgroup gives up in return.
        incoming: NodeId,
    },
    /// Shuffle: the walk-selected vgroup has no spare member to exchange
    /// (it is already part of another exchange); the origin records a
    /// suppressed exchange.
    ExchangeRefuse {
        /// The walk that selected the refusing vgroup.
        walk: WalkId,
    },
    /// Shuffle: the origin vgroup accepted the offer; the offering vgroup
    /// should now complete its side (drop `given`, adopt `adopted`).
    ExchangeAccept {
        /// The walk this exchange belongs to.
        walk: WalkId,
        /// The member the offering vgroup gave away.
        given: NodeId,
        /// The member the offering vgroup receives instead.
        adopted: NodeId,
    },
    /// A vgroup introduces itself as the new neighbour of the receiver on a
    /// cycle (after a split insertion or a merge bridge).
    NeighborIntro {
        /// Cycle index.
        cycle: u8,
        /// `true` when the sender is the receiver's new *predecessor* on the
        /// cycle; `false` when it is the new successor.
        sender_is_predecessor: bool,
        /// The introducing vgroup.
        group: VgroupId,
        /// Its composition.
        composition: Composition,
    },
    /// Merge: the shrinking vgroup asks a neighbour to absorb its members.
    MergeRequest {
        /// The dissolving vgroup.
        from: VgroupId,
        /// Its remaining members.
        members: Vec<NodeId>,
    },
    /// Merge: the dissolving vgroup tells its neighbour on `cycle` who its
    /// new counterpart is (bridging the gap it leaves behind).
    CyclePatch {
        /// Cycle index being patched.
        cycle: u8,
        /// `true` when the *receiver* keeps the dissolved group's predecessor
        /// side (i.e. the named group becomes the receiver's successor).
        new_is_successor: bool,
        /// The vgroup on the other side of the gap.
        group: VgroupId,
        /// Its composition.
        composition: Composition,
    },
    /// Link repair: a vgroup asks a neighbour to confirm the link between
    /// them is recorded on *both* sides. Overlay surgery (splits and merges
    /// racing admission churn) can leave one-directional links when a
    /// `CyclePatch` majority is lost; the periodic probe detects the
    /// asymmetry so it can be healed.
    LinkProbe {
        /// Cycle index being probed.
        cycle: u8,
        /// `true` when the probing vgroup believes it is the receiver's
        /// *predecessor* on the cycle (it probed towards its successor).
        sender_is_predecessor: bool,
        /// The prober's neighbour on the *opposite* side of the probed
        /// direction; a receiver whose table still names this vgroup holds
        /// a stale pre-surgery entry and adopts the prober.
        far_neighbor: VgroupId,
        /// Probe round (announce-period bucket): keeps successive probe
        /// rounds distinct under the receiver's duplicate suppression while
        /// copies from one round still aggregate to a majority.
        nonce: u64,
    },
    /// Link repair: positive answer to a [`GroupPayload::LinkProbe`] whose
    /// claim matched the receiver's neighbour table.
    LinkConfirm {
        /// Cycle index that was probed.
        cycle: u8,
        /// Echo of the probe's `sender_is_predecessor` claim.
        sender_is_predecessor: bool,
        /// Echo of the probe's round.
        nonce: u64,
    },
}

impl GroupPayload {
    /// Digest of the payload, used for majority acceptance: SHA-256 over
    /// the payload's one field walk, its `wire_encode` (see [`Digestible`])
    /// — collisions between distinct payloads would require SHA-256
    /// collisions. Hot-path callers should use the digest memoized by
    /// [`GroupEnvelope::new`] rather than recomputing.
    pub fn digest(&self) -> Digest {
        self.structural_digest()
    }
}

atum_types::wire_codec!(GroupPayload, "group-payload tag" {
    0 => Gossip { id, payload, hops },
    1 => Walk(walk),
    2 => CompositionUpdate { group, composition },
    3 => ExchangeOffer { walk, leaving, incoming },
    4 => ExchangeRefuse { walk },
    5 => ExchangeAccept { walk, given, adopted },
    // Tags 6 and 9 were a split-insert request and a merge acceptance that
    // no vgroup sent: retired, never reused.
    7 => NeighborIntro { cycle, sender_is_predecessor, group, composition },
    8 => MergeRequest { from, members: seq(8) },
    10 => CyclePatch { cycle, new_is_successor, group, composition },
    11 => LinkProbe { cycle, sender_is_predecessor, far_neighbor, nonce },
    12 => LinkConfirm { cycle, sender_is_predecessor, nonce },
});

/// One logical group message, shared (behind an `Arc`) across every
/// physical per-recipient copy.
///
/// The payload digest is computed once here and memoized: senders fan one
/// envelope out to every member of the destination vgroup without
/// re-serialising or re-hashing, and receivers feed the cached digest to
/// the majority-acceptance collector instead of re-digesting each copy.
/// This relies on the immutability invariant in the module docs — payloads
/// are never mutated after the envelope is created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupEnvelope {
    /// The sending vgroup.
    pub source: VgroupId,
    /// The sending vgroup's composition (so the receiver can apply the
    /// majority rule even if it does not know the source as a neighbour,
    /// e.g. for walk results).
    pub source_composition: Composition,
    /// The logical payload. Read-only by design (see module docs).
    pub payload: GroupPayload,
    /// Memoized digest of `payload`.
    digest: Digest,
}

impl GroupEnvelope {
    /// Wraps a payload, memoizing its digest.
    pub fn new(source: VgroupId, source_composition: Composition, payload: GroupPayload) -> Self {
        let digest = payload.digest();
        GroupEnvelope {
            source,
            source_composition,
            payload,
            digest,
        }
    }

    /// The payload's digest, computed once at envelope creation.
    pub fn digest(&self) -> Digest {
        self.digest
    }
}

/// The memoized digest is deliberately *not* carried on the wire: a receiver
/// recomputes it from the decoded payload in [`GroupEnvelope::new`], so a
/// forged digest field cannot subvert majority acceptance — the codec is the
/// trust boundary the module docs promise.
impl WireEncode for GroupEnvelope {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.source.wire_encode(w);
        self.source_composition.wire_encode(w);
        self.payload.wire_encode(w);
    }
}

impl WireDecode for GroupEnvelope {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let source = VgroupId::wire_decode(r)?;
        let source_composition = Composition::wire_decode(r)?;
        // The digest is still always derived from the decoded bytes, never
        // read off the wire — but gossip re-delivers byte-identical payloads
        // by design, so a bounded cache keyed by the exact encoded payload
        // bytes lets duplicates skip the SHA-256 recompute (byte equality
        // implies payload equality implies digest equality).
        let rest = r.rest();
        let payload = GroupPayload::wire_decode(r)?;
        let payload_bytes = &rest[..rest.len() - r.remaining()];
        let digest = match crate::digest_cache::lookup(payload_bytes) {
            Some(digest) => digest,
            None => {
                let digest = payload.digest();
                crate::digest_cache::insert(payload_bytes, digest);
                digest
            }
        };
        Ok(GroupEnvelope {
            source,
            source_composition,
            payload,
            digest,
        })
    }
}

/// A member's digest-only copy of a gossip group message (§5.1): it vouches
/// that the sender's vgroup forwarded the broadcast in a payload with this
/// digest without carrying it. Counts towards the receiver's majority
/// exactly like a full copy; the body comes from the message's carriers
/// (`atum_overlay::is_carrier`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupVote {
    /// The sending vgroup.
    pub source: VgroupId,
    /// The sending vgroup's composition, as in [`GroupEnvelope`]: the
    /// receiver's majority rule reads it the same way for both kinds of copy.
    pub source_composition: Composition,
    /// Digest of the payload vouched for.
    pub digest: Digest,
    /// The broadcast the payload forwards: what a receiver whose majority
    /// came without a body pulls from the voters.
    pub id: BroadcastId,
}

atum_types::wire_codec!(GroupVote {
    source,
    source_composition,
    digest,
    id
});

/// Operations ordered by the SMR engine inside a vgroup.
///
/// Only actions that originate at a *single* node need agreement (join
/// requests, leaves, evictions, broadcasts, and the vgroup-local decisions of
/// the shuffle protocol); everything triggered by an accepted group message
/// is already consistent across correct members and is applied directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupOp {
    /// The contact vgroup agreed to handle a join request: start a placement
    /// walk for the joiner (or admit it directly on the re-join fast path).
    HandleJoinRequest {
        /// The joining node.
        joiner: NodeId,
        /// The joiner's attempt number (distinguishes re-joins of the same
        /// node so the operation is not deduplicated away).
        nonce: u64,
        /// `true` when the joiner was recently a member and is recovering
        /// from churn: the contact vgroup admits it directly (reusing the
        /// state-transfer fast path) instead of starting a placement walk
        /// that can die on a reconfiguring overlay. Placement uniformity is
        /// deliberately sacrificed for recovery speed; shuffle exchanges
        /// re-mix the membership afterwards.
        rejoin: bool,
    },
    /// The walk-selected vgroup admits the joiner as a member.
    AdmitJoiner {
        /// The joining node.
        joiner: NodeId,
        /// The placement walk that selected this vgroup.
        walk: WalkId,
    },
    /// A member asked to leave.
    Leave {
        /// The leaving member.
        node: NodeId,
        /// Epoch at proposal time (distinguishes repeat leave/rejoin cycles).
        nonce: u64,
    },
    /// One member accuses another of being unresponsive. The accused member
    /// is only removed once accusations from more than the vgroup's fault
    /// bound have been ordered, so a Byzantine minority cannot evict correct
    /// members.
    Evict {
        /// The member being accused.
        node: NodeId,
        /// The accusing member.
        accuser: NodeId,
        /// Epoch at proposal time (distinguishes repeat accusations).
        nonce: u64,
    },
    /// Phase one of `broadcast`: agree on the payload, deliver it locally and
    /// start the gossip phase.
    Broadcast {
        /// Broadcast identifier.
        id: BroadcastId,
        /// Application payload, shared with the gossip phase's forwarded
        /// copies.
        payload: Arc<[u8]>,
    },
    /// Shuffle, offering side: reserve one of our members as the exchange
    /// partner for the walk's subject (or refuse if none is available).
    OfferExchange {
        /// The walk that selected us; it names the origin vgroup.
        walk: WalkId,
        /// The origin vgroup's member being exchanged.
        leaving: NodeId,
        /// The origin vgroup's composition (for the reply group message).
        origin_composition: Composition,
    },
    /// Shuffle, origin side: complete the exchange — drop `leaving`, adopt
    /// `incoming`.
    CompleteExchange {
        /// The walk this exchange belongs to.
        walk: WalkId,
        /// Our member that moves to the partner vgroup.
        leaving: NodeId,
        /// The partner vgroup's member that moves to us.
        incoming: NodeId,
        /// The partner vgroup's composition at offer time.
        partner_composition: Composition,
    },
    /// Shuffle, offering side: the origin accepted, finish our side — drop
    /// `given`, adopt `adopted`.
    FinishExchange {
        /// The walk this exchange belongs to.
        walk: WalkId,
        /// Our member that moved away.
        given: NodeId,
        /// The origin vgroup's member we adopt.
        adopted: NodeId,
    },
    /// Merge: absorb the members of a dissolving neighbour vgroup.
    AcceptMerge {
        /// The dissolving vgroup.
        from: VgroupId,
        /// Its members.
        members: Vec<NodeId>,
    },
    /// Split insertion: we were selected as the anchor on `cycle`; adopt the
    /// new vgroup as our successor there and introduce it to our former
    /// successor.
    InsertOverlayNeighbor {
        /// Cycle index.
        cycle: u8,
        /// The new vgroup.
        new_group: VgroupId,
        /// Its composition.
        composition: Composition,
    },
}

impl SmrOp for GroupOp {
    fn digest(&self) -> Digest {
        self.structural_digest()
    }
}

atum_types::wire_codec!(GroupOp, "group-op tag" {
    0 => HandleJoinRequest { joiner, nonce, rejoin },
    1 => AdmitJoiner { joiner, walk },
    2 => Leave { node, nonce },
    3 => Evict { node, accuser, nonce },
    4 => Broadcast { id, payload },
    5 => OfferExchange { walk, leaving, origin_composition },
    6 => CompleteExchange { walk, leaving, incoming, partner_composition },
    7 => FinishExchange { walk, given, adopted },
    8 => AcceptMerge { from, members: seq(8) },
    9 => InsertOverlayNeighbor { cycle, new_group, composition },
});

/// Top-level message type exchanged between Atum nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtumMessage {
    /// A joiner asks a contact node for its vgroup's composition.
    JoinContactRequest,
    /// The contact's reply: the composition of its vgroup, which the joiner
    /// then addresses its join request to.
    JoinContactReply {
        /// The contact vgroup's composition.
        composition: Composition,
    },
    /// The joiner's request, sent to every member of the contact vgroup.
    JoinRequest {
        /// The joining node.
        joiner: NodeId,
        /// The joiner's attempt number.
        nonce: u64,
        /// `true` when the joiner is re-joining after a recent membership
        /// (see [`GroupOp::HandleJoinRequest::rejoin`]).
        rejoin: bool,
    },
    /// Sent by every member of the admitting vgroup to the joiner (and to
    /// members transferred by shuffles/merges): the configuration to become
    /// a member of, whose composition includes the receiver. Accepted on
    /// receipt from a majority of that composition. Boxed, like the two
    /// other payloads no fan-out sends, to keep the enum small.
    Welcome(Box<Configuration>),
    /// Sent by a member whose fence closed (its vgroup moved to a newer
    /// configuration epoch without it, or it heard no peer for an eviction
    /// window): asks a peer for a fresh [`AtumMessage::Welcome`] so it can
    /// re-synchronise.
    StateRequest {
        /// The vgroup whose state is requested.
        group: VgroupId,
        /// The requester's (stale) configuration epoch.
        epoch: u64,
    },
    /// Periodic liveness signal between vgroup peers. Scoped to the vgroup:
    /// a heartbeat only refreshes the sender's liveness clock at receivers
    /// that share the named vgroup. Without the scope, two vgroups that each
    /// hold a stale entry for a member of the other keep those entries alive
    /// forever (the stale member's heartbeats to its *new* group's stale
    /// list land on the old group and reset its eviction clock there).
    Heartbeat {
        /// The vgroup the sender believes it shares with the receiver.
        group: VgroupId,
        /// The sender's configuration epoch. Lets peers detect epoch
        /// divergence even while the SMR engines are idle (an engine with
        /// nothing to propose sends no SMR traffic, so a lagging member
        /// would otherwise never learn the group moved on).
        epoch: u64,
    },
    /// Intra-vgroup SMR traffic, tagged with the vgroup and configuration
    /// epoch so replicas never mix messages across groups or
    /// reconfigurations (an epoch from a *different* group must not close
    /// this group's fence).
    Smr {
        /// The vgroup whose engine this message belongs to.
        group: VgroupId,
        /// Configuration epoch the message belongs to.
        epoch: u64,
        /// The SMR protocol message, boxed: at 96 bytes it would set the
        /// size of every message in flight.
        msg: Box<SmrMessage<GroupOp>>,
    },
    /// One copy of a vgroup-to-vgroup group message. All per-recipient
    /// copies of the same logical message share one envelope allocation.
    Group(Arc<GroupEnvelope>),
    /// A digest-only copy of a vgroup-to-vgroup group message, sent in place
    /// of [`AtumMessage::Group`] by the members that are not carriers of
    /// it. Shared across the per-recipient copies like the envelope.
    GroupVote(Arc<GroupVote>),
    /// Application-level payload (file chunks, stream data, ...); opaque to
    /// Atum.
    App {
        /// Application-defined payload.
        payload: Vec<u8>,
        /// Size to charge on the wire, when the logical payload stands in
        /// for a larger physical one (0 = use `payload.len()`).
        advertised_size: u32,
    },
    /// Broadcast anti-entropy digest, piggybacked on the announce cadence:
    /// the ids of broadcasts the sender recently delivered, advertised to
    /// its own vgroup peers *and* to the members of its overlay neighbours
    /// (the cross-group legs let a vgroup where no member delivered
    /// bootstrap from outside). A receiver that missed one (a dropped
    /// gossip copy has no other retransmit) answers with
    /// [`AtumMessage::BroadcastPull`]. Advisory and unsigned — advertisers
    /// are believed only if the receiver's own composition or neighbour
    /// table vouches for them, so a Byzantine digest can at worst trigger
    /// bounded pulls.
    BroadcastKeys {
        /// The *advertiser's* vgroup (echoed back in the pull).
        group: VgroupId,
        /// Recently delivered broadcast ids (bounded).
        keys: Vec<BroadcastId>,
    },
    /// Request for the named broadcasts. The holder answers each held one
    /// with a *direct* unicast gossip copy, hops normalised to zero so
    /// every holder's reply shares one payload digest; the requester still
    /// re-assembles the usual majority of distinct-holder copies through
    /// its quorum collector — the repair path adds no new acceptance rule a
    /// Byzantine member could abuse, and replies are throttled per
    /// `(broadcast, requester)`.
    BroadcastPull {
        /// The *holder's* vgroup, as advertised in its `BroadcastKeys`.
        group: VgroupId,
        /// The broadcasts the requester is missing (bounded).
        keys: Vec<BroadcastId>,
        /// Set by a requester that holds a majority of [`GroupVote`]s for
        /// this digest and no body: the holder, one of the voters, answers
        /// with the copy it voted for — the hops it forwarded with — so one
        /// answer completes the quorum already counted. Boxed: an inline
        /// digest would make this the largest variant.
        voted: Option<Box<Digest>>,
    },
}

// An enum is as large as its largest variant, and every message in flight
// pays that size: a simulator event holds one message inline in a 64-byte
// slot, and at 40 bytes `AtumMessage` leaves room for the sender, the
// recipient and the byte count beside it. A payload that would push past
// this goes behind a `Box`, as `Smr`, `Welcome` and `BroadcastPull` do.
const _: () = assert!(std::mem::size_of::<AtumMessage>() <= 40);

impl AtumMessage {
    /// Encodes the message body (no frame header) into a fresh buffer.
    pub fn encode_body(&self) -> Vec<u8> {
        wire::encode_to_vec(self)
    }

    /// Decodes a message body, requiring every byte to be consumed.
    pub fn decode_body(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_exact(bytes)
    }
}

/// Encode-once fan-out: `Group` and `GroupVote` messages expose their
/// shared `Arc`'s pointer as their logical identity, so a runtime encodes
/// each logical group message once per fan-out, no matter how many
/// recipients. Every other variant is unicast-shaped and opts out.
impl FrameMemo for AtumMessage {
    fn fanout_identity(&self) -> Option<usize> {
        match self {
            // Fan-out copies share one Arc; its address identifies the
            // logical message. Only valid while the copies coexist — see
            // the trait docs for the scoping rule.
            AtumMessage::Group(envelope) => Some(Arc::as_ptr(envelope) as usize),
            AtumMessage::GroupVote(vote) => Some(Arc::as_ptr(vote) as usize),
            _ => None,
        }
    }
}

atum_types::wire_codec!(AtumMessage, "atum-message tag" {
    0 => JoinContactRequest,
    1 => JoinContactReply { composition },
    2 => JoinRequest { joiner, nonce, rejoin },
    3 => Welcome(config),
    4 => StateRequest { group, epoch },
    5 => Heartbeat { group, epoch },
    6 => Smr { group, epoch, msg },
    7 => Group(envelope),
    8 => App { payload, advertised_size },
    9 => BroadcastKeys { group, keys: seq(16) },
    10 => BroadcastPull { group, keys: seq(16), voted },
    11 => GroupVote(vote),
});

/// The simulator's per-message byte count is the *exact* encoded frame this
/// message occupies on a real socket: header plus codec body. The `App`
/// variant keeps honouring `advertised_size` (the logical payload stands in
/// for a larger physical transfer, e.g. AShare file chunks).
impl WireSize for AtumMessage {
    fn wire_size(&self) -> usize {
        if let AtumMessage::App {
            advertised_size, ..
        } = self
        {
            if *advertised_size > 0 {
                return FRAME_HEADER_LEN + *advertised_size as usize;
            }
        }
        FRAME_HEADER_LEN + wire::wire_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_simnet::{NetConfig, Simulation};
    use atum_types::NodeId;

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    /// With `AtumMessage` at 40 bytes, a simulator event holding one fills
    /// exactly one cache line; a variant that grew the enum, or took away
    /// the spare tag value the event's own tags live in, would double it.
    #[test]
    fn a_simulated_event_carrying_a_message_fills_one_cache_line() {
        type Sim = Simulation<AtumMessage, crate::AtumNode<crate::CollectingApp>>;
        let debug = format!("{:?}", Sim::new(NetConfig::lan(), 0));
        assert!(debug.contains("event_slot_bytes: 64"), "{debug}");
    }

    #[test]
    fn group_op_digests_distinguish_operations() {
        let a = GroupOp::Leave {
            node: NodeId::new(1),
            nonce: 0,
        };
        let b = GroupOp::Leave {
            node: NodeId::new(2),
            nonce: 0,
        };
        let c = GroupOp::Evict {
            node: NodeId::new(1),
            accuser: NodeId::new(2),
            nonce: 0,
        };
        let a_rejoin = GroupOp::Leave {
            node: NodeId::new(1),
            nonce: 1,
        };
        assert_ne!(SmrOp::digest(&a), SmrOp::digest(&b));
        assert_ne!(SmrOp::digest(&a), SmrOp::digest(&c));
        assert_ne!(SmrOp::digest(&a), SmrOp::digest(&a_rejoin));
        assert_eq!(SmrOp::digest(&a), SmrOp::digest(&a.clone()));
    }

    #[test]
    fn payload_digests_distinguish_payloads() {
        let g1 = GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 0),
            payload: b"x".to_vec().into(),
            hops: 0,
        };
        let g2 = GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 0),
            payload: b"x".to_vec().into(),
            hops: 1,
        };
        assert_ne!(g1.digest(), g2.digest());
    }

    #[test]
    fn envelope_memoizes_payload_digest() {
        let payload = GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 0),
            payload: b"shared".to_vec().into(),
            hops: 0,
        };
        let expected = payload.digest();
        let envelope = GroupEnvelope::new(VgroupId::new(3), comp(&[1, 2, 3]), payload);
        assert_eq!(envelope.digest(), expected);
        // Arc-shared fan-out copies carry the same cached digest.
        let shared = std::sync::Arc::new(envelope);
        assert_eq!(shared.clone().digest(), expected);
    }

    fn all_payload_variants() -> Vec<GroupPayload> {
        let walk = {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
            atum_overlay::WalkState::new(
                WalkId::new(VgroupId::new(2), 9),
                atum_overlay::WalkPurpose::JoinPlacement {
                    joiner: NodeId::new(6),
                },
                comp(&[4, 5]),
                3,
                &mut rng,
            )
        };
        vec![
            GroupPayload::Gossip {
                id: BroadcastId::new(NodeId::new(1), 2),
                payload: b"abc".to_vec().into(),
                hops: 3,
            },
            GroupPayload::Walk(walk),
            GroupPayload::CompositionUpdate {
                group: VgroupId::new(1),
                composition: comp(&[1, 2]),
            },
            GroupPayload::ExchangeOffer {
                walk: WalkId::new(VgroupId::new(1), 2),
                leaving: NodeId::new(3),
                incoming: NodeId::new(4),
            },
            GroupPayload::ExchangeRefuse {
                walk: WalkId::new(VgroupId::new(1), 2),
            },
            GroupPayload::ExchangeAccept {
                walk: WalkId::new(VgroupId::new(1), 2),
                given: NodeId::new(3),
                adopted: NodeId::new(4),
            },
            GroupPayload::NeighborIntro {
                cycle: 1,
                sender_is_predecessor: true,
                group: VgroupId::new(7),
                composition: comp(&[1, 2]),
            },
            GroupPayload::MergeRequest {
                from: VgroupId::new(7),
                members: vec![NodeId::new(1)],
            },
            GroupPayload::CyclePatch {
                cycle: 1,
                new_is_successor: true,
                group: VgroupId::new(7),
                composition: comp(&[1, 2]),
            },
            GroupPayload::LinkProbe {
                cycle: 1,
                sender_is_predecessor: true,
                far_neighbor: VgroupId::new(7),
                nonce: 3,
            },
            GroupPayload::LinkConfirm {
                cycle: 1,
                sender_is_predecessor: true,
                nonce: 3,
            },
        ]
    }

    fn all_op_variants() -> Vec<GroupOp> {
        vec![
            GroupOp::HandleJoinRequest {
                joiner: NodeId::new(1),
                nonce: 2,
                rejoin: false,
            },
            GroupOp::AdmitJoiner {
                joiner: NodeId::new(1),
                walk: WalkId::new(VgroupId::new(2), 3),
            },
            GroupOp::Leave {
                node: NodeId::new(1),
                nonce: 2,
            },
            GroupOp::Evict {
                node: NodeId::new(1),
                accuser: NodeId::new(2),
                nonce: 3,
            },
            GroupOp::Broadcast {
                id: BroadcastId::new(NodeId::new(1), 2),
                payload: b"xyz".to_vec().into(),
            },
            GroupOp::OfferExchange {
                walk: WalkId::new(VgroupId::new(1), 2),
                leaving: NodeId::new(3),
                origin_composition: comp(&[5, 6]),
            },
            GroupOp::CompleteExchange {
                walk: WalkId::new(VgroupId::new(1), 2),
                leaving: NodeId::new(3),
                incoming: NodeId::new(4),
                partner_composition: comp(&[6, 7]),
            },
            GroupOp::FinishExchange {
                walk: WalkId::new(VgroupId::new(1), 2),
                given: NodeId::new(3),
                adopted: NodeId::new(4),
            },
            GroupOp::AcceptMerge {
                from: VgroupId::new(1),
                members: vec![NodeId::new(2)],
            },
            GroupOp::InsertOverlayNeighbor {
                cycle: 1,
                new_group: VgroupId::new(2),
                composition: comp(&[3, 4]),
            },
        ]
    }

    /// The structural digest must distinguish everything the old
    /// Debug-format digest distinguished: every variant from every other,
    /// and every single-field change within a variant.
    #[test]
    fn structural_digests_distinguish_all_variants() {
        let payloads = all_payload_variants();
        assert_eq!(payloads.len(), 11, "cover every GroupPayload variant");
        for (i, a) in payloads.iter().enumerate() {
            assert_eq!(a.digest(), a.clone().digest(), "digest must be stable");
            for b in payloads.iter().skip(i + 1) {
                assert_ne!(a.digest(), b.digest(), "{a:?} vs {b:?}");
            }
        }
        let ops = all_op_variants();
        assert_eq!(ops.len(), 10, "cover every GroupOp variant");
        for (i, a) in ops.iter().enumerate() {
            assert_eq!(SmrOp::digest(a), SmrOp::digest(&a.clone()));
            for b in ops.iter().skip(i + 1) {
                assert_ne!(SmrOp::digest(a), SmrOp::digest(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn structural_digests_distinguish_field_permutations() {
        // Exhaustive per-field sensitivity for a representative sample of
        // variants, including the boolean and integer fields a positional
        // encoding could silently conflate.
        let base = GroupPayload::NeighborIntro {
            cycle: 1,
            sender_is_predecessor: true,
            group: VgroupId::new(7),
            composition: comp(&[1, 2]),
        };
        let variants = [
            GroupPayload::NeighborIntro {
                cycle: 2,
                sender_is_predecessor: true,
                group: VgroupId::new(7),
                composition: comp(&[1, 2]),
            },
            GroupPayload::NeighborIntro {
                cycle: 1,
                sender_is_predecessor: false,
                group: VgroupId::new(7),
                composition: comp(&[1, 2]),
            },
            GroupPayload::NeighborIntro {
                cycle: 1,
                sender_is_predecessor: true,
                group: VgroupId::new(8),
                composition: comp(&[1, 2]),
            },
            GroupPayload::NeighborIntro {
                cycle: 1,
                sender_is_predecessor: true,
                group: VgroupId::new(7),
                composition: comp(&[1, 3]),
            },
        ];
        for v in &variants {
            assert_ne!(base.digest(), v.digest(), "{v:?}");
        }

        let op = GroupOp::Evict {
            node: NodeId::new(1),
            accuser: NodeId::new(2),
            nonce: 3,
        };
        // Swapping node and accuser must change the digest (same field
        // types, different roles).
        let swapped = GroupOp::Evict {
            node: NodeId::new(2),
            accuser: NodeId::new(1),
            nonce: 3,
        };
        assert_ne!(SmrOp::digest(&op), SmrOp::digest(&swapped));
        let renonced = GroupOp::Evict {
            node: NodeId::new(1),
            accuser: NodeId::new(2),
            nonce: 4,
        };
        assert_ne!(SmrOp::digest(&op), SmrOp::digest(&renonced));

        // Rejoin flag flips the join-request digest.
        let join = |rejoin| GroupOp::HandleJoinRequest {
            joiner: NodeId::new(1),
            nonce: 2,
            rejoin,
        };
        assert_ne!(SmrOp::digest(&join(false)), SmrOp::digest(&join(true)));

        // Gossip payload bytes and hops both count.
        let gossip = |payload: &[u8], hops| GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 2),
            payload: payload.to_vec().into(),
            hops,
        };
        assert_ne!(gossip(b"abc", 0).digest(), gossip(b"abd", 0).digest());
        assert_ne!(gossip(b"abc", 0).digest(), gossip(b"abc", 1).digest());
    }

    #[test]
    fn wire_sizes_grow_with_content() {
        let small = AtumMessage::Heartbeat {
            group: VgroupId::new(1),
            epoch: 0,
        };
        let comp5 = comp(&[1, 2, 3, 4, 5]);
        let big = AtumMessage::Group(std::sync::Arc::new(GroupEnvelope::new(
            VgroupId::new(1),
            comp5.clone(),
            GroupPayload::Gossip {
                id: BroadcastId::new(NodeId::new(1), 0),
                payload: vec![0u8; 1000].into(),
                hops: 0,
            },
        )));
        assert!(big.wire_size() > small.wire_size() + 1000);
        let app_logical = AtumMessage::App {
            payload: vec![1, 2, 3],
            advertised_size: 0,
        };
        let app_physical = AtumMessage::App {
            payload: vec![1, 2, 3],
            advertised_size: 1_000_000,
        };
        assert!(app_physical.wire_size() > app_logical.wire_size() + 900_000);
    }
}
