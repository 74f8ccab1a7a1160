//! Synchronous SMR built on Dolev–Strong authenticated Byzantine agreement.
//!
//! Time is divided into rounds of fixed duration, and every round opens an
//! agreement instance, a *slot*, named after the round it opens in. A slot
//! runs for `f + 2` rounds (`f = ⌊(g−1)/2⌋`), so up to `f + 2` slots are in
//! flight at once. A member sends its pending operations as one signed
//! batch, at most once per slot, and only in the first half of a round: in
//! round `r` it sends into slot `r − 1`, the slot that just closed (slot 0
//! in round 0). A busy member therefore ships everything proposed since its
//! last send at its first step of each round, an idle member's first-half
//! proposal goes out at once, and a second-half proposal waits for the next
//! round's first half. Through round `slot + f` members relay newly accepted
//! values with their own signature appended (the Dolev–Strong
//! signature-chain rule). A value first seen in round `slot + k` must carry
//! at least `k` distinct member signatures: one round of slack over the
//! classical `k + 1`, which the late own send uses up. Once its `f + 2`
//! rounds are over every correct member has accepted the same set of
//! batches: a value a correct member accepts by round `slot + f` is relayed
//! and reaches every correct member by `slot + f + 1`, and a value first
//! accepted later carries `f + 1` signatures, one of them from a correct
//! member who relayed it in time. Members deliver the set in a deterministic
//! order (by proposer, then by position in the batch), and slots in slot
//! order. An idle member's first-half proposal in round `r` is decided at the
//! first step at or after the `r + f + 1` boundary; any other proposal made
//! in round `r` at the `r + f + 2` boundary, so while the pending operations
//! fit in one batch none waits more than `f + 2` rounds.
//!
//! The engine assumes two synchrony bounds. A member's own batch, sent up to
//! half a round into round `slot + 1`, must reach its peers in that round:
//! network delay plus the host's tick lag stays under `round / 2`. A relay
//! must arrive by the round after it was sent: network delay stays under
//! `round`.
//!
//! A sender that equivocates (gets two different batches accepted) is
//! detected — both values are accepted — and its batch for that slot is
//! discarded by every correct member, exactly like the classical protocol
//! delivers the default value for a faulty sender.
//!
//! The engine is passive and never asks for a wake-up: the host calls
//! [`tick`](SyncSmr::tick) on a periodic timer, every `round / 2`, so a slot
//! is finalized at each member's first tick at or after its boundary.

use crate::protocol::{Action, ByzantineMode, Decision, Replication, SmrConfig, SmrMessage, SmrOp};
use atum_crypto::{Digest, KeyRegistry, NodeSigner, SignatureChain};
use atum_types::{Composition, Instant, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Most operations one batch carries; the rest wait for the next slot.
const MAX_BATCH: usize = 64;

/// Reason codes carried in the third slot of `smr-reject` trace events
/// (kept in sync with the README's event schema table).
pub mod reject_reason {
    /// Sender or relayer is not a member of this vgroup.
    pub const NON_MEMBER: u64 = 1;
    /// The signature chain's payload digest does not match the batch.
    pub const DIGEST: u64 = 2;
    /// The signature chain itself fails verification.
    pub const CHAIN: u64 = 3;
    /// A signer on the chain is not a member.
    pub const SIGNER: u64 = 4;
    /// The slot is already finalized.
    pub const STALE: u64 = 5;
    /// The slot has not opened yet (more than one round ahead).
    pub const FUTURE: u64 = 6;
    /// First seen in round `slot + k` with fewer than `k` signatures.
    pub const SHORT_CHAIN: u64 = 7;
}

/// Agreement state of one slot that is not finalized yet.
#[derive(Debug, Clone)]
struct SlotState<O> {
    // Ordered maps throughout the engine state: iteration order feeds
    // protocol behaviour (delivery, relay fan-out) and state fingerprints,
    // so it must be deterministic across processes (determinism lint).
    /// Accepted (batch, digest) values per sender; more than one means the
    /// sender equivocated and its batch is discarded.
    per_sender: BTreeMap<NodeId, Vec<(Vec<O>, Digest)>>,
}

impl<O> Default for SlotState<O> {
    fn default() -> Self {
        SlotState {
            per_sender: BTreeMap::new(),
        }
    }
}

/// The synchronous (Dolev–Strong) replication engine.
#[derive(Clone)]
pub struct SyncSmr<O: SmrOp> {
    me: NodeId,
    members: Composition,
    config: SmrConfig,
    registry: Arc<KeyRegistry>,
    signer: Option<NodeSigner>,
    start: Instant,
    /// Highest round index already processed (`None` before the first tick).
    processed_round: Option<u64>,
    pending: VecDeque<O>,
    /// Slots not yet finalized, by slot id.
    slots: BTreeMap<u64, SlotState<O>>,
    /// Latest slot this member sent its own batch into, whatever its mode:
    /// one batch per slot.
    sent_slot: Option<u64>,
    next_seq: u64,
    byzantine: ByzantineMode,
}

impl<O: SmrOp> std::fmt::Debug for SyncSmr<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately skips the key registry and signer: key material is
        // shared, immutable infrastructure, not replica state — and the
        // model checker hashes this Debug rendering to fingerprint states.
        f.debug_struct("SyncSmr")
            .field("me", &self.me)
            .field("members", &self.members)
            .field("start", &self.start)
            .field("processed_round", &self.processed_round)
            .field("pending", &self.pending)
            .field("slots", &self.slots)
            .field("sent_slot", &self.sent_slot)
            .field("next_seq", &self.next_seq)
            .field("byzantine", &self.byzantine)
            .finish()
    }
}

impl<O: SmrOp> SyncSmr<O> {
    /// Creates an engine for member `me` of `members`, with round boundaries
    /// measured from `start`.
    pub fn new(
        me: NodeId,
        members: Composition,
        config: SmrConfig,
        registry: Arc<KeyRegistry>,
        start: Instant,
    ) -> Self {
        assert!(members.contains(me), "engine owner must be a group member");
        let signer = registry.signer(me);
        SyncSmr {
            me,
            members,
            config,
            registry,
            signer,
            start,
            processed_round: None,
            pending: VecDeque::new(),
            slots: BTreeMap::new(),
            sent_slot: None,
            next_seq: 0,
            byzantine: ByzantineMode::Correct,
        }
    }

    /// Number of faults tolerated: ⌊(g−1)/2⌋.
    pub fn max_faults(&self) -> usize {
        self.members.len().saturating_sub(1) / 2
    }

    /// Rounds per slot: `f + 2` (one broadcast round, `f` relay rounds, one
    /// finalisation boundary).
    pub fn rounds_per_slot(&self) -> u64 {
        (self.max_faults() as u64) + 2
    }

    /// Watermark: every slot at or below it is finalized and dropped. The
    /// tick that processed round `r` finalized the slots whose `f + 2`
    /// rounds ended by `r`.
    fn finalized_through(&self) -> Option<u64> {
        self.processed_round?.checked_sub(self.rounds_per_slot())
    }

    /// Round index at time `now` (None before the first boundary).
    fn round_at(&self, now: Instant) -> Option<u64> {
        if now < self.start {
            return None;
        }
        Some((now - self.start).as_micros() / self.config.round.as_micros().max(1))
    }

    /// Digest signed by the Dolev–Strong chain for a batch.
    fn batch_digest(slot: u64, sender: NodeId, batch: &[O]) -> Digest {
        let mut acc = Digest::of_parts(&[
            b"sync-slot",
            &slot.to_be_bytes(),
            &sender.raw().to_be_bytes(),
        ]);
        for op in batch {
            acc = acc.combine(&op.digest());
        }
        acc
    }

    /// Number of operations waiting to be proposed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Sends the pending batch into `slot`, unless there is none or this
    /// member already sent into it.
    fn broadcast_own_batch(&mut self, slot: u64, actions: &mut Vec<Action<O>>) {
        if self.pending.is_empty() || self.sent_slot.is_some_and(|s| s >= slot) {
            return;
        }
        let Some(signer) = self.signer.clone() else {
            return;
        };
        self.sent_slot = Some(slot);
        if self.byzantine != ByzantineMode::Correct {
            // Silent replicas simply do not progress their own proposals; an
            // equivocating one sends diverging partial batches instead.
            if self.byzantine == ByzantineMode::Equivocate {
                self.equivocate(slot, &signer, actions);
            }
            return;
        }
        let take = self.pending.len().min(MAX_BATCH);
        let batch: Vec<O> = self.pending.drain(..take).collect();
        let digest = Self::batch_digest(slot, self.me, &batch);
        let chain = SignatureChain::new(digest, &signer);
        // Accept own value immediately.
        self.slots
            .entry(slot)
            .or_default()
            .per_sender
            .entry(self.me)
            .or_default()
            .push((batch.clone(), digest));
        for peer in self.members.iter().filter(|&p| p != self.me) {
            actions.push(Action::Send {
                to: peer,
                msg: SmrMessage::SyncValue {
                    slot,
                    sender: self.me,
                    batch: batch.clone(),
                    chain: chain.clone(),
                },
            });
        }
    }

    /// Equivocation fault injection: send the first pending operation to one
    /// half of the group and a conflicting (empty) batch to the other half.
    /// Correct receivers end up accepting two different values for this
    /// sender and discard its slot, as Dolev–Strong prescribes.
    fn equivocate(&self, slot: u64, signer: &NodeSigner, actions: &mut Vec<Action<O>>) {
        let Some(op) = self.pending.front().cloned() else {
            return;
        };
        let batch_a = vec![op];
        let batch_b: Vec<O> = Vec::new();
        let chain_a = SignatureChain::new(Self::batch_digest(slot, self.me, &batch_a), signer);
        let chain_b = SignatureChain::new(Self::batch_digest(slot, self.me, &batch_b), signer);
        let half = self.members.len() / 2;
        for (i, peer) in self.members.iter().filter(|&p| p != self.me).enumerate() {
            let (batch, chain) = if i < half {
                (batch_a.clone(), chain_a.clone())
            } else {
                (batch_b.clone(), chain_b.clone())
            };
            actions.push(Action::Send {
                to: peer,
                msg: SmrMessage::SyncValue {
                    slot,
                    sender: self.me,
                    batch,
                    chain,
                },
            });
        }
    }

    /// Whether `now` falls in the first half of its round.
    fn in_first_half(&self, now: Instant) -> bool {
        let into_round = (now - self.start).as_micros() % self.config.round.as_micros().max(1);
        into_round < self.config.round.as_micros().max(2) / 2
    }

    /// What both `propose` and `tick` do at `now`: process the current round
    /// if it is new, finalizing the slots that are due, then, in the first
    /// half of round `r`, send the pending batch into slot `r − 1`.
    fn step(&mut self, now: Instant) -> Vec<Action<O>> {
        let mut actions = Vec::new();
        let Some(round) = self.round_at(now) else {
            return actions;
        };
        // Only the current round is processed: rounds a late step skipped
        // opened no slot of ours, and a fresh engine must not replay rounds
        // from 0 into slots its peers reject as stale and finalize them
        // alone.
        if self.processed_round.is_none_or(|p| round > p) {
            self.processed_round = Some(round);
            self.finalize_due(round, &mut actions);
        }
        // The slot that just closed still takes a batch signed by its sender
        // alone, so a step in the first half ships everything proposed since
        // this member's last send into it; a step in the second half sends
        // nothing, and what it holds waits for the next round's first half.
        if self.in_first_half(now) {
            self.broadcast_own_batch(round.saturating_sub(1), &mut actions);
        }
        actions
    }

    /// Finalizes, in slot order, every held slot whose `f + 2` rounds are
    /// over at `round`, and drops it.
    fn finalize_due(&mut self, round: u64, actions: &mut Vec<Action<O>>) {
        let rps = self.rounds_per_slot();
        while let Some(entry) = self.slots.first_entry() {
            if *entry.key() + rps > round {
                break;
            }
            // Senders in ascending id order. Exactly one accepted value =>
            // honest (or consistently behaving) sender; deliver. Two =>
            // equivocation; discard.
            for (sender, accepted) in entry.remove().per_sender {
                let Ok([(batch, _)]) = <[_; 1]>::try_from(accepted) else {
                    continue;
                };
                for op in batch {
                    actions.push(Action::Deliver(Decision {
                        seq: self.next_seq,
                        proposer: sender,
                        op,
                    }));
                    self.next_seq += 1;
                }
            }
        }
    }
}

impl<O: SmrOp> Replication<O> for SyncSmr<O> {
    fn propose(&mut self, op: O, now: Instant) -> Vec<Action<O>> {
        self.pending.push_back(op);
        // In the first half of a round the batch goes out now, unless this
        // member already sent into the slot that just closed; otherwise it
        // waits for the next round's first half.
        self.step(now)
    }

    fn handle(&mut self, from: NodeId, msg: SmrMessage<O>, now: Instant) -> Vec<Action<O>> {
        let mut actions = Vec::new();
        let SmrMessage::SyncValue {
            slot,
            sender,
            batch,
            chain,
        } = msg
        else {
            return actions; // Not a synchronous-engine message.
        };
        if self.byzantine == ByzantineMode::Silent {
            return actions;
        }
        // Validation: the sender must be a member, the chain must start with
        // the sender, every signer must be a distinct member, the relayer
        // (`from`) must be a member, and the chain must sign this batch.
        if !self.members.contains(sender) || !self.members.contains(from) {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::NON_MEMBER],
                "[smr {}] reject slot {slot} from {from}: non-member",
                self.me
            );
            return actions;
        }
        // Every relayer sends a copy of each value it accepts, so most
        // arrivals repeat a digest already accepted from this sender (or
        // come after it equivocated). Such a copy changes nothing, valid or
        // not: drop it before hashing the batch and verifying the chain.
        let held = self
            .slots
            .get(&slot)
            .and_then(|s| s.per_sender.get(&sender));
        if held.is_some_and(|accepted| {
            accepted.len() >= 2 || accepted.iter().any(|(_, d)| d == chain.payload())
        }) {
            return actions;
        }
        let expected = Self::batch_digest(slot, sender, &batch);
        if *chain.payload() != expected {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::DIGEST],
                "[smr {}] reject slot {slot} from {from}: digest",
                self.me
            );
            return actions;
        }
        if !chain.verify(&self.registry, Some(sender), true) {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::CHAIN],
                "[smr {}] reject slot {slot} from {from}: chain",
                self.me
            );
            return actions;
        }
        if chain.signers().any(|s| !self.members.contains(s)) {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::SIGNER],
                "[smr {}] reject slot {slot} from {from}: signer",
                self.me
            );
            return actions;
        }
        let current_round = self.round_at(now).unwrap_or(0);
        // A peer's clock may run up to one round ahead; a slot beyond that
        // has not opened, and holding it would pin its state forever.
        if slot > current_round + 1 {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::FUTURE],
                "[smr {}] reject slot {slot} from {from}: future (current {current_round})",
                self.me
            );
            return actions;
        }
        // Ignore values for already-finalized slots.
        if self.finalized_through().is_some_and(|w| slot <= w) {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::STALE],
                "[smr {}] reject slot {slot} from {from}: stale (current {current_round})",
                self.me
            );
            return actions;
        }
        // Dolev–Strong with one round of slack: a value first seen in round
        // `slot + k` must carry `k` distinct signatures. Without this a
        // faulty member could hand its batch to one correct member after the
        // relay window, and that member alone would deliver it. A chain has
        // at most `g` signers, so this also rejects any slot more than `g`
        // rounds old.
        if chain.len() < current_round.saturating_sub(slot) as usize {
            atum_obs::trace_event!(
                SmrReject,
                at = now.as_micros(),
                node = self.me.raw(),
                slots = [slot, from.raw(), reject_reason::SHORT_CHAIN],
                "[smr {}] reject slot {slot} from {from}: {} signatures in round {current_round}",
                self.me,
                chain.len()
            );
            return actions;
        }

        let rps = self.rounds_per_slot();
        let me = self.me;
        self.slots
            .entry(slot)
            .or_default()
            .per_sender
            .entry(sender)
            .or_default()
            .push((batch.clone(), expected));

        // Relay with our signature appended, unless we already signed it or
        // the slot's relay window (`slot + f`) is over.
        if !chain.contains(me) && current_round <= slot + rps - 2 {
            if let Some(signer) = self.signer.clone() {
                let mut new_chain = chain.clone();
                new_chain.append(&signer);
                for peer in self.members.iter().filter(|&p| p != me && p != from) {
                    actions.push(Action::Send {
                        to: peer,
                        msg: SmrMessage::SyncValue {
                            slot,
                            sender,
                            batch: batch.clone(),
                            chain: new_chain.clone(),
                        },
                    });
                }
            }
        }
        actions
    }

    fn tick(&mut self, now: Instant) -> Vec<Action<O>> {
        self.step(now)
    }

    fn members(&self) -> &Composition {
        &self.members
    }

    fn set_byzantine(&mut self, mode: ByzantineMode) {
        self.byzantine = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::LockstepCluster;
    use atum_types::{Duration, SmrMode};

    #[test]
    fn max_faults_and_rounds_per_slot() {
        let mut registry = KeyRegistry::new();
        for i in 0..7 {
            registry.register(NodeId::new(i), 1);
        }
        let members: Composition = (0..7).map(NodeId::new).collect();
        let smr: SyncSmr<Vec<u8>> = SyncSmr::new(
            NodeId::new(0),
            members,
            SmrConfig::default(),
            registry.shared(),
            Instant::ZERO,
        );
        assert_eq!(smr.max_faults(), 3);
        assert_eq!(smr.rounds_per_slot(), 5);
    }

    #[test]
    #[should_panic(expected = "member")]
    fn owner_must_be_member() {
        let registry = KeyRegistry::new().shared();
        let members: Composition = (0..3).map(NodeId::new).collect();
        let _: SyncSmr<Vec<u8>> = SyncSmr::new(
            NodeId::new(9),
            members,
            SmrConfig::default(),
            registry,
            Instant::ZERO,
        );
    }

    #[test]
    fn all_correct_members_agree_on_single_proposal() {
        let mut cluster = LockstepCluster::new(5, SmrMode::Synchronous, SmrConfig::default(), 1);
        cluster.propose(NodeId::new(2), b"hello".to_vec());
        cluster.run_to_quiescence();
        cluster.assert_agreement();
        for n in 0..5 {
            let d = cluster.decided(NodeId::new(n));
            assert_eq!(d.len(), 1, "node {n} decided {d:?}");
            assert_eq!(d[0].op, b"hello".to_vec());
            assert_eq!(d[0].proposer, NodeId::new(2));
        }
    }

    #[test]
    fn concurrent_proposals_are_ordered_identically() {
        let mut cluster = LockstepCluster::new(7, SmrMode::Synchronous, SmrConfig::default(), 2);
        for i in 0..7u64 {
            cluster.propose(NodeId::new(i), format!("op-{i}").into_bytes());
        }
        cluster.run_to_quiescence();
        cluster.assert_agreement();
        let decided = cluster.decided(NodeId::new(0));
        assert_eq!(decided.len(), 7);
        // Deterministic order: by proposer id.
        let proposers: Vec<u64> = decided.iter().map(|d| d.proposer.raw()).collect();
        let mut sorted = proposers.clone();
        sorted.sort_unstable();
        assert_eq!(proposers, sorted);
    }

    #[test]
    fn silent_minority_does_not_block_agreement() {
        let mut cluster = LockstepCluster::new(7, SmrMode::Synchronous, SmrConfig::default(), 3);
        cluster.set_byzantine(NodeId::new(5), ByzantineMode::Silent);
        cluster.set_byzantine(NodeId::new(6), ByzantineMode::Silent);
        cluster.propose(NodeId::new(0), b"resilient".to_vec());
        cluster.run_to_quiescence();
        cluster.assert_agreement_among(&(0..5).map(NodeId::new).collect::<Vec<_>>());
        for n in 0..5 {
            assert_eq!(cluster.decided(NodeId::new(n)).len(), 1, "node {n}");
        }
    }

    #[test]
    fn equivocating_sender_is_discarded_but_correct_senders_deliver() {
        let mut cluster = LockstepCluster::new(5, SmrMode::Synchronous, SmrConfig::default(), 4);
        cluster.set_byzantine(NodeId::new(4), ByzantineMode::Equivocate);
        cluster.propose(NodeId::new(4), b"evil".to_vec());
        cluster.propose(NodeId::new(1), b"good".to_vec());
        cluster.run_to_quiescence();
        cluster.assert_agreement_among(&(0..4).map(NodeId::new).collect::<Vec<_>>());
        let d = cluster.decided(NodeId::new(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op, b"good".to_vec());
    }

    #[test]
    fn multiple_slots_deliver_in_order() {
        let mut cluster = LockstepCluster::new(4, SmrMode::Synchronous, SmrConfig::default(), 5);
        cluster.propose(NodeId::new(0), b"first".to_vec());
        cluster.run_to_quiescence();
        cluster.propose(NodeId::new(1), b"second".to_vec());
        cluster.run_to_quiescence();
        cluster.assert_agreement();
        let d = cluster.decided(NodeId::new(3));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].op, b"first".to_vec());
        assert_eq!(d[1].op, b"second".to_vec());
        assert!(d[0].seq < d[1].seq);
    }

    #[test]
    fn batching_respects_max_batch() {
        let mut smr = engines(4);
        let mut decided = vec![Vec::new(); 4];
        tick_all(&mut smr, at(10, 0), &mut decided);
        // Proposed in the second half of round 10: held for round 11.
        for i in 0..=MAX_BATCH {
            let actions = smr[0].propose(vec![i as u8], at(10, 600));
            assert!(own_sends(&actions, 0).is_empty(), "proposal {i}");
        }
        let batch_sizes = |actions: &[Action<Vec<u8>>]| -> Vec<usize> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Send {
                        msg: SmrMessage::SyncValue { batch, .. },
                        ..
                    } => Some(batch.len()),
                    _ => None,
                })
                .collect()
        };
        let actions = smr[0].tick(at(11, 0));
        assert_eq!(batch_sizes(&actions), vec![MAX_BATCH; 3], "one full batch");
        carry_out(&mut smr, 0, actions, at(11, 0), &mut decided);
        let actions = smr[0].tick(at(12, 0));
        assert_eq!(batch_sizes(&actions), vec![1; 3], "the op left over");
        carry_out(&mut smr, 0, actions, at(12, 0), &mut decided);
        for r in 13..=15 {
            tick_all(&mut smr, at(r, 0), &mut decided);
        }
        assert!(
            decided.iter().all(|d| d.len() == MAX_BATCH + 1),
            "{decided:?}"
        );
    }

    /// Four engines of one composition, all created at `Instant::ZERO` the
    /// way `fresh_engine` builds one after an epoch bump.
    fn engines(n: u64) -> Vec<SyncSmr<Vec<u8>>> {
        let mut registry = KeyRegistry::new();
        for i in 0..n {
            registry.register(NodeId::new(i), 3);
        }
        let registry = registry.shared();
        let members: Composition = (0..n).map(NodeId::new).collect();
        (0..n)
            .map(|i| {
                SyncSmr::new(
                    NodeId::new(i),
                    members.clone(),
                    SmrConfig::default(),
                    registry.clone(),
                    Instant::ZERO,
                )
            })
            .collect()
    }

    /// Carries out the `actions` member `from` took at `now` over a network
    /// without delay: each send is handled at once, and the replies carried
    /// out in turn. Decisions are appended to `decided`, by member.
    fn carry_out(
        smr: &mut [SyncSmr<Vec<u8>>],
        from: usize,
        actions: Vec<Action<Vec<u8>>>,
        now: Instant,
        decided: &mut [Vec<Vec<u8>>],
    ) {
        let mut queue: VecDeque<_> = actions.into_iter().map(|a| (from, a)).collect();
        while let Some((by, action)) = queue.pop_front() {
            match action {
                Action::Send { to, msg } => {
                    let to = to.raw() as usize;
                    let replies = smr[to].handle(NodeId::new(by as u64), msg, now);
                    queue.extend(replies.into_iter().map(|a| (to, a)));
                }
                Action::Deliver(d) => decided[by].push(d.op),
            }
        }
    }

    /// Ticks every member at `now` and carries out what they do.
    fn tick_all(smr: &mut [SyncSmr<Vec<u8>>], now: Instant, decided: &mut [Vec<Vec<u8>>]) {
        for i in 0..smr.len() {
            let actions = smr[i].tick(now);
            carry_out(smr, i, actions, now, decided);
        }
    }

    /// `ms` milliseconds into `round`.
    fn at(round: u64, ms: u64) -> Instant {
        Instant::ZERO + SmrConfig::default().round.saturating_mul(round) + Duration::from_millis(ms)
    }

    /// The slot of each send in `actions` whose batch is member `me`'s own.
    fn own_sends(actions: &[Action<Vec<u8>>], me: usize) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: SmrMessage::SyncValue { slot, sender, .. },
                    ..
                } if sender.raw() == me as u64 => Some(*slot),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_engine_created_mid_run_does_not_decide_its_first_batch_alone() {
        // Regression: the first tick of an engine created long after its
        // start replayed every round from 0, broadcast the batch proposed
        // before that tick into slot 0 (stale to every peer), finalized
        // slot 0 in the same tick and delivered the batch alone.
        let mut smr = engines(4);
        let round = SmrConfig::default().round;
        let t0 = Instant::from_micros(100_000_000);
        let mut sent = 0;
        let mut send = |smr: &mut [SyncSmr<Vec<u8>>], actions: Vec<Action<Vec<u8>>>, now| {
            for action in actions {
                if let Action::Send { to, msg } = action {
                    let slot = match &msg {
                        SmrMessage::SyncValue { slot, .. } => *slot,
                        _ => unreachable!(),
                    };
                    let peer = &mut smr[to.raw() as usize];
                    let reply = peer.handle(NodeId::new(0), msg, now);
                    assert!(!reply.is_empty(), "peer {to} rejected slot {slot}");
                    sent += 1;
                }
            }
        };
        // The batch leaves with `propose`, into the slot that closed at `t0`.
        let actions = smr[0].propose(b"op".to_vec(), t0);
        assert!(
            crate::protocol::decisions(&actions).is_empty(),
            "propose decided alone: {actions:?}"
        );
        send(&mut smr, actions, t0);
        for k in 0..=smr[0].rounds_per_slot() + 1 {
            let now = t0 + Duration::from_millis(100) + round.saturating_mul(k);
            for peer in &mut smr[1..] {
                peer.tick(now);
            }
            let actions = smr[0].tick(now);
            if k == 0 {
                assert!(
                    crate::protocol::decisions(&actions).is_empty(),
                    "first tick decided alone: {actions:?}"
                );
            }
            send(&mut smr, actions, now);
        }
        assert_eq!(sent, 3, "the batch reaches every peer once");
    }

    /// Ticks every member every half round after `from`, as the host does,
    /// until one of them decides; returns the time of that tick.
    fn tick_until_decided(
        smr: &mut [SyncSmr<Vec<u8>>],
        from: Instant,
        decided: &mut [Vec<Vec<u8>>],
    ) -> Instant {
        let mut now = from;
        while decided.iter().all(Vec::is_empty) && now < at(30, 0) {
            now += Duration::from_millis(500);
            tick_all(smr, now, decided);
        }
        now
    }

    #[test]
    fn an_idle_members_first_half_proposal_is_decided_at_boundary_r_plus_f_plus_1() {
        let mut smr = engines(4);
        let rps = smr[0].rounds_per_slot();
        let mut decided = vec![Vec::new(); 4];
        tick_all(&mut smr, at(10, 0), &mut decided);
        let proposed = at(10, 200);
        let actions = smr[2].propose(b"idle".to_vec(), proposed);
        assert_eq!(
            own_sends(&actions, 2),
            vec![9; 3],
            "the batch goes out at once, into the slot that just closed"
        );
        carry_out(&mut smr, 2, actions, proposed, &mut decided);
        let now = tick_until_decided(&mut smr, at(10, 0), &mut decided);
        // Boundary `slot + f + 2` of slot 9 is round `10 + f + 1`.
        assert_eq!(now, at(10 + rps - 1, 0), "decided at boundary r + f + 1");
        assert!(
            decided.iter().all(|d| d == &[b"idle".to_vec()]),
            "every member decides at that tick: {decided:?}"
        );
    }

    #[test]
    fn an_idle_members_second_half_proposal_is_sent_at_the_next_rounds_first_tick() {
        let mut smr = engines(4);
        let (round, rps) = (SmrConfig::default().round, smr[0].rounds_per_slot());
        let mut decided = vec![Vec::new(); 4];
        tick_all(&mut smr, at(10, 0), &mut decided);
        let proposed = at(10, 500);
        let actions = smr[2].propose(b"idle".to_vec(), proposed);
        assert!(own_sends(&actions, 2).is_empty(), "held: {actions:?}");
        let actions = smr[2].tick(at(11, 0));
        assert_eq!(own_sends(&actions, 2), vec![10; 3], "sent into slot r");
        carry_out(&mut smr, 2, actions, at(11, 0), &mut decided);
        let now = tick_until_decided(&mut smr, at(11, 0), &mut decided);
        assert_eq!(now, at(10 + rps, 0), "decided at boundary r + f + 2");
        assert!(now - proposed < round.saturating_mul(rps));
        assert!(
            decided.iter().all(|d| d == &[b"idle".to_vec()]),
            "{decided:?}"
        );
    }

    #[test]
    fn a_batch_sent_in_the_first_half_of_the_next_round_is_accepted_on_its_senders_signature() {
        let mut smr = engines(4);
        let mut decided = vec![Vec::new(); 4];
        for r in 10..=11 {
            tick_all(&mut smr, at(r, 0), &mut decided);
        }
        // Sent in the last millisecond of round 11's first half, into slot 10.
        let actions = smr[1].propose(b"late".to_vec(), at(11, 499));
        assert_eq!(own_sends(&actions, 1), vec![10; 3]);
        assert!(actions.iter().all(|a| match a {
            Action::Send {
                msg: SmrMessage::SyncValue { chain, .. },
                ..
            } => chain.len() == 1,
            _ => true,
        }));
        // Every peer hears it at the end of round 11, and accepts it.
        carry_out(&mut smr, 1, actions, at(11, 999), &mut decided);
        for peer in [0, 2, 3] {
            let held = smr[peer]
                .slots
                .get(&10)
                .and_then(|s| s.per_sender.get(&NodeId::new(1)));
            assert!(held.is_some(), "member {peer} rejected it");
        }
        for r in 12..=13 {
            tick_all(&mut smr, at(r, 0), &mut decided);
        }
        assert!(
            decided.iter().all(|d| d == &[b"late".to_vec()]),
            "{decided:?}"
        );
    }

    #[test]
    fn a_busy_members_later_proposals_go_out_as_one_batch_at_its_next_first_half_tick() {
        let mut smr = engines(4);
        let rps = smr[0].rounds_per_slot();
        let mut decided = vec![Vec::new(); 4];
        tick_all(&mut smr, at(10, 0), &mut decided);
        let actions = smr[0].propose(b"a".to_vec(), at(10, 100));
        assert_eq!(own_sends(&actions, 0), vec![9; 3]);
        carry_out(&mut smr, 0, actions, at(10, 100), &mut decided);
        // Slot 9 is taken: these wait, through the second-half tick.
        for (op, ms) in [(b"b", 200), (b"c", 600)] {
            let actions = smr[0].propose(op.to_vec(), at(10, ms));
            assert!(own_sends(&actions, 0).is_empty());
        }
        tick_all(&mut smr, at(10, 500), &mut decided);
        let actions = smr[0].tick(at(11, 0));
        assert_eq!(own_sends(&actions, 0), vec![10; 3]);
        assert!(actions.iter().all(|a| match a {
            Action::Send {
                msg: SmrMessage::SyncValue { batch, .. },
                ..
            } => batch == &[b"b".to_vec(), b"c".to_vec()],
            _ => true,
        }));
        carry_out(&mut smr, 0, actions, at(11, 0), &mut decided);
        let now = tick_until_decided(&mut smr, at(11, 0), &mut decided);
        assert_eq!(now, at(9 + rps, 0));
        assert!(decided.iter().all(|d| d == &[b"a".to_vec()]), "{decided:?}");
        tick_all(&mut smr, now + Duration::from_millis(500), &mut decided);
        assert!(decided.iter().all(|d| d.len() == 1), "{decided:?}");
        tick_all(&mut smr, at(10 + rps, 0), &mut decided);
        let all = [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        assert!(
            decided.iter().all(|d| d == &all),
            "b and c are decided together: {decided:?}"
        );
    }

    #[test]
    fn a_tick_in_the_second_half_of_a_round_never_sends_its_own_batch() {
        let mut smr = engines(4);
        for r in 10..16 {
            for ms in [500, 501, 750, 999] {
                let proposed = smr[0].propose(format!("op-{r}-{ms}").into_bytes(), at(r, ms));
                assert!(own_sends(&proposed, 0).is_empty(), "propose at {r}.{ms}");
                let ticked = smr[0].tick(at(r, ms));
                assert!(own_sends(&ticked, 0).is_empty(), "tick at {r}.{ms}");
            }
            let actions = smr[0].tick(at(r + 1, 0));
            assert_eq!(
                own_sends(&actions, 0),
                vec![r; 3],
                "first tick of {}",
                r + 1
            );
        }
    }

    #[test]
    fn a_batch_handed_to_one_member_after_the_relay_window_is_rejected() {
        // Regression: a value was accepted with the sender's signature alone
        // in any round until its slot finalized, but relayed only through
        // round `slot + f`. Faulty member 3 hands its slot-10 batch to member
        // 0 alone in round 12 (`slot + f + 1` at g = 4, f = 1): member 0
        // accepted it, did not relay it, and delivered it alone.
        let mut smr = engines(4);
        let mut decided = vec![Vec::new(); 4];
        for r in 10..=12 {
            tick_all(&mut smr, at(r, 0), &mut decided);
        }
        let batch = vec![b"injected".to_vec()];
        let digest = SyncSmr::<Vec<u8>>::batch_digest(10, NodeId::new(3), &batch);
        let signer = smr[3].signer.clone().expect("registered");
        let msg = SmrMessage::SyncValue {
            slot: 10,
            sender: NodeId::new(3),
            batch,
            chain: SignatureChain::new(digest, &signer),
        };
        let actions = smr[0].handle(NodeId::new(3), msg, at(12, 100));
        let held = smr[0].slots.get(&10).map(|s| &s.per_sender);
        assert!(
            held.is_none_or(|senders| !senders.contains_key(&NodeId::new(3))),
            "accepted: {actions:?}"
        );
        for r in 13..=15 {
            tick_all(&mut smr, at(r, 0), &mut decided);
        }
        assert!(decided.iter().all(Vec::is_empty), "{decided:?}");
    }

    #[test]
    fn an_equivocating_member_sends_one_conflicting_pair_per_slot() {
        let mut smr = engines(5);
        smr[4].set_byzantine(ByzantineMode::Equivocate);
        let mut values = Vec::new();
        for (i, ms) in [100, 400, 700].into_iter().enumerate() {
            let op = format!("evil-{i}").into_bytes();
            for action in smr[4].propose(op, at(10, ms)) {
                if let Action::Send {
                    msg: SmrMessage::SyncValue { slot, chain, .. },
                    ..
                } = action
                {
                    values.push((slot, *chain.payload()));
                }
            }
        }
        // Only the 100 ms proposal sends: the 400 ms one finds slot 9 taken,
        // and the 700 ms one is in the second half.
        assert_eq!(values.len(), 4, "one value per peer: {values:?}");
        assert!(values.iter().all(|&(slot, _)| slot == 9));
        let digests: std::collections::BTreeSet<_> = values.iter().map(|&(_, d)| d).collect();
        assert_eq!(digests.len(), 2, "one conflicting pair");
        // The next pair waits for the next slot.
        assert!(own_sends(&smr[4].tick(at(10, 900)), 4).is_empty());
        assert_eq!(own_sends(&smr[4].tick(at(11, 0)), 4), vec![10; 4]);
    }

    #[test]
    fn a_slot_that_has_not_opened_is_rejected() {
        // Regression: one validly signed value for slot `u64::MAX / 2`
        // overflowed the slot arithmetic (a panic in debug builds; in
        // release the slot could never finalize and stayed in memory).
        let mut smr = engines(4);
        let signer = smr[1].signer.clone().expect("registered");
        let now = Instant::from_micros(10_500_000); // round 10
        let mut offer = |slot: u64| {
            let batch = vec![b"far".to_vec()];
            let digest = SyncSmr::<Vec<u8>>::batch_digest(slot, NodeId::new(1), &batch);
            let msg = SmrMessage::SyncValue {
                slot,
                sender: NodeId::new(1),
                batch,
                chain: SignatureChain::new(digest, &signer),
            };
            !smr[0].handle(NodeId::new(1), msg, now).is_empty()
        };
        assert!(!offer(u64::MAX / 2));
        assert!(!offer(12), "two rounds ahead");
        assert!(offer(11), "a peer may be one round ahead");
        assert_eq!(smr[0].slots.keys().copied().collect::<Vec<_>>(), vec![11]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// 4–7 members, proposals at random members and half-rounds,
            /// and up to `f` members silent or equivocating: the correct
            /// members deliver the same ops in the same order, and each op
            /// a correct member proposed is decided within
            /// `rounds_per_slot()` rounds.
            #[test]
            fn correct_members_agree_in_order_within_a_slot(
                n in 4u64..8,
                faults in proptest::collection::vec(0u64..3, 3..4),
                proposals in proptest::collection::vec(0u64..1_000_000, 1..24),
                seed in 0u64..1_000,
            ) {
                let config = SmrConfig::default();
                let round = config.round;
                let f = (n - 1) / 2;
                let rps = f + 2;
                let mut cluster = LockstepCluster::new(n as usize, SmrMode::Synchronous, config, seed);
                // The top `f` ids may be faulty: 0 correct, 1 silent, 2 equivocating.
                let mut correct: Vec<NodeId> = (0..n).map(NodeId::new).collect();
                for (i, &mode) in faults.iter().take(f as usize).enumerate() {
                    let node = NodeId::new(n - 1 - i as u64);
                    let mode = match mode {
                        0 => continue,
                        1 => ByzantineMode::Silent,
                        _ => ByzantineMode::Equivocate,
                    };
                    cluster.set_byzantine(node, mode);
                    correct.retain(|&c| c != node);
                }
                // (half-round step, member) per op; 40 steps are 20 rounds.
                let plan: Vec<(u64, NodeId)> =
                    proposals.iter().map(|&p| (p % 40, NodeId::new(p / 40 % n))).collect();
                let mut proposed_at = BTreeMap::new();
                let mut decided_at: BTreeMap<(NodeId, Vec<u8>), Instant> = BTreeMap::new();
                for step in 0..40 + 2 * (rps + 2) {
                    for (i, &(at, node)) in plan.iter().enumerate() {
                        if at == step {
                            let op = format!("op-{i}").into_bytes();
                            if correct.contains(&node) {
                                proposed_at.insert(op.clone(), cluster.now());
                            }
                            cluster.propose(node, op);
                        }
                    }
                    cluster.step();
                    for &node in &correct {
                        for d in cluster.decided(node) {
                            decided_at.entry((node, d.op.clone())).or_insert(cluster.now());
                        }
                    }
                }
                let first = cluster.decided(correct[0]);
                for &node in &correct {
                    prop_assert_eq!(cluster.decided(node), first, "member {} diverged", node);
                }
                for (op, &at) in &proposed_at {
                    for &node in &correct {
                        let done = decided_at.get(&(node, op.clone()));
                        prop_assert!(
                            done.is_some_and(|&t| t <= at + round.saturating_mul(rps)),
                            "{:?} proposed at {:?}, decided at member {} at {:?}",
                            String::from_utf8_lossy(op), at, node, done
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forged_chain_is_rejected() {
        // A message whose chain was not produced by the claimed sender must
        // not be accepted.
        let mut registry = KeyRegistry::new();
        for i in 0..4 {
            registry.register(NodeId::new(i), 7);
        }
        let registry = registry.shared();
        let members: Composition = (0..4).map(NodeId::new).collect();
        let mut honest: SyncSmr<Vec<u8>> = SyncSmr::new(
            NodeId::new(0),
            members.clone(),
            SmrConfig::default(),
            registry.clone(),
            Instant::ZERO,
        );
        // Node 3 forges a value claiming to be from node 2 but signs with its
        // own key as the first link.
        let batch = vec![b"forged".to_vec()];
        let digest = SyncSmr::<Vec<u8>>::batch_digest(0, NodeId::new(2), &batch);
        let forger = registry.signer(NodeId::new(3)).unwrap();
        let chain = SignatureChain::new(digest, &forger);
        let actions = honest.handle(
            NodeId::new(3),
            SmrMessage::SyncValue {
                slot: 0,
                sender: NodeId::new(2),
                batch,
                chain,
            },
            Instant::from_micros(10),
        );
        assert!(actions.is_empty());
        // Nothing was accepted for sender 2.
        assert!(honest
            .slots
            .get(&0)
            .and_then(|s| s.per_sender.get(&NodeId::new(2)))
            .is_none());
    }
}
