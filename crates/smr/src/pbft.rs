//! Asynchronous (eventually synchronous) SMR in the style of PBFT.
//!
//! The protocol is the classic three-phase pattern: the primary of the
//! current view assigns sequence numbers and sends `PrePrepare`; backups echo
//! `Prepare`; once a replica has a pre-prepare plus prepares from `2f + 1`
//! distinct replicas it sends `Commit`; once it has `2f + 1` commits it
//! delivers the operation in sequence order. `f = ⌊(g−1)/3⌋`.
//!
//! When a replica's own proposals make no progress for four rounds
//! ([`SmrConfig::view_change_timeout`]), it votes to change the view. The
//! incoming primary collects `2f + 1` view-change votes, restates every
//! operation that was *prepared* anywhere in the quorum (such operations may
//! have been delivered by some replica and must keep their sequence number),
//! explicitly *skips* sequence numbers proven unused, and resumes ordering. This mirrors PBFT's new-view
//! construction with null requests filling the gaps.
//!
//! Checkpointing/garbage collection is simplified: delivered slots are pruned
//! immediately, which is adequate for the vgroup sizes Atum uses (a handful
//! to a few tens of members).

use crate::protocol::{Action, ByzantineMode, Decision, Replication, SmrConfig, SmrMessage, SmrOp};
use atum_crypto::{Digest, KeyRegistry};
use atum_types::{Composition, Instant, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Slot<O> {
    view: u64,
    op: Option<O>,
    digest: Option<Digest>,
    prepares: BTreeSet<NodeId>,
    commits: BTreeSet<NodeId>,
    sent_commit: bool,
    prepared: bool,
}

impl<O> Default for Slot<O> {
    fn default() -> Self {
        Slot {
            view: 0,
            op: None,
            digest: None,
            prepares: BTreeSet::new(),
            commits: BTreeSet::new(),
            sent_commit: false,
            prepared: false,
        }
    }
}

#[derive(Debug, Clone)]
struct PendingOp<O> {
    op: O,
    digest: Digest,
    since: Instant,
}

/// The asynchronous (PBFT-style) replication engine.
#[derive(Clone)]
pub struct AsyncSmr<O: SmrOp> {
    me: NodeId,
    members: Composition,
    config: SmrConfig,
    #[allow(dead_code)] // kept for parity with the synchronous engine / future message signing
    registry: Arc<KeyRegistry>,
    view: u64,
    /// Next sequence number this replica would assign as primary.
    next_seq: u64,
    /// Highest contiguously delivered sequence number (0 = nothing yet).
    last_delivered: u64,
    log: BTreeMap<u64, Slot<O>>,
    /// Sequence numbers proven unused by a new-view; treated as delivered.
    skips: BTreeSet<u64>,
    /// Digests the primary has already assigned, to deduplicate requests.
    /// Ordered (determinism lint): the set feeds state fingerprints.
    assigned: BTreeSet<Digest>,
    /// Operations this replica wants ordered and has not yet seen delivered.
    own_pending: Vec<PendingOp<O>>,
    /// Operations other replicas asked to have ordered (observed via
    /// re-broadcast requests); used to arm the view-change timer on backups
    /// that did not originate the request, as PBFT does.
    observed: Vec<PendingOp<O>>,
    /// View-change votes per target view: voter -> prepared ops they carry.
    /// The inner map is ordered: `maybe_enter_new_view` unions the votes
    /// first-wins, so iteration order is behaviour — a hash map here made
    /// the new-view op assignment (and with it whole async runs) differ
    /// between processes for the same seed. The outer map is now ordered
    /// too, so the whole engine state has a canonical rendering.
    vc_votes: BTreeMap<u64, BTreeMap<NodeId, Vec<(u64, O)>>>,
    /// The view this replica is currently trying to move to, if any.
    vc_target: Option<u64>,
    /// Last time this replica delivered something or reset its patience.
    last_progress: Instant,
    byzantine: ByzantineMode,
}

impl<O: SmrOp> std::fmt::Debug for AsyncSmr<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Skips the key registry (shared immutable infrastructure): this
        // rendering doubles as the model checker's canonical replica state.
        f.debug_struct("AsyncSmr")
            .field("me", &self.me)
            .field("members", &self.members)
            .field("view", &self.view)
            .field("next_seq", &self.next_seq)
            .field("last_delivered", &self.last_delivered)
            .field("log", &self.log)
            .field("skips", &self.skips)
            .field("assigned", &self.assigned)
            .field("own_pending", &self.own_pending)
            .field("observed", &self.observed)
            .field("vc_votes", &self.vc_votes)
            .field("vc_target", &self.vc_target)
            .field("last_progress", &self.last_progress)
            .field("byzantine", &self.byzantine)
            .finish()
    }
}

impl<O: SmrOp> AsyncSmr<O> {
    /// Creates an engine for member `me` of `members`.
    pub fn new(
        me: NodeId,
        members: Composition,
        config: SmrConfig,
        registry: Arc<KeyRegistry>,
        start: Instant,
    ) -> Self {
        assert!(members.contains(me), "engine owner must be a group member");
        AsyncSmr {
            me,
            members,
            config,
            registry,
            view: 0,
            next_seq: 1,
            last_delivered: 0,
            log: BTreeMap::new(),
            skips: BTreeSet::new(),
            assigned: BTreeSet::new(),
            own_pending: Vec::new(),
            observed: Vec::new(),
            vc_votes: BTreeMap::new(),
            vc_target: None,
            last_progress: start,
            byzantine: ByzantineMode::Correct,
        }
    }

    /// Number of faults tolerated: ⌊(g−1)/3⌋.
    pub fn max_faults(&self) -> usize {
        self.members.len().saturating_sub(1) / 3
    }

    /// Quorum size: `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.max_faults() + 1
    }

    /// The primary of a view.
    pub fn primary_of(&self, view: u64) -> NodeId {
        self.members
            .member_at((view % self.members.len() as u64) as usize)
            .expect("group is never empty")
    }

    /// The primary of the current view.
    pub fn current_primary(&self) -> NodeId {
        self.primary_of(self.view)
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Number of own operations still awaiting delivery.
    pub fn pending_len(&self) -> usize {
        self.own_pending.len()
    }

    fn broadcast(&self, msg: SmrMessage<O>, actions: &mut Vec<Action<O>>) {
        for peer in self.members.iter().filter(|&p| p != self.me) {
            actions.push(Action::Send {
                to: peer,
                msg: msg.clone(),
            });
        }
    }

    /// Primary-side: assign a sequence number to `op` and start ordering it.
    fn assign_and_preprepare(&mut self, op: O, actions: &mut Vec<Action<O>>) {
        let digest = op.digest();
        if self.assigned.contains(&digest) {
            return;
        }
        self.assigned.insert(digest);
        let seq = self.next_seq;
        self.next_seq += 1;
        let view = self.view;
        let me = self.me;
        let slot = self.log.entry(seq).or_default();
        slot.view = view;
        slot.op = Some(op.clone());
        slot.digest = Some(digest);
        slot.prepares.insert(me);
        let preprepare = SmrMessage::PrePrepare { view, seq, op };
        match self.byzantine {
            ByzantineMode::Correct => self.broadcast(preprepare, actions),
            ByzantineMode::Equivocate => {
                // Partial broadcast: only half of the peers learn the
                // assignment; the protocol must still make progress via view
                // change or fail to deliver, but never diverge.
                let peers: Vec<NodeId> = self.members.iter().filter(|&p| p != self.me).collect();
                for peer in peers.iter().take(peers.len() / 2) {
                    actions.push(Action::Send {
                        to: *peer,
                        msg: preprepare.clone(),
                    });
                }
            }
            ByzantineMode::Silent => {}
        }
        self.maybe_advance(seq, actions);
    }

    /// Checks whether `seq` can move to prepared/committed/delivered state.
    fn maybe_advance(&mut self, seq: u64, actions: &mut Vec<Action<O>>) {
        let quorum = self.quorum();
        let me = self.me;
        let view = self.view;
        let Some(slot) = self.log.get_mut(&seq) else {
            return;
        };
        if slot.op.is_none() {
            return;
        }
        // Prepared: pre-prepare (primary's vote) + enough prepares.
        if !slot.prepared && slot.prepares.len() >= quorum {
            slot.prepared = true;
        }
        if slot.prepared && !slot.sent_commit && self.byzantine == ByzantineMode::Correct {
            slot.sent_commit = true;
            slot.commits.insert(me);
            let digest = slot.digest.expect("prepared slot has a digest");
            let msg = SmrMessage::Commit { view, seq, digest };
            let peers: Vec<NodeId> = self.members.iter().filter(|&p| p != me).collect();
            for peer in peers {
                actions.push(Action::Send {
                    to: peer,
                    msg: msg.clone(),
                });
            }
        }
        self.deliver_ready(actions);
    }

    /// Delivers committed slots in contiguous sequence order.
    fn deliver_ready(&mut self, actions: &mut Vec<Action<O>>) {
        let quorum = self.quorum();
        loop {
            let next = self.last_delivered + 1;
            if self.skips.contains(&next) {
                self.skips.remove(&next);
                self.last_delivered = next;
                continue;
            }
            let ready = match self.log.get(&next) {
                Some(slot) => slot.prepared && slot.commits.len() >= quorum && slot.op.is_some(),
                None => false,
            };
            if !ready {
                break;
            }
            let slot = self.log.remove(&next).expect("checked above");
            let op = slot.op.expect("checked above");
            let digest = slot.digest.expect("slot with op has digest");
            self.own_pending.retain(|p| p.digest != digest);
            self.observed.retain(|p| p.digest != digest);
            self.last_delivered = next;
            if self.next_seq <= next {
                self.next_seq = next + 1;
            }
            actions.push(Action::Deliver(Decision {
                seq: next,
                proposer: self.primary_of(slot.view),
                op,
            }));
        }
    }

    /// Starts (or escalates) a view change towards `target`.
    fn start_view_change(&mut self, target: u64, actions: &mut Vec<Action<O>>) {
        if self.byzantine != ByzantineMode::Correct {
            return;
        }
        if target <= self.view {
            return;
        }
        if self.vc_target == Some(target) {
            return;
        }
        self.vc_target = Some(target);
        let prepared: Vec<(u64, O)> = self
            .log
            .iter()
            .filter(|(seq, slot)| **seq > self.last_delivered && slot.prepared)
            .filter_map(|(seq, slot)| slot.op.clone().map(|op| (*seq, op)))
            .collect();
        self.vc_votes
            .entry(target)
            .or_default()
            .insert(self.me, prepared.clone());
        self.broadcast(
            SmrMessage::ViewChange {
                new_view: target,
                prepared,
            },
            actions,
        );
        self.maybe_enter_new_view(target, actions);
    }

    /// If this replica is the primary of `target` and has a quorum of
    /// view-change votes, construct and distribute the new view.
    fn maybe_enter_new_view(&mut self, target: u64, actions: &mut Vec<Action<O>>) {
        if self.primary_of(target) != self.me || target <= self.view {
            return;
        }
        let votes = match self.vc_votes.get(&target) {
            Some(v) if v.len() >= self.quorum() => v.clone(),
            _ => return,
        };
        // Union of prepared operations, keyed by sequence number.
        let mut kept: BTreeMap<u64, O> = BTreeMap::new();
        for prepared in votes.values() {
            for (seq, op) in prepared {
                kept.entry(*seq).or_insert_with(|| op.clone());
            }
        }
        let max_kept = kept.keys().max().copied().unwrap_or(self.last_delivered);
        let skips: Vec<u64> = (self.last_delivered + 1..=max_kept)
            .filter(|s| !kept.contains_key(s))
            .collect();
        let ops: Vec<(u64, O)> = kept.into_iter().collect();
        let msg = SmrMessage::NewView {
            view: target,
            ops: ops.clone(),
            skips: skips.clone(),
        };
        self.broadcast(msg, actions);
        self.adopt_new_view(target, ops, skips, actions);
    }

    /// Applies a new view locally (both on the new primary and on backups).
    fn adopt_new_view(
        &mut self,
        view: u64,
        ops: Vec<(u64, O)>,
        skips: Vec<u64>,
        actions: &mut Vec<Action<O>>,
    ) {
        self.view = view;
        self.vc_target = None;
        self.vc_votes.retain(|v, _| *v > view);
        // Drop stale, never-prepared slots from older views; they are either
        // restated below or covered by the skip set.
        self.log
            .retain(|_, slot| slot.prepared || slot.view >= view);
        for s in &skips {
            if *s > self.last_delivered {
                self.skips.insert(*s);
            }
        }
        let mut max_seq = self.last_delivered;
        let me = self.me;
        let primary = self.primary_of(view);
        for (seq, op) in ops {
            max_seq = max_seq.max(seq);
            if seq <= self.last_delivered {
                continue;
            }
            let digest = op.digest();
            self.assigned.insert(digest);
            let slot = self.log.entry(seq).or_default();
            slot.view = view;
            slot.op = Some(op);
            slot.digest = Some(digest);
            slot.prepared = false;
            slot.sent_commit = false;
            slot.prepares.insert(primary);
            slot.prepares.insert(me);
            if me != primary && self.byzantine == ByzantineMode::Correct {
                let msg = SmrMessage::Prepare { view, seq, digest };
                let peers: Vec<NodeId> = self.members.iter().filter(|&p| p != me).collect();
                for peer in peers {
                    actions.push(Action::Send {
                        to: peer,
                        msg: msg.clone(),
                    });
                }
            }
        }
        self.next_seq = self.next_seq.max(max_seq + 1);
        self.last_progress = self.last_progress.max(Instant::ZERO);
        // Re-submit own pending operations to the new primary.
        let pending: Vec<O> = self.own_pending.iter().map(|p| p.op.clone()).collect();
        if self.byzantine == ByzantineMode::Correct {
            for op in pending {
                if self.current_primary() == self.me {
                    self.assign_and_preprepare(op, actions);
                } else {
                    actions.push(Action::Send {
                        to: self.current_primary(),
                        msg: SmrMessage::Request { op },
                    });
                }
            }
        }
        let seqs: Vec<u64> = self.log.keys().copied().collect();
        for seq in seqs {
            self.maybe_advance(seq, actions);
        }
        self.deliver_ready(actions);
    }
}

impl<O: SmrOp> Replication<O> for AsyncSmr<O> {
    fn propose(&mut self, op: O, now: Instant) -> Vec<Action<O>> {
        let mut actions = Vec::new();
        if self.byzantine == ByzantineMode::Silent {
            return actions;
        }
        self.own_pending.push(PendingOp {
            digest: op.digest(),
            op: op.clone(),
            since: now,
        });
        if self.current_primary() == self.me {
            self.assign_and_preprepare(op, &mut actions);
        } else {
            actions.push(Action::Send {
                to: self.current_primary(),
                msg: SmrMessage::Request { op },
            });
        }
        actions
    }

    fn handle(&mut self, from: NodeId, msg: SmrMessage<O>, now: Instant) -> Vec<Action<O>> {
        let mut actions = Vec::new();
        if self.byzantine == ByzantineMode::Silent {
            return actions;
        }
        if !self.members.contains(from) {
            return actions;
        }
        match msg {
            SmrMessage::Request { op } => {
                if self.current_primary() == self.me {
                    self.assign_and_preprepare(op, &mut actions);
                } else {
                    // Remember the request so that, like PBFT backups that
                    // receive a client request, we start suspecting the
                    // primary if it never orders it.
                    let digest = op.digest();
                    if !self.observed.iter().any(|p| p.digest == digest)
                        && !self.own_pending.iter().any(|p| p.digest == digest)
                    {
                        self.observed.push(PendingOp {
                            op,
                            digest,
                            since: now,
                        });
                    }
                }
            }
            SmrMessage::PrePrepare { view, seq, op } => {
                if view != self.view || from != self.primary_of(view) || seq <= self.last_delivered
                {
                    return actions;
                }
                let digest = op.digest();
                let me = self.me;
                let slot = self.log.entry(seq).or_default();
                // Refuse to overwrite a slot already prepared with different
                // content (safety), but allow adopting content for newer
                // views or empty slots.
                if slot.prepared && slot.digest.is_some_and(|d| d != digest) {
                    return actions;
                }
                if slot.digest.is_some_and(|d| d != digest) && slot.view >= view {
                    return actions;
                }
                slot.view = view;
                slot.op = Some(op);
                slot.digest = Some(digest);
                slot.prepares.insert(from);
                slot.prepares.insert(me);
                let prepare = SmrMessage::Prepare { view, seq, digest };
                self.broadcast(prepare, &mut actions);
                self.maybe_advance(seq, &mut actions);
            }
            SmrMessage::Prepare { view, seq, digest } => {
                if view != self.view || seq <= self.last_delivered {
                    return actions;
                }
                let slot = self.log.entry(seq).or_default();
                if slot.digest.is_some_and(|d| d != digest) {
                    return actions;
                }
                slot.prepares.insert(from);
                self.maybe_advance(seq, &mut actions);
            }
            SmrMessage::Commit { view, seq, digest } => {
                if view != self.view || seq <= self.last_delivered {
                    return actions;
                }
                let slot = self.log.entry(seq).or_default();
                if slot.digest.is_some_and(|d| d != digest) {
                    return actions;
                }
                slot.commits.insert(from);
                self.maybe_advance(seq, &mut actions);
            }
            SmrMessage::ViewChange { new_view, prepared } => {
                if new_view <= self.view {
                    return actions;
                }
                self.vc_votes
                    .entry(new_view)
                    .or_default()
                    .insert(from, prepared);
                let votes = self.vc_votes.get(&new_view).map(|v| v.len()).unwrap_or(0);
                // Join the view change once f+1 replicas vouch for it, so a
                // single faulty replica cannot drag the group through views.
                if votes > self.max_faults() && self.vc_target.is_none_or(|t| t < new_view) {
                    self.start_view_change(new_view, &mut actions);
                }
                self.maybe_enter_new_view(new_view, &mut actions);
            }
            SmrMessage::NewView { view, ops, skips } => {
                if view < self.view || from != self.primary_of(view) {
                    return actions;
                }
                self.adopt_new_view(view, ops, skips, &mut actions);
                self.last_progress = now;
            }
            SmrMessage::SyncValue { .. } => {}
        }
        if actions.iter().any(|a| matches!(a, Action::Deliver(_))) {
            self.last_progress = now;
        }
        actions
    }

    fn tick(&mut self, now: Instant) -> Vec<Action<O>> {
        let mut actions = Vec::new();
        if self.byzantine == ByzantineMode::Silent {
            return actions;
        }
        if self.own_pending.is_empty() && self.observed.is_empty() {
            return actions;
        }
        let timeout = self.config.view_change_timeout();
        let oldest = self
            .own_pending
            .iter()
            .chain(self.observed.iter())
            .map(|p| p.since)
            .min()
            .unwrap_or(now);
        let stalled_since = oldest.max(self.last_progress);
        if now.saturating_since(stalled_since) >= timeout {
            // Re-broadcast our own stuck requests so every replica arms its
            // own suspicion timer (PBFT clients do this by multicasting the
            // request after a timeout).
            let stuck: Vec<O> = self.own_pending.iter().map(|p| p.op.clone()).collect();
            for op in stuck {
                self.broadcast(SmrMessage::Request { op }, &mut actions);
            }
            let target = self.vc_target.unwrap_or(self.view).max(self.view) + 1;
            self.last_progress = now;
            self.start_view_change(target, &mut actions);
        }
        actions
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
    use atum_types::SmrMode;

    fn cluster(n: usize, seed: u64) -> LockstepCluster {
        LockstepCluster::new(n, SmrMode::Asynchronous, SmrConfig::default(), seed)
    }

    #[test]
    fn quorum_arithmetic() {
        let mut registry = KeyRegistry::new();
        for i in 0..7 {
            registry.register(NodeId::new(i), 1);
        }
        let members: Composition = (0..7).map(NodeId::new).collect();
        let smr: AsyncSmr<Vec<u8>> = AsyncSmr::new(
            NodeId::new(0),
            members,
            SmrConfig::default(),
            registry.shared(),
            Instant::ZERO,
        );
        assert_eq!(smr.max_faults(), 2);
        assert_eq!(smr.quorum(), 5);
        assert_eq!(smr.primary_of(0), NodeId::new(0));
        assert_eq!(smr.primary_of(8), NodeId::new(1));
    }

    #[test]
    fn primary_proposal_is_delivered_by_all() {
        let mut c = cluster(4, 1);
        c.propose(NodeId::new(0), b"from-primary".to_vec());
        c.run_to_quiescence();
        c.assert_agreement();
        for i in 0..4 {
            let d = c.decided(NodeId::new(i));
            assert_eq!(d.len(), 1, "node {i}");
            assert_eq!(d[0].op, b"from-primary".to_vec());
        }
    }

    #[test]
    fn backup_proposal_is_forwarded_and_delivered() {
        let mut c = cluster(4, 2);
        c.propose(NodeId::new(3), b"from-backup".to_vec());
        c.run_to_quiescence();
        c.assert_agreement();
        assert_eq!(c.decided(NodeId::new(0)).len(), 1);
    }

    #[test]
    fn many_proposals_from_all_replicas_agree() {
        let mut c = cluster(7, 3);
        for i in 0..7u64 {
            c.propose(NodeId::new(i), format!("op{i}").into_bytes());
            c.propose(NodeId::new(i), format!("op{i}b").into_bytes());
        }
        c.run_to_quiescence();
        c.assert_agreement();
        assert_eq!(c.decided(NodeId::new(4)).len(), 14);
        // Sequence numbers are contiguous starting at 1.
        let seqs: Vec<u64> = c.decided(NodeId::new(4)).iter().map(|d| d.seq).collect();
        assert_eq!(seqs, (1..=14).collect::<Vec<u64>>());
    }

    #[test]
    fn silent_backups_do_not_prevent_progress() {
        let mut c = cluster(7, 4);
        c.set_byzantine(NodeId::new(5), ByzantineMode::Silent);
        c.set_byzantine(NodeId::new(6), ByzantineMode::Silent);
        c.propose(NodeId::new(1), b"still-works".to_vec());
        c.run_to_quiescence();
        let correct: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        c.assert_agreement_among(&correct);
        for n in &correct {
            assert_eq!(c.decided(*n).len(), 1);
        }
    }

    #[test]
    fn silent_primary_triggers_view_change_and_delivery_resumes() {
        let mut c = cluster(4, 5);
        // Node 0 is the primary of view 0; make it silent.
        c.set_byzantine(NodeId::new(0), ByzantineMode::Silent);
        c.propose(NodeId::new(2), b"needs-view-change".to_vec());
        c.run_for_secs(120);
        let correct: Vec<NodeId> = (1..4).map(NodeId::new).collect();
        c.assert_agreement_among(&correct);
        for n in &correct {
            assert_eq!(
                c.decided(*n).len(),
                1,
                "node {n} should deliver after view change"
            );
        }
        // The view advanced beyond 0.
        assert!(c.async_view(NodeId::new(1)) > 0);
    }

    #[test]
    fn equivocating_primary_cannot_cause_divergence() {
        let mut c = cluster(4, 6);
        c.set_byzantine(NodeId::new(0), ByzantineMode::Equivocate);
        c.propose(NodeId::new(0), b"evil".to_vec());
        c.propose(NodeId::new(1), b"good".to_vec());
        c.run_for_secs(180);
        let correct: Vec<NodeId> = (1..4).map(NodeId::new).collect();
        // Whatever was delivered, correct replicas must agree on it.
        c.assert_agreement_among(&correct);
        // The good operation eventually gets through (after view change).
        let ops: Vec<Vec<u8>> = c
            .decided(NodeId::new(1))
            .iter()
            .map(|d| d.op.clone())
            .collect();
        assert!(ops.contains(&b"good".to_vec()));
    }

    #[test]
    fn duplicate_requests_are_assigned_once() {
        let mut c = cluster(4, 7);
        c.propose(NodeId::new(1), b"dup".to_vec());
        c.propose(NodeId::new(2), b"dup".to_vec());
        c.run_to_quiescence();
        c.assert_agreement();
        assert_eq!(c.decided(NodeId::new(0)).len(), 1);
    }

    #[test]
    fn successive_view_changes_when_multiple_primaries_fail() {
        let mut c = cluster(7, 8);
        // Primaries of views 0 and 1 are both silent.
        c.set_byzantine(NodeId::new(0), ByzantineMode::Silent);
        c.set_byzantine(NodeId::new(1), ByzantineMode::Silent);
        c.propose(NodeId::new(3), b"two-hops".to_vec());
        c.run_for_secs(300);
        let correct: Vec<NodeId> = (2..7).map(NodeId::new).collect();
        c.assert_agreement_among(&correct);
        for n in &correct {
            assert_eq!(c.decided(*n).len(), 1, "node {n}");
        }
        assert!(c.async_view(NodeId::new(2)) >= 2);
    }
}
