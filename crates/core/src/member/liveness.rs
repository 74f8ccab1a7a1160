//! The liveness part of a membership: failure detection on this node's own
//! clock, and the fence (see the [parent module](super)).

use super::{Effect, Ending};
use crate::broadcast::View;
use crate::message::{AtumMessage, GroupOp};
use atum_crypto::KeyRegistry;
use atum_smr::{Engine, SmrConfig};
use atum_types::{Composition, Instant, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Whether this membership may decide: the one liveness rule of a
/// membership. It decides until the fence closes (see
/// [`Liveness::close_fence`]), and a closed fence ends the membership
/// unless a catch-up `Welcome` replaces it first.
// One per membership: boxing the engine for the sake of the rare small
// variant would save nothing and add an indirection to every SMR call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Fence {
    /// The SMR engine runs.
    Deciding(Engine<GroupOp>),
    /// The engine is gone since the first instant, and the member last
    /// solicited state at the second (see [`Liveness::fenced_duties`]).
    Fenced(Instant, Option<Instant>),
}

/// The fence of a fresh configuration: deciding, with a new SMR engine,
/// for a node the composition lists, and closed for good for one it does
/// not (that membership is ending).
fn fresh_fence(view: &View<'_>, registry: &Arc<KeyRegistry>) -> Fence {
    let composition = &view.composition;
    if !composition.contains(view.me) {
        return Fence::Fenced(Instant::ZERO, None);
    }
    Fence::Deciding(Engine::new(
        view.params.smr,
        view.me,
        composition.clone(),
        SmrConfig {
            round: view.params.round,
        },
        registry.clone(),
        Instant::ZERO,
    ))
}

/// Failure detection and the fence: the part of a membership that runs on
/// this member's own clock, so members of one vgroup may disagree on it.
#[derive(Debug, Clone)]
pub(super) struct Liveness {
    fence: Fence,
    last_heard: BTreeMap<NodeId, Instant>,
    /// Peers we have actually received a message from since they (or we)
    /// entered this composition. A composition entry that never activates is
    /// a stranded admission ("ghost") and is evicted on a much shorter fuse
    /// than a member that was alive and went silent.
    activated: BTreeSet<NodeId>,
    last_heartbeat_sent: Instant,
    /// Per-peer record of the configuration epoch we last offered a
    /// catch-up [`AtumMessage::Welcome`] for, so a lagging member's
    /// retransmissions do not get answered with a full state transfer each
    /// time (once per epoch per peer is exactly what its quorum needs). A
    /// node the composition no longer lists is recorded at its own older
    /// epoch until the next tick tells it ours (see
    /// [`Self::tell_stragglers`]); composition changes drop such entries.
    caught_up: BTreeMap<NodeId, u64>,
}

impl Liveness {
    /// The failure detector of a membership that starts `now` in `view`'s
    /// configuration. The eviction clock for every peer starts now: a peer
    /// is "silent" only relative to the moment we learned this composition,
    /// otherwise a freshly welcomed member instantly accuses everyone it has
    /// not heard from yet.
    pub(super) fn new(view: &View<'_>, registry: &Arc<KeyRegistry>, now: Instant) -> Self {
        let me = view.me;
        let peers = view.composition.iter().filter(|&p| p != me);
        Liveness {
            fence: fresh_fence(view, registry),
            last_heard: peers.map(|p| (p, now)).collect(),
            activated: BTreeSet::new(),
            last_heartbeat_sent: now,
            caught_up: BTreeMap::new(),
        }
    }

    /// The reset of a decided composition change, to `view`'s
    /// configuration: a fresh fence, and the failure-detection state of
    /// departed members dropped. Keeping it would make a later re-admission
    /// of the same node inherit a stale `last_heard` timestamp and be
    /// instantly re-accused before its Welcome quorum can even assemble.
    /// Members that just entered get their eviction clock started now (see
    /// [`Self::new`]).
    pub(super) fn reconfigure(
        &mut self,
        view: &View<'_>,
        registry: &Arc<KeyRegistry>,
        now: Instant,
    ) {
        let composition = &view.composition;
        self.last_heard.retain(|p, _| composition.contains(*p));
        self.activated.retain(|p| composition.contains(*p));
        self.caught_up.retain(|p, _| composition.contains(*p));
        for peer in composition.iter().filter(|&p| p != view.me) {
            self.last_heard.entry(peer).or_insert(now);
        }
        self.fence = fresh_fence(view, registry);
    }

    /// The SMR engine, while the fence is open.
    pub(super) fn engine(&mut self) -> Option<&mut Engine<GroupOp>> {
        match &mut self.fence {
            Fence::Deciding(engine) => Some(engine),
            Fence::Fenced(..) => None,
        }
    }

    /// `true` once the fence has closed.
    pub(super) fn fenced(&self) -> bool {
        matches!(self.fence, Fence::Fenced(..))
    }

    /// `peer` spoke on intra-group traffic (heartbeats, SMR, repair).
    pub(super) fn note_alive(&mut self, peer: NodeId, composition: &Composition, now: Instant) {
        if composition.contains(peer) {
            self.last_heard.insert(peer, now);
            self.activated.insert(peer);
        }
    }

    /// The composition peers heard within the last eviction window, this
    /// member left out (see
    /// [`MemberState::presumed_live`](super::MemberState::presumed_live)).
    pub(super) fn live_peers<'a>(
        &'a self,
        view: &'a View<'_>,
        now: Instant,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let (period, threshold) = (view.params.heartbeat_period, view.params.eviction_threshold);
        let window = period.saturating_mul(threshold as u64);
        let heard = move |p: &NodeId| self.last_heard.get(p).is_some_and(|t| now - *t <= window);
        let peers = view.composition.iter();
        peers.filter(move |p| *p != view.me && heard(p))
    }

    /// Seconds since `peer` was last heard, and whether it has activated.
    pub(super) fn heard(&self, peer: NodeId, now: Instant) -> (f64, bool) {
        let last = self.last_heard.get(&peer).copied().unwrap_or(Instant::ZERO);
        let silence = now.saturating_since(last).as_secs_f64();
        (silence, self.activated.contains(&peer))
    }

    /// Closes the fence when no peer was heard for an eviction window.
    /// Alone, this member can never gather the accusations that would
    /// shrink its composition back to a working quorum, and a synchronous
    /// engine left running would decide its own proposals alone. (A
    /// 2-member survivor is not fenced: its own accusation evicts its silent
    /// peer, and it decides on as a singleton.)
    pub(super) fn check_isolation(&mut self, view: &View<'_>, now: Instant) {
        if view.composition.len() >= 3 && self.live_peers(view, now).next().is_none() {
            self.close_fence(2, view, now);
        }
    }

    /// Closes the fence: the engine is dropped, so nothing more is decided
    /// in this membership. `cause` is 1 for a composition peer claiming a
    /// newer epoch (see [`Self::on_peer_epoch`]) and 2 for no peer presumed
    /// live (see [`Self::check_isolation`]).
    fn close_fence(&mut self, cause: u64, view: &View<'_>, now: Instant) {
        if !self.fenced() {
            self.trace_fence(cause, view, now);
            self.fence = Fence::Fenced(now, None);
        }
    }

    /// One `Join` trace event of the fence: `code` is the cause it closed
    /// on (see [`Self::close_fence`]), or 3 when it ends the membership.
    fn trace_fence(&self, code: u64, view: &View<'_>, now: Instant) {
        let (vgroup, epoch) = (view.vgroup, view.epoch);
        atum_obs::trace_event!(
            Join,
            at = now.as_micros(),
            node = view.me.raw(),
            slots = [code, epoch, self.live_peers(view, now).count() as u64],
            "fence {code} in vgroup {:?} at epoch {}",
            vgroup,
            epoch
        );
    }

    /// What a fenced member does on a tick. It solicits a catch-up Welcome
    /// from its peers; they answer with a state transfer, and the
    /// receiver-side quorum rule makes that safe. This is throttled: a
    /// quorum of welcomes per solicitation round is all it can consume, so
    /// asking more often than every couple of rounds is pure amplification.
    /// After 20 rounds without one the vgroup almost certainly moved on
    /// without this member, and it gives the membership up, once: the
    /// ending is its last request. Re-joining takes the direct-admission
    /// fast path, so giving up early is cheap.
    pub(super) fn fenced_duties(
        &mut self,
        view: &View<'_>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        let Fence::Fenced(since, last_request) = self.fence else {
            return;
        };
        let patience = view.params.round.saturating_mul(20);
        let past = |t: Instant| t.saturating_since(since) > patience;
        let gap = view.params.round.saturating_mul(2);
        if past(now) {
            if last_request.is_some_and(past) {
                return;
            }
            self.trace_fence(3, view, now);
            effects.push(Effect::MembershipEnded(Ending::Stranded));
        } else if last_request.is_some_and(|t| now.saturating_since(t) < gap) {
            return;
        } else {
            let (group, epoch) = (view.vgroup, view.epoch);
            for to in view.composition.iter().filter(|&p| p != view.me) {
                let msg = AtumMessage::StateRequest { group, epoch };
                effects.push(Effect::Send { to, msg });
            }
        }
        self.fence = Fence::Fenced(since, Some(now));
    }

    /// A peer of this vgroup spoke at another epoch (on SMR traffic or a
    /// heartbeat).
    ///
    /// A sender at an older epoch is stuck in an earlier configuration: it
    /// missed the op that ended that epoch. Epoch-mismatched messages are
    /// dropped, so without help it stays forked forever. It is told once per
    /// epoch, because it keeps retransmitting on its round timers and
    /// answering every retransmission would be pure amplification. A
    /// composition member is offered our state; welcomes are idempotent and
    /// quorum-checked by the receiver, so this is safe. A node that this
    /// composition no longer lists (evicted, or reconfigured out while it
    /// lagged) is noted in `caught_up` at its own epoch, and told ours by
    /// [`Self::tell_stragglers`].
    ///
    /// A composition member at a newer epoch means the vgroup moved on
    /// without us: close the fence. A single claim is enough. After a quiet
    /// reconfiguration the one peer ahead may be the only traffic source,
    /// and an engine left running in the dead epoch forks this member's
    /// state (phantom splits with diverging vgroup ids). A forged claim only
    /// costs a catch-up or a re-join, so a Byzantine member can cause
    /// disruption, not divergence.
    pub(super) fn on_peer_epoch(
        &mut self,
        from: NodeId,
        epoch: u64,
        view: &View<'_>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        let member = view.composition.contains(from);
        let ours = view.epoch;
        if epoch > ours && member {
            self.close_fence(1, view, now);
        } else if epoch < ours && self.caught_up.get(&from) != Some(&ours) {
            self.caught_up
                .insert(from, if member { ours } else { epoch });
            if member {
                view.send_welcome(from, effects);
            }
        }
    }

    /// A node this composition no longer lists spoke at an older epoch (see
    /// [`Self::on_peer_epoch`]): heartbeat it ours, once. Its stale
    /// composition still lists us, so that closes its fence before its
    /// engine can decide its own proposals alone. Telling it a tick later,
    /// not on receipt, spares a member that is merely a tick behind: it
    /// decides its own removal at its next tick first.
    pub(super) fn tell_stragglers(&mut self, view: &View<'_>, effects: &mut Vec<Effect>) {
        let (group, epoch) = (view.vgroup, view.epoch);
        for (&to, told) in &mut self.caught_up {
            if *told < epoch && !view.composition.contains(to) {
                *told = epoch;
                let msg = AtumMessage::Heartbeat { group, epoch };
                effects.push(Effect::Send { to, msg });
            }
        }
    }

    /// Once per heartbeat period: heartbeats every peer, re-welcomes the
    /// entries that never activated, and returns the peers to accuse.
    pub(super) fn heartbeat(
        &mut self,
        view: &View<'_>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> Vec<NodeId> {
        let period = view.params.heartbeat_period;
        let mut accuse: Vec<NodeId> = Vec::new();
        if now.saturating_since(self.last_heartbeat_sent) < period {
            return accuse;
        }
        self.last_heartbeat_sent = now;
        let (group, epoch) = (view.vgroup, view.epoch);
        let peers = || view.composition.iter().filter(|&p| p != view.me);
        for peer in peers() {
            let msg = AtumMessage::Heartbeat { group, epoch };
            effects.push(Effect::Send { to: peer, msg });
        }
        let eviction_after = period.saturating_mul(view.params.eviction_threshold as u64);
        // A composition entry we have never heard from is a stranded
        // admission (its Welcome quorum failed mid-churn), not a crashed
        // member: it is evicted on a two-period fuse before it can drag the
        // vgroup's quorums down, and re-welcomed in the meantime in case it
        // can still activate.
        let ghost_after = period.saturating_mul(2);
        for peer in peers() {
            let last = self.last_heard.get(&peer).copied().unwrap_or(Instant::ZERO);
            let silence = now.saturating_since(last);
            let activated = self.activated.contains(&peer);
            if silence
                > if activated {
                    eviction_after
                } else {
                    ghost_after
                }
            {
                accuse.push(peer);
            } else if silence > period && !activated {
                // Priority catch-up traffic: a never-activated entry is
                // re-welcomed once per period so a stranded node can still
                // accumulate its quorum — welcomes are idempotent and the
                // receiver's pending quorum spans epochs.
                view.send_welcome(peer, effects);
            }
        }
        accuse
    }
}
