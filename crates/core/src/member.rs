//! The state and protocol logic of a node that is a member of a vgroup.
//!
//! [`MemberState`] is a pure state machine: its methods consume events
//! (decided operations, accepted group messages, timer ticks) and return
//! [`Effect`]s for the hosting [`AtumNode`](crate::AtumNode) to carry out
//! (messages to send, application deliveries). Keeping it free of I/O makes
//! the group-layer logic unit-testable without a network.

use crate::app::Delivered;
use crate::broadcast::{repair_metrics, Session, View};
use crate::message::{AtumMessage, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
use atum_crypto::{Digest, KeyRegistry};
use atum_overlay::{GroupMessageCollector, NeighborTable, Observed, WalkPurpose, WalkState};
use atum_smr::{Action, Engine, Replication, SmrConfig, SmrMessage};
use atum_types::{BroadcastId, Composition, Instant, NodeId, Params, VgroupId, WalkId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// This membership as the broadcast plane sees it, built inline so the
/// borrows stay disjoint from `self.session` (and from `self.engine`).
macro_rules! view {
    ($member:ident) => {
        View {
            me: $member.me,
            vgroup: $member.vgroup,
            composition: &$member.composition,
            neighbors: &$member.neighbors,
            params: &$member.params,
        }
    };
}

/// Whether this membership may decide: the one liveness rule of a
/// membership. It decides until the fence closes (see
/// [`MemberState::close_fence`]), and a closed fence ends the membership
/// unless a catch-up `Welcome` replaces it first.
// One per membership: boxing the engine for the sake of the rare small
// variant would save nothing and add an indirection to every SMR call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Fence {
    /// The SMR engine runs.
    Deciding(Engine<GroupOp>),
    /// The engine is gone since the first instant, and the member last
    /// solicited state at the second (see [`MemberState::fenced_duties`]).
    Fenced(Instant, Option<Instant>),
}

/// The fence of a fresh configuration: deciding, with a new SMR engine,
/// for a node the composition lists, and closed for good for one it does
/// not (that membership is ending).
fn fresh_fence(
    me: NodeId,
    params: &Params,
    registry: &Arc<KeyRegistry>,
    composition: &Composition,
) -> Fence {
    if !composition.contains(me) {
        return Fence::Fenced(Instant::ZERO, None);
    }
    Fence::Deciding(Engine::new(
        params.smr,
        me,
        composition.clone(),
        SmrConfig {
            round: params.round,
        },
        registry.clone(),
        Instant::ZERO,
    ))
}

/// What the member logic asks its host to do.
#[derive(Debug)]
pub enum Effect {
    /// Send a message to another node.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message to send.
        msg: AtumMessage,
    },
    /// Deliver a broadcast to the application.
    Deliver(Delivered),
    /// This node is no longer a member of its vgroup.
    MembershipEnded(Ending),
}

/// Why a membership ended, which decides where the node goes next. The
/// first three are decided by the vgroup, the last by the membership's
/// fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// The vgroup decided this node's `leave`: it stays out until the
    /// application joins again.
    Left,
    /// The vgroup evicted this node: it re-joins on its own.
    Evicted,
    /// A shuffle exchange moved this node: it waits for the `Welcome` of
    /// its new vgroup.
    Transferred,
    /// The fence stayed closed for 20 rounds without a catch-up welcome:
    /// re-join now, through a former peer or an overlay neighbour.
    Stranded,
}

/// Counters for the shuffle-exchange statistics reported in Figure 13.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Exchanges this vgroup initiated that completed.
    pub completed: u64,
    /// Exchanges refused because the selected partner vgroup had no spare
    /// member (suppressed exchanges).
    pub suppressed: u64,
}

/// Per-node statistics of interest to experiments.
#[derive(Debug, Clone, Default)]
pub struct MemberStats {
    /// Broadcasts delivered: (id, delivery time, overlay hops).
    pub delivered: Vec<(BroadcastId, Instant, u32)>,
    /// Exchange bookkeeping (only meaningful at vgroups that shuffled).
    pub exchanges: ExchangeStats,
    /// Number of evictions this member's vgroup agreed on.
    pub evictions: u64,
}

/// The vgroup-membership state of one node.
///
/// All associative containers are ordered (`BTreeMap`/`BTreeSet`, enforced
/// by the determinism lint): iteration order leaks into protocol behaviour
/// and into the model checker's state fingerprints, so it must not depend
/// on process-local hash seeds.
#[derive(Clone)]
pub struct MemberState {
    me: NodeId,
    params: Params,
    registry: Arc<KeyRegistry>,
    /// The vgroup this node belongs to.
    pub vgroup: VgroupId,
    /// Current composition of the vgroup.
    pub composition: Composition,
    /// Neighbour table (per-cycle predecessor/successor).
    pub neighbors: NeighborTable,
    /// Configuration epoch (bumped on every composition change).
    pub epoch: u64,
    fence: Fence,
    applied_ops: BTreeSet<Digest>,
    /// Operations this member proposed but has not yet seen applied, keyed
    /// by their memoized digest so the dedup scan compares cached 32-byte
    /// values instead of re-hashing every pending op.
    my_pending: Vec<(Digest, GroupOp)>,
    collector: GroupMessageCollector<Arc<GroupEnvelope>>,
    /// The node-lifetime state (broadcast plane and statistics): held for
    /// as long as this membership lasts, then moved on by
    /// [`Self::into_session`] or [`Self::succeeded_by`].
    session: Session,
    /// Shuffle walks this vgroup started: walk → the member to exchange.
    outstanding_exchanges: BTreeMap<WalkId, NodeId>,
    /// Members this vgroup reserved as exchange partners: walk → member.
    reserved: BTreeMap<WalkId, NodeId>,
    /// Accusations collected towards evictions: target → accusers.
    evict_accusations: BTreeMap<NodeId, BTreeSet<NodeId>>,
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
    /// [`Self::heartbeat_duties`]); composition changes drop such entries.
    caught_up: BTreeMap<NodeId, u64>,
    /// When this member last launched shuffle walks (see
    /// [`Self::start_shuffle`] for why this damping is local-time based).
    last_shuffle: Option<Instant>,
    /// Vgroups this member learned have dissolved (absorbed by a merge).
    /// In-flight walks are re-routed around links that still point at them;
    /// a walk forwarded to a departed vgroup would die there (no member left
    /// to relay it) and take a join or shuffle down with it.
    departed_groups: BTreeSet<VgroupId>,
    /// Vgroups whose accepted group messages this member recently received,
    /// with the composition their envelopes claimed and when. This is the
    /// *reverse* edge of the overlay as observed from traffic: splits and
    /// merges can leave a link one-directional (X still forwards to us, but
    /// our table no longer lists X), and a vgroup X we never announce to
    /// keeps addressing us through an ever-staler composition until our
    /// newer members stop receiving copies at all. Announcing to
    /// correspondents as well as table neighbours closes the loop (see
    /// [`Self::announce_composition`]). Bounded and pruned by age.
    correspondents: BTreeMap<VgroupId, (Composition, Instant)>,
    /// When this member last ran the periodic composition anti-entropy (see
    /// [`Self::heartbeat_duties`]).
    last_announce: Instant,
    /// Link-repair bookkeeping: consecutive unanswered bidirectionality
    /// probes per `(cycle, toward_successor)` direction. A probe rides the
    /// announce cadence; a [`GroupPayload::LinkConfirm`] (or any rewrite of
    /// that direction's table entry) resets the counter. Several consecutive
    /// unanswered probes mean the far side no longer links back — the
    /// symptom of split/merge surgery racing churn — and trigger an orphan
    /// re-insertion walk. Empty when `params.link_repair` is off.
    link_probes: BTreeMap<(u8, bool), u32>,
    merging: bool,
}

impl std::fmt::Debug for MemberState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Skips the key registry: shared immutable infrastructure, not
        // per-member protocol state.
        f.debug_struct("MemberState")
            .field("me", &self.me)
            .field("vgroup", &self.vgroup)
            .field("composition", &self.composition)
            .field("neighbors", &self.neighbors)
            .field("epoch", &self.epoch)
            .field("fence", &self.fence)
            .field("applied_ops", &self.applied_ops)
            .field("my_pending", &self.my_pending)
            .field("collector", &self.collector)
            .field("outstanding_exchanges", &self.outstanding_exchanges)
            .field("reserved", &self.reserved)
            .field("evict_accusations", &self.evict_accusations)
            .field("last_heard", &self.last_heard)
            .field("activated", &self.activated)
            .field("caught_up", &self.caught_up)
            .field("departed_groups", &self.departed_groups)
            .field("correspondents", &self.correspondents)
            .field("link_probes", &self.link_probes)
            .field("merging", &self.merging)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl MemberState {
    /// Canonical rendering of the protocol-relevant member state, used by
    /// the model checker to fingerprint global states for visited-set
    /// dedup. Every container rendered here is ordered (`BTreeMap`,
    /// `BTreeSet`, `Composition`), so equal protocol states produce equal
    /// strings regardless of the history that led to them. Excludes the key
    /// registry (shared infrastructure) and the [`Session`], which the host
    /// renders wherever it currently lives.
    pub fn canonical_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}",
            self.me,
            self.vgroup,
            self.composition,
            self.neighbors,
            self.epoch,
            self.fence,
            self.applied_ops,
            self.my_pending,
            self.collector,
        );
        let _ = write!(
            s,
            "|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            self.outstanding_exchanges,
            self.reserved,
            self.evict_accusations,
            self.last_heard,
            self.activated,
            self.caught_up,
            self.last_shuffle,
            self.departed_groups,
            self.correspondents,
            self.link_probes,
            (self.last_heartbeat_sent, self.last_announce),
            self.merging,
        );
        s
    }

    /// Creates the member state of a node that bootstraps a fresh system: a
    /// single vgroup containing only this node, neighbouring itself on every
    /// cycle.
    pub fn bootstrap(
        me: NodeId,
        params: Params,
        registry: Arc<KeyRegistry>,
        session: Session,
        now: Instant,
    ) -> Self {
        let vgroup = VgroupId::new(me.raw());
        let composition = Composition::singleton(me);
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        Self::with_membership(
            me,
            params,
            registry,
            session,
            vgroup,
            composition,
            neighbors,
            0,
            now,
        )
    }

    /// Creates the member state of a node with explicitly given membership
    /// (used when a `Welcome` is accepted, and by the simulation harness to
    /// bootstrap large systems without running thousands of joins), around
    /// the node's one `session`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_membership(
        me: NodeId,
        params: Params,
        registry: Arc<KeyRegistry>,
        mut session: Session,
        vgroup: VgroupId,
        composition: Composition,
        neighbors: NeighborTable,
        epoch: u64,
        now: Instant,
    ) -> Self {
        let fence = fresh_fence(me, &params, &registry, &composition);
        // The eviction clock for every peer starts now: a peer is "silent"
        // only relative to the moment we learned this composition, otherwise
        // a freshly welcomed member instantly accuses everyone it has not
        // heard from yet.
        let last_heard: BTreeMap<NodeId, Instant> = composition
            .iter()
            .filter(|&p| p != me)
            .map(|p| (p, now))
            .collect();
        MemberState {
            me,
            params,
            registry,
            vgroup,
            composition,
            neighbors,
            epoch,
            fence,
            applied_ops: BTreeSet::new(),
            // What the node's last membership left undecided, for
            // `resume` to propose here.
            my_pending: session.take_undecided(),
            collector: GroupMessageCollector::new(4096),
            session,
            outstanding_exchanges: BTreeMap::new(),
            reserved: BTreeMap::new(),
            evict_accusations: BTreeMap::new(),
            last_heard,
            activated: BTreeSet::new(),
            last_heartbeat_sent: now,
            caught_up: BTreeMap::new(),
            last_shuffle: None,
            departed_groups: BTreeSet::new(),
            correspondents: BTreeMap::new(),
            last_announce: now,
            link_probes: BTreeMap::new(),
            merging: false,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Group messages still short of a majority or of a body.
    #[cfg(test)]
    pub(crate) fn pending_group_messages(&self) -> usize {
        self.collector.pending_len()
    }

    /// The node-lifetime state this membership holds.
    pub fn session(&self) -> &Session {
        &self.session
    }

    // ----------------------------------------------------------------- SMR

    /// Proposes an operation for agreement inside the vgroup.
    pub fn propose(&mut self, op: GroupOp, now: Instant, effects: &mut Vec<Effect>) {
        use atum_smr::SmrOp as _;
        let digest = op.digest();
        if self.applied_ops.contains(&digest) {
            return;
        }
        if !self.my_pending.iter().any(|(d, _)| *d == digest) {
            self.my_pending.push((digest, op.clone()));
        }
        if self.composition.len() == 1 && self.composition.contains(self.me) {
            // Single-member vgroup: agreement is trivial; apply immediately.
            // Follow-ups (ops drained from `my_pending` by a reconfiguring
            // op, resize requests) must be re-proposed here exactly like
            // `process_actions` does, not dropped.
            let mut follow_ups = Vec::new();
            self.apply_op(op, now, effects, &mut follow_ups);
            for op in follow_ups {
                self.propose(op, now, effects);
            }
            return;
        }
        let Fence::Deciding(engine) = &mut self.fence else {
            return;
        };
        let actions = engine.propose(op, now);
        self.process_actions(actions, now, effects);
    }

    /// Handles an intra-vgroup SMR message.
    pub fn on_smr_message(
        &mut self,
        from: NodeId,
        group: VgroupId,
        epoch: u64,
        msg: SmrMessage<GroupOp>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if group != self.vgroup {
            // Traffic from a different group instance: not evidence of
            // anything about *this* vgroup. In particular a higher epoch of
            // another group (possible when two groups each hold a stale
            // entry for a member of the other) must not close our fence.
            return;
        }
        self.note_alive(from, now);
        if epoch != self.epoch {
            self.on_peer_epoch(from, epoch, now, effects);
            return;
        }
        let Fence::Deciding(engine) = &mut self.fence else {
            return;
        };
        let actions = engine.handle(from, msg, now);
        self.process_actions(actions, now, effects);
    }

    /// Advances timers: SMR rounds/timeouts, heartbeats, eviction checks.
    pub fn tick(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        if self.composition.len() >= 3 && self.presumed_live(now).len() <= 1 {
            // No peer heard for an eviction window. Alone, this member can
            // never gather the accusations that would shrink its composition
            // back to a working quorum, and a synchronous engine left running
            // would decide its own proposals alone. (A 2-member survivor is
            // not fenced: its own accusation evicts its silent peer, and it
            // decides on as a singleton.)
            self.close_fence(2, now);
        }
        match self.fence {
            Fence::Deciding(ref mut engine) => {
                let actions = engine.tick(now);
                self.process_actions(actions, now, effects);
            }
            Fence::Fenced(since, last_request) => {
                self.fenced_duties(since, last_request, now, effects)
            }
        }
        self.heartbeat_duties(now, effects);
    }

    /// What a member fenced `since` then does on a tick. It solicits a
    /// catch-up Welcome from its peers; they answer with a state transfer,
    /// and the receiver-side quorum rule makes that safe. This is
    /// throttled: a quorum of welcomes per solicitation round is all it can
    /// consume, so asking more often than every couple of rounds is pure
    /// amplification. After 20 rounds without one the vgroup almost
    /// certainly moved on without this member, and it gives the membership
    /// up, once: the ending is its last request. Re-joining takes the
    /// direct-admission fast path, so giving up early is cheap.
    fn fenced_duties(
        &mut self,
        since: Instant,
        last_request: Option<Instant>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        let patience = self.params.round.saturating_mul(20);
        let past = |t: Instant| t.saturating_since(since) > patience;
        let gap = self.params.round.saturating_mul(2);
        if past(now) {
            if last_request.is_some_and(past) {
                return;
            }
            self.trace_fence(3, now);
            effects.push(Effect::MembershipEnded(Ending::Stranded));
        } else if last_request.is_some_and(|t| now.saturating_since(t) < gap) {
            return;
        } else {
            let (me, group, epoch) = (self.me, self.vgroup, self.epoch);
            for to in self.composition.iter().filter(|&p| p != me) {
                let msg = AtumMessage::StateRequest { group, epoch };
                effects.push(Effect::Send { to, msg });
            }
        }
        self.fence = Fence::Fenced(since, Some(now));
    }

    /// A stale peer asked for our state: answer with a Welcome if we are
    /// ahead of it in the same vgroup.
    pub fn on_state_request(
        &mut self,
        from: NodeId,
        group: VgroupId,
        peer_epoch: u64,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if group != self.vgroup {
            return;
        }
        self.note_alive(from, now);
        if peer_epoch < self.epoch && self.composition.contains(from) {
            self.send_welcome(from, effects);
        }
    }

    fn process_actions(
        &mut self,
        actions: Vec<Action<GroupOp>>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        // Apply decisions after queuing sends so message order stays sane.
        let mut decided = Vec::new();
        for action in actions {
            match action {
                Action::Send { to, msg } => effects.push(Effect::Send {
                    to,
                    msg: AtumMessage::Smr {
                        group: self.vgroup,
                        epoch: self.epoch,
                        msg,
                    },
                }),
                Action::Deliver(decision) => decided.push(decision.op),
            }
        }
        let mut follow_ups = Vec::new();
        for op in decided {
            self.apply_op(op, now, effects, &mut follow_ups);
        }
        // This includes the ops `apply_op` drained out of `my_pending` when
        // a decided op reconfigured the vgroup: re-proposing them into the
        // fresh engine is what keeps joins and leaves alive under churn.
        for op in follow_ups {
            self.propose(op, now, effects);
        }
    }

    // ------------------------------------------------------- applying ops

    /// Applies a decided operation. Re-application (possible across
    /// reconfigurations) is harmless: every branch checks current state
    /// before mutating.
    fn apply_op(
        &mut self,
        op: GroupOp,
        now: Instant,
        effects: &mut Vec<Effect>,
        follow_ups: &mut Vec<GroupOp>,
    ) {
        use atum_smr::SmrOp as _;
        let digest = op.digest();
        if !self.applied_ops.insert(digest) {
            return;
        }
        self.my_pending.retain(|(d, _)| *d != digest);
        let epoch_before = self.epoch;
        match op {
            GroupOp::HandleJoinRequest { joiner, rejoin, .. } => {
                atum_obs::trace_event!(
                    Join,
                    at = now.as_micros(),
                    node = self.me.raw(),
                    slots = [joiner.raw(), self.vgroup.raw(), u64::from(rejoin)],
                    "HandleJoinRequest({}, rejoin={rejoin}) applied in vgroup {:?}",
                    joiner,
                    self.vgroup
                );
                if rejoin {
                    // Re-join fast path: the joiner was a member until churn
                    // stranded it. Admit it into the contact vgroup directly,
                    // reusing the state-transfer (Welcome) path, instead of
                    // launching a placement walk that can die on a
                    // reconfiguring overlay. The synthetic walk id is derived
                    // from the decided op so every member proposes the same
                    // admission.
                    follow_ups.push(GroupOp::AdmitJoiner {
                        joiner,
                        walk: WalkId::new(self.vgroup, digest.as_u64() ^ self.epoch),
                    });
                } else {
                    self.start_walk(WalkPurpose::JoinPlacement { joiner }, digest, now, effects);
                }
            }
            GroupOp::AdmitJoiner { joiner, .. } => {
                atum_obs::trace_event!(
                    Join,
                    at = now.as_micros(),
                    node = self.me.raw(),
                    slots = [
                        joiner.raw(),
                        self.vgroup.raw(),
                        self.composition.len() as u64
                    ],
                    "AdmitJoiner({}) in vgroup {:?} (inserted: {}, comp len {})",
                    joiner,
                    self.vgroup,
                    !self.composition.contains(joiner),
                    self.composition.len()
                );
                if self.composition.insert(joiner) {
                    self.after_composition_change(now);
                    self.announce_composition(effects);
                    self.start_shuffle(now, effects);
                    self.maybe_resize(now, effects);
                    // Welcomed after the resize: a joiner that tips the
                    // vgroup over `gmax` is welcomed into the half it lands
                    // in, not into a configuration the split already ended,
                    // which nobody would hold and whose engine it would run
                    // alone.
                    self.send_welcome(joiner, effects);
                }
            }
            GroupOp::Leave { node, .. } => {
                if self.composition.remove(node) {
                    if node == self.me {
                        effects.push(Effect::MembershipEnded(Ending::Left));
                        return;
                    }
                    self.after_composition_change(now);
                    self.announce_composition(effects);
                    self.start_shuffle(now, effects);
                    self.maybe_resize(now, effects);
                }
            }
            GroupOp::Evict { node, accuser, .. } => {
                // Eviction needs corroboration from more than the fault bound
                // so a Byzantine minority cannot evict correct members.
                if !self.composition.contains(node) || !self.composition.contains(accuser) {
                    return;
                }
                let accusers = self.evict_accusations.entry(node).or_default();
                accusers.insert(accuser);
                let accuser_count = accusers.len();
                // The fault bound is computed over the *effective* group
                // size: composition entries under corroborated suspicion
                // (two or more distinct decided accusations, the target
                // included) do not count. Without this discount a vgroup
                // whose composition accumulated several dead entries
                // (stranded admissions, half-failed exchanges) wedges
                // permanently: the dead entries inflate `f + 1` beyond the
                // number of live members able to accuse, so they can never
                // be evicted and the vgroup can never again assemble a
                // welcome quorum. The discount is deterministic —
                // `evict_accusations` is only mutated by decided operations,
                // so every correct member computes the same threshold. The
                // cost is a slightly weakened frame-up bound: `f` colluding
                // accusers (rather than `f + 1`) can evict a correct member
                // by first corroborating an accusation against it; accepted
                // for this reproduction's fault model (crash churn plus
                // heartbeat-only Byzantine nodes, which never accuse).
                let suspected = self
                    .evict_accusations
                    .iter()
                    .filter(|(target, accs)| accs.len() >= 2 && self.composition.contains(**target))
                    .count();
                let effective = self.composition.len().saturating_sub(suspected).max(1);
                let needed = self.params.smr.max_faults(effective) + 1;
                if accuser_count < needed && self.composition.len() > 1 {
                    return;
                }
                self.session.stats_mut().evictions += 1;
                self.evict_accusations.remove(&node);
                if self.composition.remove(node) {
                    if node == self.me {
                        effects.push(Effect::MembershipEnded(Ending::Evicted));
                        return;
                    }
                    self.after_composition_change(now);
                    self.announce_composition(effects);
                    self.start_shuffle(now, effects);
                    self.maybe_resize(now, effects);
                }
            }
            GroupOp::Broadcast { id, payload } => {
                self.on_broadcast(id, payload, 0, now, effects, &mut |_, _| true);
            }
            GroupOp::OfferExchange {
                walk,
                leaving,
                origin_composition,
            } => {
                // Pick a member that is not already reserved and is not us if
                // avoidable; refuse when nothing is available (suppressed
                // exchange).
                let reserved: BTreeSet<NodeId> = self.reserved.values().copied().collect();
                let candidate = self
                    .composition
                    .iter()
                    .filter(|m| !reserved.contains(m))
                    .nth((digest.as_u64() % self.composition.len().max(1) as u64) as usize)
                    .or_else(|| self.composition.iter().find(|m| !reserved.contains(m)));
                match candidate {
                    Some(member) if self.composition.len() > 1 || walk.origin != self.vgroup => {
                        self.reserved.insert(walk, member);
                        self.send_group_message(
                            &origin_composition,
                            GroupPayload::ExchangeOffer {
                                walk,
                                leaving,
                                incoming: member,
                            },
                            effects,
                        );
                    }
                    _ => {
                        self.send_group_message(
                            &origin_composition,
                            GroupPayload::ExchangeRefuse { walk },
                            effects,
                        );
                    }
                }
            }
            GroupOp::CompleteExchange {
                walk,
                leaving,
                incoming,
                partner_composition,
            } => {
                if self.outstanding_exchanges.remove(&walk).is_none() {
                    return;
                }
                if !self.composition.contains(leaving) || self.composition.contains(incoming) {
                    // The member already left (evicted / merged away); treat
                    // the exchange as suppressed.
                    self.session.stats_mut().exchanges.suppressed += 1;
                    return;
                }
                self.session.stats_mut().exchanges.completed += 1;
                self.composition.remove(leaving);
                self.composition.insert(incoming);
                self.after_composition_change(now);
                self.send_welcome(incoming, effects);
                self.announce_composition(effects);
                self.send_group_message(
                    &partner_composition,
                    GroupPayload::ExchangeAccept {
                        walk,
                        given: incoming,
                        adopted: leaving,
                    },
                    effects,
                );
                if leaving == self.me {
                    effects.push(Effect::MembershipEnded(Ending::Transferred));
                    return;
                }
                self.maybe_resize(now, effects);
            }
            GroupOp::FinishExchange {
                walk,
                given,
                adopted,
            } => {
                if self.reserved.remove(&walk).is_none() {
                    return;
                }
                if !self.composition.contains(given) || self.composition.contains(adopted) {
                    return;
                }
                self.composition.remove(given);
                self.composition.insert(adopted);
                self.after_composition_change(now);
                self.send_welcome(adopted, effects);
                self.announce_composition(effects);
                if given == self.me {
                    effects.push(Effect::MembershipEnded(Ending::Transferred));
                    return;
                }
                self.maybe_resize(now, effects);
            }
            GroupOp::AcceptMerge { from, members } => {
                let mut changed = false;
                for &m in &members {
                    changed |= self.composition.insert(m);
                }
                if changed {
                    self.collector.forget_source(from);
                    // The absorbed vgroup no longer exists: re-route walks
                    // around any overlay link that still points at it.
                    if self.departed_groups.len() < 1024 {
                        self.departed_groups.insert(from);
                        self.correspondents.remove(&from);
                    }
                    self.after_composition_change(now);
                    self.announce_composition(effects);
                    self.start_shuffle(now, effects);
                    self.maybe_resize(now, effects);
                    // After the resize, as for `AdmitJoiner`.
                    for &m in &members {
                        self.send_welcome(m, effects);
                    }
                }
            }
            GroupOp::InsertOverlayNeighbor {
                cycle,
                new_group,
                composition,
            } => {
                if new_group == self.vgroup {
                    // An orphan re-insertion walk (link repair) landed back
                    // at the orphan itself: inserting a vgroup as its own
                    // successor would sever it from the cycle for good.
                    return;
                }
                let cycle_idx = cycle as usize;
                let Some(current) = self.neighbors.cycle(cycle_idx).cloned() else {
                    return;
                };
                let old_successor = current.successor;
                let old_successor_comp = current.successor_composition.clone();
                let mut updated = current;
                updated.successor = new_group;
                updated.successor_composition = composition.clone();
                self.neighbors.set_cycle(cycle_idx, updated);
                // Introduce ourselves to the new group as its predecessor and
                // hand it its successor; tell the old successor about its new
                // predecessor.
                self.send_group_message(
                    &composition,
                    GroupPayload::NeighborIntro {
                        cycle,
                        sender_is_predecessor: true,
                        group: self.vgroup,
                        composition: self.composition.clone(),
                    },
                    effects,
                );
                self.send_group_message(
                    &composition,
                    GroupPayload::NeighborIntro {
                        cycle,
                        sender_is_predecessor: false,
                        group: old_successor,
                        composition: old_successor_comp.clone(),
                    },
                    effects,
                );
                if old_successor != self.vgroup {
                    self.send_group_message(
                        &old_successor_comp,
                        GroupPayload::CyclePatch {
                            cycle,
                            new_is_successor: false,
                            group: new_group,
                            composition,
                        },
                        effects,
                    );
                }
            }
        }
        // If this operation reconfigured the vgroup, operations we proposed
        // into the old engine are gone; hand them to the caller so they are
        // re-proposed into the new configuration.
        if self.epoch != epoch_before && !self.my_pending.is_empty() {
            follow_ups.extend(
                std::mem::take(&mut self.my_pending)
                    .into_iter()
                    .map(|(_, op)| op),
            );
        }
    }

    /// Sends one copy of a group message to every member of `to` (see
    /// [`View::send_group_message`]).
    pub(crate) fn send_group_message(
        &self,
        to: &Composition,
        payload: GroupPayload,
        effects: &mut Vec<Effect>,
    ) {
        view!(self).send_group_message(to, payload, effects);
    }

    /// Invoked by the host when the application (or API) wants to broadcast.
    pub fn start_broadcast(
        &mut self,
        payload: Vec<u8>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> BroadcastId {
        let id = self.session.next_broadcast_id(self.me);
        self.propose(
            GroupOp::Broadcast {
                id,
                payload: payload.into(),
            },
            now,
            effects,
        );
        id
    }

    /// Invoked by the host when this node wants to leave.
    pub fn start_leave(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let op = GroupOp::Leave {
            node: self.me,
            nonce: self.epoch,
        };
        self.propose(op, now, effects);
    }

    // ------------------------------------------------------ group messages

    /// Handles one body-bearing copy of a group message. The envelope is
    /// the `Arc`-shared logical message; its digest was memoized at creation
    /// (recomputed from the decoded payload when it crossed a socket), so
    /// per-copy processing is a map update, not a re-hash of the payload.
    pub fn on_group_copy(
        &mut self,
        from: NodeId,
        envelope: Arc<GroupEnvelope>,
        now: Instant,
        effects: &mut Vec<Effect>,
        forward_filter: &mut dyn FnMut(&Delivered, VgroupId) -> bool,
    ) {
        let composition = envelope.source_composition.clone();
        let (source, digest) = (envelope.source, envelope.digest());
        let seen = self.observe_group_copy(from, source, &composition, digest, Some(envelope));
        if let Observed::Accepted(envelope) = seen {
            self.accept_group_message(envelope, &composition, now, effects, forward_filter);
        }
    }

    /// Handles one digest-only copy of a gossip group message: it counts
    /// towards the majority like a body-bearing copy of the same digest.
    ///
    /// When the majority comes without a body the session asks the voters
    /// for it (see [`Session::pull_starved`]).
    pub fn on_group_vote(
        &mut self,
        from: NodeId,
        vote: &GroupVote,
        now: Instant,
        effects: &mut Vec<Effect>,
        forward_filter: &mut dyn FnMut(&Delivered, VgroupId) -> bool,
    ) {
        let composition = &vote.source_composition;
        match self.observe_group_copy(from, vote.source, composition, vote.digest, None) {
            Observed::Pending => {}
            Observed::Accepted(envelope) => {
                self.accept_group_message(envelope, composition, now, effects, forward_filter);
            }
            Observed::Starved(voters) => {
                self.session
                    .pull_starved(view!(self), vote, voters, now, effects);
            }
        }
    }

    /// Counts one copy of the group message `digest` — `body` is the
    /// envelope when the copy carried one. The collector keys bodies by
    /// their own digest, so a carrier that ships a different body than the
    /// digest its peers voted for starts a separate count that never
    /// reaches a majority; and it retains the first body until the quorum
    /// fires, which a vote may do.
    fn observe_group_copy(
        &mut self,
        from: NodeId,
        source: VgroupId,
        source_composition: &Composition,
        digest: Digest,
        body: Option<Arc<GroupEnvelope>>,
    ) -> Observed<Arc<GroupEnvelope>> {
        // Deliberately *not* a liveness signal: group messages are
        // vgroup-to-vgroup traffic, so the sender is (almost) never a peer
        // of ours — but a node that moved to another vgroup while we still
        // hold its stale composition entry is, and it would otherwise keep
        // refreshing its own eviction clock through its new vgroup's
        // neighbour traffic, and the stale entry would never be evicted.
        // Intra-group liveness comes from heartbeats and SMR traffic only.
        //
        // Use the composition claimed by the copy for the majority rule.
        // Neighbour tables lag behind during churn (the sending vgroup may
        // have reconfigured since the last CompositionUpdate), and a stale
        // majority threshold would make the receiver deaf to its neighbour.
        // In a deployment the claimed composition is certified by the
        // previous configuration's signatures; that check is elided here.
        //
        // The receiver's own neighbour-table view of the source can be
        // fresher than the claimed composition (the source may have evicted
        // ghosts or lost members since sending); the collector accepts on
        // the smaller of the two majorities so a live neighbour is not held
        // to the quorum of members that no longer exist.
        let local_view = self.neighbors.composition_of(source);
        self.collector
            .observe_with_view(source, source_composition, local_view, from, digest, body)
    }

    /// Acts on a group message whose quorum just fired; `source_composition`
    /// is the one claimed by the copy that completed it.
    fn accept_group_message(
        &mut self,
        envelope: Arc<GroupEnvelope>,
        source_composition: &Composition,
        now: Instant,
        effects: &mut Vec<Effect>,
        forward_filter: &mut dyn FnMut(&Delivered, VgroupId) -> bool,
    ) {
        let source = envelope.source;
        // Acceptance fires once per logical message: pay for the payload
        // here (a cheap clone — compositions and gossip bytes are
        // themselves Arc-backed), never per copy.
        let payload = match Arc::try_unwrap(envelope) {
            Ok(owned) => owned.payload,
            Err(shared) => shared.payload.clone(),
        };
        self.handle_group_payload(
            source,
            source_composition,
            payload,
            now,
            effects,
            forward_filter,
        );
    }

    fn handle_group_payload(
        &mut self,
        source: VgroupId,
        source_comp: &Composition,
        payload: GroupPayload,
        now: Instant,
        effects: &mut Vec<Effect>,
        forward_filter: &mut dyn FnMut(&Delivered, VgroupId) -> bool,
    ) {
        if source != self.vgroup {
            // Record the reverse link. The claimed composition is only the
            // *addressing fallback* for our announcements back to the
            // source — deliberately not written into the neighbour table
            // here: an in-flight envelope can be older than the view a
            // `CompositionUpdate` just installed, and regressing a fresh
            // view breaks the exchanges in flight against it. Explicit
            // `CompositionUpdate` payloads (on-change and periodic) remain
            // the one path that rewrites views.
            self.note_correspondent(source, source_comp.clone(), now);
        }
        match payload {
            GroupPayload::Gossip { id, payload, hops } => {
                self.on_broadcast(id, payload, hops, now, effects, forward_filter);
            }
            GroupPayload::Walk(walk) => self.route_walk(walk, now, effects),
            GroupPayload::CompositionUpdate { group, composition } => {
                self.neighbors.update_composition(group, &composition);
            }
            GroupPayload::ExchangeOffer {
                walk,
                leaving,
                incoming,
            } => {
                if self.outstanding_exchanges.contains_key(&walk) {
                    // The partner is usually a random vgroup (not a
                    // neighbour), so its composition comes from the accepted
                    // group message itself.
                    let op = GroupOp::CompleteExchange {
                        walk,
                        leaving,
                        incoming,
                        partner_composition: self
                            .neighbors
                            .composition_of(source)
                            .cloned()
                            .unwrap_or_else(|| source_comp.clone()),
                    };
                    self.propose(op, now, effects);
                }
            }
            GroupPayload::ExchangeRefuse { walk } => {
                if self.outstanding_exchanges.remove(&walk).is_some() {
                    self.session.stats_mut().exchanges.suppressed += 1;
                }
            }
            GroupPayload::ExchangeAccept {
                walk,
                given,
                adopted,
            } => {
                if self.reserved.contains_key(&walk) {
                    self.propose(
                        GroupOp::FinishExchange {
                            walk,
                            given,
                            adopted,
                        },
                        now,
                        effects,
                    );
                }
            }
            GroupPayload::NeighborIntro {
                cycle,
                sender_is_predecessor,
                group,
                composition,
            } => {
                let cycle_idx = cycle as usize;
                let mut entry = self.neighbors.cycle(cycle_idx).cloned().unwrap_or(
                    atum_overlay::CycleNeighbors {
                        predecessor: self.vgroup,
                        predecessor_composition: self.composition.clone(),
                        successor: self.vgroup,
                        successor_composition: self.composition.clone(),
                    },
                );
                if sender_is_predecessor {
                    entry.predecessor = group;
                    entry.predecessor_composition = composition;
                } else {
                    entry.successor = group;
                    entry.successor_composition = composition;
                }
                self.neighbors.set_cycle(cycle_idx, entry);
                // The rewritten direction gets a fresh probing clock.
                self.link_probes.remove(&(cycle, !sender_is_predecessor));
            }
            GroupPayload::MergeRequest { from, members } => {
                self.propose(GroupOp::AcceptMerge { from, members }, now, effects);
            }
            GroupPayload::CyclePatch {
                cycle,
                new_is_successor,
                group,
                composition,
            } => {
                atum_obs::trace_event!(
                    CyclePatch,
                    at = now.as_micros(),
                    node = self.me.raw(),
                    slots = [u64::from(cycle), group.raw(), u64::from(new_is_successor)],
                    "cycle {cycle} patched: {:?} now {} of vgroup {:?}",
                    group,
                    if new_is_successor {
                        "successor"
                    } else {
                        "predecessor"
                    },
                    self.vgroup
                );
                let cycle_idx = cycle as usize;
                if let Some(mut entry) = self.neighbors.cycle(cycle_idx).cloned() {
                    if new_is_successor {
                        entry.successor = group;
                        entry.successor_composition = composition;
                    } else {
                        entry.predecessor = group;
                        entry.predecessor_composition = composition;
                    }
                    self.neighbors.set_cycle(cycle_idx, entry);
                    // The rewritten direction gets a fresh probing clock.
                    self.link_probes.remove(&(cycle, new_is_successor));
                }
            }
            GroupPayload::LinkProbe {
                cycle,
                sender_is_predecessor,
                far_neighbor,
                nonce,
            } => {
                self.on_link_probe(
                    source,
                    source_comp,
                    cycle,
                    sender_is_predecessor,
                    far_neighbor,
                    nonce,
                    effects,
                );
            }
            GroupPayload::LinkConfirm {
                cycle,
                sender_is_predecessor,
                nonce: _,
            } => {
                // Echo of our own probe: the direction we probed is the one
                // the claim was made for (we claimed to be the far side's
                // predecessor exactly when probing towards our successor).
                self.link_probes.remove(&(cycle, sender_is_predecessor));
            }
        }
    }

    /// Answers a link bidirectionality probe (link repair, see
    /// [`Self::heartbeat_duties`]). The prober claims an overlay relation
    /// (`sender_is_predecessor`: it believes we are its cycle successor) and
    /// carries its own far-side neighbour as evidence. Three cases:
    ///
    /// 1. our table agrees → confirm;
    /// 2. our stale entry still names the prober's far neighbour (the
    ///    classic dropped-`CyclePatch` one-directional link left by split
    ///    insertion racing churn) → adopt the prober and confirm;
    /// 3. genuine disagreement → answer with a `CyclePatch` pointing the
    ///    prober at the vgroup our table holds, so repeated probe rounds
    ///    converge pairwise along the chain instead of thrashing.
    #[allow(clippy::too_many_arguments)]
    fn on_link_probe(
        &mut self,
        source: VgroupId,
        source_comp: &Composition,
        cycle: u8,
        sender_is_predecessor: bool,
        far_neighbor: VgroupId,
        nonce: u64,
        effects: &mut Vec<Effect>,
    ) {
        let cycle_idx = cycle as usize;
        let Some(mut entry) = self.neighbors.cycle(cycle_idx).cloned() else {
            return;
        };
        let ours = if sender_is_predecessor {
            entry.predecessor
        } else {
            entry.successor
        };
        let confirm = GroupPayload::LinkConfirm {
            cycle,
            sender_is_predecessor,
            nonce,
        };
        if ours == source {
            self.send_group_message(source_comp, confirm, effects);
            return;
        }
        if ours == far_neighbor || ours == self.vgroup {
            // Stale or self-looped entry superseded by the prober's view:
            // either we still point at the vgroup the prober knows as its
            // *other* neighbour (we missed the patch that should have
            // re-pointed us at the prober), or we point at ourselves (our
            // entry was never initialised for this link). Adopt the prober.
            if sender_is_predecessor {
                entry.predecessor = source;
                entry.predecessor_composition = source_comp.clone();
            } else {
                entry.successor = source;
                entry.successor_composition = source_comp.clone();
            }
            self.neighbors.set_cycle(cycle_idx, entry);
            self.link_probes.remove(&(cycle, !sender_is_predecessor));
            self.send_group_message(source_comp, confirm, effects);
            return;
        }
        // Disagreement: our table holds someone else between us. Point the
        // prober at them; its next probe goes to that vgroup and the chain
        // re-links one pair at a time.
        let (group, composition) = if sender_is_predecessor {
            (entry.predecessor, entry.predecessor_composition.clone())
        } else {
            (entry.successor, entry.successor_composition.clone())
        };
        self.send_group_message(
            source_comp,
            GroupPayload::CyclePatch {
                cycle,
                // The prober probed towards its successor iff it claimed to
                // be our predecessor; that is the direction it must re-point.
                new_is_successor: sender_is_predecessor,
                group,
                composition,
            },
            effects,
        );
    }

    // -------------------------------------------------------------- walks

    fn start_walk(
        &mut self,
        purpose: WalkPurpose,
        seed: Digest,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> WalkId {
        // The walk id must be identical at every member that applies the
        // decided op that started this walk — it is derived from the shared
        // (seed, epoch) pair, never from local counters. Members whose
        // membership histories differ (a freshly welcomed member starts its
        // counters from scratch) would otherwise route *different* walks for
        // the same op, and no hop would ever assemble a majority of copies.
        let id = WalkId::new(self.vgroup, seed.as_u64() ^ self.epoch.rotate_left(17));
        // Deterministic bulk RNG: every correct member derives the same walk.
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed.as_u64() ^ self.epoch ^ id.seq.wrapping_mul(0x9E37_79B9),
        );
        let walk = WalkState::new(
            id,
            purpose,
            self.composition.clone(),
            self.params.rwl,
            &mut rng,
        );
        self.route_walk(walk, now, effects);
        id
    }

    /// Either forwards a walk one step or, if it is complete, acts on it:
    /// the walk was started here, or accepted from another vgroup by a
    /// majority of its copies.
    fn route_walk(&mut self, mut walk: WalkState, now: Instant, effects: &mut Vec<Effect>) {
        atum_obs::trace_event!(
            Walk,
            at = now.as_micros(),
            node = self.me.raw(),
            slots = [
                walk.id.seq,
                self.vgroup.raw(),
                u64::from(walk.is_complete())
            ],
            "route_walk {:?} at vgroup {:?} complete={} purpose={:?}",
            walk.id,
            self.vgroup,
            walk.is_complete(),
            walk.purpose
        );
        if walk.is_complete() {
            self.on_walk_selected(walk, now, effects);
            return;
        }
        // Pick a random incident overlay link (two per cycle). Each link's
        // composition is refreshed from the neighbour table's per-group view
        // (kept current by CompositionUpdates) so walk copies reach the
        // members the target vgroup has *now*, not the ones it had when the
        // cycle entry was written.
        let mut links: Vec<(VgroupId, Composition)> = Vec::new();
        for c in 0..self.neighbors.cycle_count() {
            if let Some(entry) = self.neighbors.cycle(c) {
                links.push((entry.successor, entry.successor_composition.clone()));
                links.push((entry.predecessor, entry.predecessor_composition.clone()));
            }
        }
        for (group, comp) in links.iter_mut() {
            if let Some(fresh) = self.neighbors.composition_of(*group) {
                *comp = fresh.clone();
            }
        }
        if links.is_empty() {
            // Isolated vgroup (bootstrap): the walk ends here.
            while !walk.is_complete() {
                walk.advance();
            }
            self.on_walk_selected(walk, now, effects);
            return;
        }
        // Re-route around links that still point at dissolved vgroups: a
        // walk forwarded there has no member left to relay it. The primary
        // choice stays a pure function of the walk's shared RNG (see
        // `choose_link_index`), so members that have not yet learned of a
        // dissolution cannot be steered off a live hop by those that have.
        let eligible: Vec<usize> = links
            .iter()
            .enumerate()
            .filter(|(_, (group, _))| !self.departed_groups.contains(group))
            .map(|(i, _)| i)
            .collect();
        let choice = walk.choose_link_index(links.len(), &eligible).unwrap_or(0);
        let (next_group, next_comp) = links[choice].clone();
        walk.advance();
        if next_group == self.vgroup {
            // Self-loop edge: handle locally without a network round-trip.
            self.route_walk(walk, now, effects);
        } else {
            self.send_group_message(&next_comp, GroupPayload::Walk(walk), effects);
        }
    }

    /// The walk stopped at this vgroup: act according to its purpose.
    fn on_walk_selected(&mut self, walk: WalkState, now: Instant, effects: &mut Vec<Effect>) {
        match walk.purpose.clone() {
            WalkPurpose::JoinPlacement { joiner } => {
                self.propose(
                    GroupOp::AdmitJoiner {
                        joiner,
                        walk: walk.id,
                    },
                    now,
                    effects,
                );
            }
            WalkPurpose::ShuffleExchange { member } => {
                self.propose(
                    GroupOp::OfferExchange {
                        walk: walk.id,
                        leaving: member,
                        origin_composition: walk.origin_composition.clone(),
                    },
                    now,
                    effects,
                );
            }
            WalkPurpose::SplitAnchor {
                cycle,
                new_group,
                composition,
            } => {
                self.propose(
                    GroupOp::InsertOverlayNeighbor {
                        cycle,
                        new_group,
                        composition,
                    },
                    now,
                    effects,
                );
            }
        }
    }

    // ---------------------------------------------------- broadcast plane

    /// Hands a broadcast that reached this member — decided by the vgroup
    /// or accepted as gossip — to the session, which delivers and forwards
    /// it on first sight.
    pub(crate) fn on_broadcast(
        &mut self,
        id: BroadcastId,
        payload: Arc<[u8]>,
        hops: u32,
        now: Instant,
        effects: &mut Vec<Effect>,
        forward_filter: &mut dyn FnMut(&Delivered, VgroupId) -> bool,
    ) {
        self.session
            .on_broadcast(view!(self), id, payload, hops, now, effects, forward_filter);
    }

    /// A vgroup peer — or a member of an overlay neighbour — advertised its
    /// recently delivered broadcasts (see [`Session::on_broadcast_keys`]).
    pub fn on_broadcast_keys(
        &mut self,
        from: NodeId,
        group: VgroupId,
        keys: &[BroadcastId],
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if group == self.vgroup && self.params.broadcast_repair {
            self.note_alive(from, now);
        }
        self.session
            .on_broadcast_keys(view!(self), from, group, keys, now, effects);
    }

    /// A requester asked for broadcasts it missed (see
    /// [`Session::on_broadcast_pull`]): a cross-group one is answered by the
    /// session; for an own-group one it names the broadcasts to re-decide.
    pub fn on_broadcast_pull(
        &mut self,
        from: NodeId,
        group: VgroupId,
        keys: &[BroadcastId],
        voted: Option<Digest>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if group != self.vgroup || !self.params.broadcast_repair {
            return;
        }
        self.note_alive(from, now);
        let redecide = self
            .session
            .on_broadcast_pull(view!(self), from, keys, voted, now, effects);
        // Intra-group holes cannot be closed with direct copies: the
        // synchronous engine delivers wherever the value landed, so a healed
        // partition can leave a *sub-majority* of the group holding the
        // broadcast — too few distinct senders for the quorum collector,
        // however often they reply. Re-decide the op instead. The
        // re-proposed `GroupOp::Broadcast` carries the original op digest,
        // so members that already applied it skip it (`applied_ops`),
        // members that delivered the gossip skip re-delivery (the session's
        // dedup set), and only the holed members act on it — agreement, not
        // trust in the holder, is what delivers the payload.
        // (`MemberState::propose` would drop the op as already applied,
        // which is exactly the guard a repair re-decision must bypass.)
        for (id, payload) in redecide {
            if let Fence::Deciding(engine) = &mut self.fence {
                repair_metrics::reproposals().inc();
                atum_obs::trace_event!(
                    AntiEntropyPull,
                    at = now.as_micros(),
                    node = self.me.raw(),
                    slots = [group.raw(), id.seq, 1],
                    "re-proposing broadcast {id:?} through vgroup {:?} SMR for {from}",
                    group
                );
                let actions = engine.propose(GroupOp::Broadcast { id, payload }, now);
                self.process_actions(actions, now, effects);
            }
        }
    }

    // -------------------------------------------------- membership churn

    fn after_composition_change(&mut self, now: Instant) {
        // Drop failure-detection state of departed members. Keeping it
        // would make a later re-admission of the same node inherit a stale
        // `last_heard` timestamp and be instantly re-accused before its
        // Welcome quorum can even assemble.
        let composition = &self.composition;
        self.last_heard.retain(|p, _| composition.contains(*p));
        self.activated.retain(|p| composition.contains(*p));
        self.caught_up.retain(|p, _| composition.contains(*p));
        self.evict_accusations.retain(|target, accusers| {
            accusers.retain(|a| composition.contains(*a));
            composition.contains(*target) && !accusers.is_empty()
        });
        // Members that just entered the composition get their eviction clock
        // started now (see `with_membership`).
        let me = self.me;
        for peer in self.composition.iter().filter(|&p| p != me) {
            self.last_heard.entry(peer).or_insert(now);
        }
        self.epoch += 1;
        self.merging = false;
        self.fence = fresh_fence(self.me, &self.params, &self.registry, &self.composition);
        // Deliberately no welcome blast here: re-welcoming every
        // not-yet-activated entry on each epoch bump was tried and turned
        // transient one-epoch lag (which a member resolves on its own once
        // the slot holding the reconfiguration closes, at most `f + 3`
        // rounds after it was proposed) into full state resets that wiped
        // exchange bookkeeping. Stragglers are caught up through the
        // period-gated priority path in `heartbeat_duties` and the epoch
        // carried on heartbeats instead.
    }

    /// The membership a `Welcome` installs while this one is still held (a
    /// catch-up to a newer epoch, or a move the old vgroup has not told us
    /// of): the session moves over, and so does every op proposed here but
    /// never applied, for [`Self::resume`] to propose again.
    pub fn succeeded_by(
        self,
        vgroup: VgroupId,
        composition: Composition,
        neighbors: NeighborTable,
        epoch: u64,
        now: Instant,
    ) -> MemberState {
        let mut fresh = Self::with_membership(
            self.me,
            self.params,
            self.registry,
            self.session,
            vgroup,
            composition,
            neighbors,
            epoch,
            now,
        );
        if self.vgroup == vgroup {
            // Same vgroup, newer epoch: the traffic-observed reverse links
            // are still ours to answer.
            fresh.correspondents = self.correspondents;
        }
        fresh.my_pending = self.my_pending;
        fresh
    }

    /// Ends this membership: the session moves out, taking this node's own
    /// undecided broadcasts with it (every other pending op is specific to
    /// the vgroup being left and is dropped with the rest).
    pub fn into_session(self) -> Session {
        let mut session = self.session;
        session.park(self.my_pending);
        session
    }

    /// Proposes what this node had promised to drive to agreement before
    /// this membership began — a welcome must not silently discard it.
    pub fn resume(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        for (_, op) in std::mem::take(&mut self.my_pending) {
            self.propose(op, now, effects);
        }
    }

    fn send_welcome(&self, to: NodeId, effects: &mut Vec<Effect>) {
        effects.push(Effect::Send {
            to,
            msg: AtumMessage::Welcome {
                group: self.vgroup,
                composition: self.composition.clone(),
                neighbors: self.neighbors.clone(),
                epoch: self.epoch,
            },
        });
    }

    /// Remembers that `group` sent this vgroup accepted traffic, with the
    /// composition its envelope claimed. Bounded: the oldest entry is
    /// evicted beyond 32 correspondents (far above any real neighbourhood).
    fn note_correspondent(&mut self, group: VgroupId, composition: Composition, now: Instant) {
        if group == self.vgroup || self.departed_groups.contains(&group) {
            return;
        }
        self.correspondents.insert(group, (composition, now));
        if self.correspondents.len() > 32 {
            if let Some(oldest) = self
                .correspondents
                .iter()
                .min_by_key(|(g, (_, t))| (*t, **g))
                .map(|(g, _)| *g)
            {
                self.correspondents.remove(&oldest);
            }
        }
    }

    /// Announces this vgroup's composition to every overlay neighbour *and*
    /// every recent correspondent.
    ///
    /// The correspondent half is what heals one-directional links: a vgroup
    /// that keeps forwarding to us without appearing in our table would
    /// otherwise never learn our membership changed, and its stale
    /// addressing would permanently starve our newer members of gossip.
    /// Called on every composition change and periodically from
    /// [`Self::heartbeat_duties`] (anti-entropy for quiescent stretches).
    fn announce_composition(&mut self, effects: &mut Vec<Effect>) {
        let payload = GroupPayload::CompositionUpdate {
            group: self.vgroup,
            composition: self.composition.clone(),
        };
        let mut targets = self.neighbors.distinct_neighbors();
        for (group, (comp, _)) in &self.correspondents {
            targets.entry(*group).or_insert_with(|| comp.clone());
        }
        for (group, comp) in targets {
            if self.departed_groups.contains(&group) {
                continue;
            }
            self.send_group_message(&comp, payload.clone(), effects);
        }
    }

    /// Starts the random walk shuffling of §3.2. Damped by local time:
    /// under churn every exchange reconfigures two vgroups, and launching a
    /// fresh set of walks on every reconfiguration feeds back into more
    /// reconfigurations until joins and leaves starve. The time gate is a
    /// local heuristic, so members of one vgroup can disagree on whether a
    /// wave launched — that is fail-safe, not fork-prone: a walk launched
    /// by a minority never assembles a majority of copies at its first hop
    /// and dies there, costing only that wave (an epoch-derived gate was
    /// tried instead and made shuffles fire synchronously with splits,
    /// which is far worse — see CHANGES.md PR 1).
    fn start_shuffle(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let min_gap = self.params.round.saturating_mul(8);
        if let Some(last) = self.last_shuffle {
            if now.saturating_since(last) < min_gap {
                return;
            }
        }
        self.last_shuffle = Some(now);
        // Bound the breadth too: exchanging the whole membership in one wave
        // replaces every member while the welcome quorums of the incoming
        // ones are still assembling, which strands them en masse. Two
        // exchanges per wave still mix the membership over successive
        // reconfigurations. The subset is derived from (vgroup, epoch) so
        // every member launches the same walks.
        let members: Vec<NodeId> = self.composition.iter().collect();
        let breadth = 2.min(members.len());
        let start = (Digest::of_parts(&[
            b"shuffle-subset",
            &self.vgroup.raw().to_be_bytes(),
            &self.epoch.to_be_bytes(),
        ])
        .as_u64()
            % members.len().max(1) as u64) as usize;
        let members: Vec<NodeId> = (0..breadth)
            .map(|i| members[(start + i) % members.len()])
            .collect();
        for member in members {
            let seed = Digest::of_parts(&[
                b"shuffle",
                &self.vgroup.raw().to_be_bytes(),
                &self.epoch.to_be_bytes(),
                &member.raw().to_be_bytes(),
            ]);
            let walk_id =
                self.start_walk(WalkPurpose::ShuffleExchange { member }, seed, now, effects);
            self.outstanding_exchanges.insert(walk_id, member);
        }
    }

    /// Logarithmic grouping: split when too large, merge when too small.
    fn maybe_resize(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        if self.composition.len() > self.params.gmax {
            self.split(now, effects);
        } else if self.composition.len() < self.params.gmin && !self.merging {
            self.request_merge(effects);
        }
    }

    fn split(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let seed = Digest::of_parts(&[
            b"split",
            &self.vgroup.raw().to_be_bytes(),
            &self.epoch.to_be_bytes(),
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.as_u64());
        let mut order: Vec<usize> = (0..self.composition.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let (keep, depart) = self.composition.split_by_order(&order);
        let new_group = VgroupId::new(seed.as_u64() | 0x8000_0000_0000_0000);

        if depart.contains(self.me) {
            // This member moves to the new vgroup. It starts with a copy of
            // the old neighbour table; the anchor walks started by the
            // remaining half will introduce its real neighbours.
            self.vgroup = new_group;
            self.composition = depart;
            self.after_composition_change(now);
            self.announce_composition(effects);
        } else {
            self.composition = keep;
            self.after_composition_change(now);
            self.announce_composition(effects);
            // One anchor walk per cycle inserts the new group into the
            // overlay.
            for cycle in 0..self.params.hc {
                let walk_seed = Digest::of_parts(&[
                    b"split-anchor",
                    &self.vgroup.raw().to_be_bytes(),
                    &self.epoch.to_be_bytes(),
                    &[cycle],
                ]);
                self.start_walk(
                    WalkPurpose::SplitAnchor {
                        cycle,
                        new_group,
                        composition: depart.clone(),
                    },
                    walk_seed,
                    now,
                    effects,
                );
            }
        }
    }

    fn request_merge(&mut self, effects: &mut Vec<Effect>) {
        // Merge with the successor on cycle 0 (a random neighbour would do;
        // a deterministic choice keeps all members consistent).
        let Some(entry) = self.neighbors.cycle(0).cloned() else {
            return;
        };
        if entry.successor == self.vgroup {
            return; // We are alone in the system; nothing to merge with.
        }
        self.merging = true;
        let members: Vec<NodeId> = self.composition.iter().collect();
        self.send_group_message(
            &entry.successor_composition,
            GroupPayload::MergeRequest {
                from: self.vgroup,
                members,
            },
            effects,
        );
        // Bridge the gaps we leave behind on every cycle.
        for cycle in 0..self.neighbors.cycle_count() {
            let Some(e) = self.neighbors.cycle(cycle).cloned() else {
                continue;
            };
            if e.predecessor == self.vgroup || e.successor == self.vgroup {
                continue;
            }
            self.send_group_message(
                &e.predecessor_composition,
                GroupPayload::CyclePatch {
                    cycle: cycle as u8,
                    new_is_successor: true,
                    group: e.successor,
                    composition: e.successor_composition.clone(),
                },
                effects,
            );
            self.send_group_message(
                &e.successor_composition,
                GroupPayload::CyclePatch {
                    cycle: cycle as u8,
                    new_is_successor: false,
                    group: e.predecessor,
                    composition: e.predecessor_composition.clone(),
                },
                effects,
            );
        }
    }

    // ----------------------------------------------------------- liveness

    fn note_alive(&mut self, peer: NodeId, now: Instant) {
        if self.composition.contains(peer) {
            self.last_heard.insert(peer, now);
            self.activated.insert(peer);
        }
    }

    /// The composition peers this member's failure detector presumes live
    /// (heard within the eviction window), plus the member itself. Used by
    /// the host to bound the catch-up welcome threshold: when half of a
    /// composition is permanently silent (stranded admissions, half-failed
    /// exchanges), waiting for a majority of *all* entries would deadlock
    /// the recovery that would evict them.
    pub fn presumed_live(&self, now: Instant) -> BTreeSet<NodeId> {
        let window = self
            .params
            .heartbeat_period
            .saturating_mul(self.params.eviction_threshold as u64);
        let mut live: BTreeSet<NodeId> = self
            .composition
            .iter()
            .filter(|&p| {
                p != self.me
                    && self
                        .last_heard
                        .get(&p)
                        .is_some_and(|t| now.saturating_since(*t) <= window)
            })
            .collect();
        live.insert(self.me);
        live
    }

    /// Diagnostic snapshot of the failure-detector state, used by the
    /// experiment tooling to attribute churn stalls: for every composition
    /// peer, the seconds since it was last heard, whether it has activated
    /// in this membership session, and how many decided accusations it has
    /// accumulated.
    pub fn liveness_snapshot(&self, now: Instant) -> Vec<(NodeId, f64, bool, usize)> {
        self.composition
            .iter()
            .filter(|&p| p != self.me)
            .map(|p| {
                let last = self.last_heard.get(&p).copied().unwrap_or(Instant::ZERO);
                (
                    p,
                    now.saturating_since(last).as_secs_f64(),
                    self.activated.contains(&p),
                    self.evict_accusations.get(&p).map_or(0, |a| a.len()),
                )
            })
            .collect()
    }

    /// `true` once this membership's fence has closed: it decides nothing
    /// more, and ends unless a catch-up welcome replaces it first.
    pub fn fenced(&self) -> bool {
        matches!(self.fence, Fence::Fenced(..))
    }

    /// Closes the fence: the engine is dropped, so nothing more is decided
    /// in this membership. `cause` is 1 for a composition peer claiming a
    /// newer epoch (see [`Self::on_peer_epoch`]) and 2 for no peer presumed
    /// live (see [`Self::tick`]).
    fn close_fence(&mut self, cause: u64, now: Instant) {
        if !self.fenced() {
            self.trace_fence(cause, now);
            self.fence = Fence::Fenced(now, None);
        }
    }

    /// One `Join` trace event of the fence: `code` is the cause it closed
    /// on (see [`Self::close_fence`]), or 3 when it ends the membership.
    fn trace_fence(&self, code: u64, now: Instant) {
        atum_obs::trace_event!(
            Join,
            at = now.as_micros(),
            node = self.me.raw(),
            slots = [code, self.epoch, self.presumed_live(now).len() as u64 - 1],
            "fence {code} in vgroup {:?} at epoch {}",
            self.vgroup,
            self.epoch
        );
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
    /// [`Self::heartbeat_duties`].
    ///
    /// A composition member at a newer epoch means the vgroup moved on
    /// without us: close the fence. A single claim is enough. After a quiet
    /// reconfiguration the one peer ahead may be the only traffic source,
    /// and an engine left running in the dead epoch forks this member's
    /// state (phantom splits with diverging vgroup ids). A forged claim only
    /// costs a catch-up or a re-join, so a Byzantine member can cause
    /// disruption, not divergence.
    fn on_peer_epoch(&mut self, from: NodeId, epoch: u64, now: Instant, effects: &mut Vec<Effect>) {
        let member = self.composition.contains(from);
        if epoch > self.epoch && member {
            self.close_fence(1, now);
        } else if epoch < self.epoch && self.caught_up.get(&from) != Some(&self.epoch) {
            self.caught_up
                .insert(from, if member { self.epoch } else { epoch });
            if member {
                self.send_welcome(from, effects);
            }
        }
    }

    /// Records a heartbeat from a vgroup peer. Heartbeats for a different
    /// vgroup are ignored: they come from a node whose *own* composition has
    /// a stale entry for us and say nothing about membership here. The
    /// carried epoch doubles as an idle-engine divergence detector (see
    /// [`Self::on_peer_epoch`]).
    pub fn on_heartbeat(
        &mut self,
        from: NodeId,
        group: VgroupId,
        epoch: u64,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if group != self.vgroup {
            return;
        }
        self.note_alive(from, now);
        self.on_peer_epoch(from, epoch, now, effects);
    }

    fn heartbeat_duties(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let period = self.params.heartbeat_period;
        // A node this composition no longer lists spoke at an older epoch
        // (see `on_peer_epoch`): heartbeat it ours, once. Its stale
        // composition still lists us, so that closes its fence before its
        // engine can decide its own proposals alone. Telling it a tick
        // later, not on receipt, spares a member that is merely a tick
        // behind: it decides its own removal at its next tick first.
        let (group, epoch) = (self.vgroup, self.epoch);
        for (&to, told) in &mut self.caught_up {
            if *told < epoch && !self.composition.contains(to) {
                *told = epoch;
                let msg = AtumMessage::Heartbeat { group, epoch };
                effects.push(Effect::Send { to, msg });
            }
        }
        // Composition anti-entropy, at half the heartbeat cadence: neighbour
        // views must converge even while the overlay is quiescent (the
        // on-change announcements cover the churny stretches). Correspondent
        // entries that stayed silent for eight periods have dissolved or
        // moved on and are dropped.
        if now.saturating_since(self.last_announce) >= period.saturating_mul(2) {
            self.last_announce = now;
            let stale_after = period.saturating_mul(8);
            self.correspondents
                .retain(|_, (_, heard)| now.saturating_since(*heard) <= stale_after);
            self.announce_composition(effects);
            if self.params.link_repair {
                self.probe_links(now, effects);
            }
            if self.params.broadcast_repair {
                self.session.anti_entropy(view!(self), now, effects);
            }
        }
        if now.saturating_since(self.last_heartbeat_sent) >= period {
            self.last_heartbeat_sent = now;
            for peer in self.composition.iter().filter(|&p| p != self.me) {
                effects.push(Effect::Send {
                    to: peer,
                    msg: AtumMessage::Heartbeat {
                        group: self.vgroup,
                        epoch: self.epoch,
                    },
                });
            }
            let eviction_after = period.saturating_mul(self.params.eviction_threshold as u64);
            // A composition entry we have never heard from is a stranded
            // admission (its Welcome quorum failed mid-churn), not a crashed
            // member: it is evicted on a two-period fuse before it can drag
            // the vgroup's quorums down, and re-welcomed in the meantime in
            // case it can still activate.
            let ghost_after = period.saturating_mul(2);
            let me = self.me;
            let mut accuse: Vec<NodeId> = Vec::new();
            for peer in self.composition.iter().filter(|&p| p != me) {
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
                    // re-welcomed once per period so a stranded node can
                    // still accumulate its quorum — welcomes are idempotent
                    // and the receiver's pending quorum spans epochs.
                    self.send_welcome(peer, effects);
                }
            }
            for peer in accuse {
                let op = GroupOp::Evict {
                    node: peer,
                    accuser: self.me,
                    nonce: self.epoch,
                };
                self.propose(op, now, effects);
            }
        }
    }

    /// Consecutive unanswered probes per direction before a link is declared
    /// dead and an orphan re-insertion walk is launched.
    const LINK_PROBE_PATIENCE: u32 = 3;

    /// Link repair, part 1 (probing): at the announce cadence, ask every
    /// cycle neighbour whether it links back to us. Overlay surgery (split
    /// insertion, merge cycle-patching) racing admission churn can leave a
    /// link one-directional — our table names a successor whose own table
    /// still names our *old* neighbour as predecessor (its `CyclePatch`
    /// majority never assembled). A probe carries our far-side neighbour as
    /// evidence so the receiver can tell "stale entry, adopt the prober"
    /// from "genuine disagreement, re-point the prober" (see
    /// [`Self::on_link_probe`]). A direction that stays unanswered for
    /// [`Self::LINK_PROBE_PATIENCE`] rounds means nobody on the far side
    /// links back at all: this vgroup has been orphaned from the cycle, and
    /// re-inserts itself with a split-anchor walk (part 2).
    ///
    /// Every member probes independently on its own clock; the receiver's
    /// majority collector aggregates the per-member copies exactly as it
    /// does for composition announcements. The nonce (announce-period
    /// bucket) keeps successive rounds distinct, so a round is not
    /// swallowed by the receiver's accepted-duplicate cache.
    fn probe_links(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let announce = self.params.heartbeat_period.saturating_mul(2);
        let nonce = now.as_micros() / announce.as_micros().max(1);
        let mut orphaned: Vec<u8> = Vec::new();
        for cycle_idx in 0..self.neighbors.cycle_count() {
            let Some(entry) = self.neighbors.cycle(cycle_idx).cloned() else {
                continue;
            };
            let cycle = cycle_idx as u8;
            let directions = [
                (
                    true,
                    entry.successor,
                    entry.successor_composition.clone(),
                    entry.predecessor,
                ),
                (
                    false,
                    entry.predecessor,
                    entry.predecessor_composition.clone(),
                    entry.successor,
                ),
            ];
            for (toward_successor, target, comp, far) in directions {
                if target == self.vgroup || self.departed_groups.contains(&target) {
                    // Self-loops (bootstrap) and links already known dead
                    // are not probed; the latter are re-routed by walks.
                    self.link_probes.remove(&(cycle, toward_successor));
                    continue;
                }
                let unanswered = self
                    .link_probes
                    .entry((cycle, toward_successor))
                    .or_insert(0);
                if *unanswered >= Self::LINK_PROBE_PATIENCE {
                    *unanswered = 0;
                    orphaned.push(cycle);
                    continue;
                }
                *unanswered += 1;
                // Address the probe through the freshest composition we hold
                // for the target (CompositionUpdates may be newer than the
                // cycle entry), like walk routing does.
                let comp = self
                    .neighbors
                    .composition_of(target)
                    .cloned()
                    .unwrap_or(comp);
                self.send_group_message(
                    &comp,
                    GroupPayload::LinkProbe {
                        cycle,
                        sender_is_predecessor: toward_successor,
                        far_neighbor: far,
                        nonce,
                    },
                    effects,
                );
            }
        }
        // Link repair, part 2 (orphan re-insertion): nobody on the far side
        // of `cycle` acknowledges us — walk to a random live vgroup and have
        // it splice us in as its successor, re-using the split-anchor
        // machinery (`InsertOverlayNeighbor` refuses self-insertion, so a
        // walk that dies back at this vgroup is a no-op, not a self-loop).
        for cycle in orphaned {
            let walk_seed = Digest::of_parts(&[
                b"link-repair",
                &self.vgroup.raw().to_be_bytes(),
                &self.epoch.to_be_bytes(),
                &nonce.to_be_bytes(),
                &[cycle],
            ]);
            self.start_walk(
                WalkPurpose::SplitAnchor {
                    cycle,
                    new_group: self.vgroup,
                    composition: self.composition.clone(),
                },
                walk_seed,
                now,
                effects,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: u64) -> Arc<KeyRegistry> {
        let mut r = KeyRegistry::new();
        for i in 0..n {
            r.register(NodeId::new(i), 1);
        }
        r.shared()
    }

    fn member(n_nodes: u64, me: u64) -> MemberState {
        let params = Params::default().with_group_bounds(2, 20);
        let composition: Composition = (0..n_nodes).map(NodeId::new).collect();
        let vgroup = VgroupId::new(500);
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        MemberState::with_membership(
            NodeId::new(me),
            params,
            registry(n_nodes),
            Session::default(),
            vgroup,
            composition,
            neighbors,
            0,
            Instant::ZERO,
        )
    }

    #[test]
    fn bootstrap_creates_single_member_self_loop() {
        let params = Params::default();
        let m = MemberState::bootstrap(
            NodeId::new(3),
            params.clone(),
            registry(5),
            Session::default(),
            Instant::ZERO,
        );
        assert_eq!(m.composition.len(), 1);
        assert!(m.composition.contains(NodeId::new(3)));
        assert!(m.neighbors.is_complete());
        assert_eq!(m.neighbors.cycle_count(), params.hc as usize);
    }

    #[test]
    fn single_member_broadcast_applies_immediately() {
        let mut m = MemberState::bootstrap(
            NodeId::new(0),
            Params::default(),
            registry(1),
            Session::default(),
            Instant::ZERO,
        );
        let mut effects = Vec::new();
        let id = m.start_broadcast(b"solo".to_vec(), Instant::ZERO, &mut effects);
        assert_eq!(id.origin, NodeId::new(0));
        let delivered: Vec<&Delivered> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, b"solo".to_vec());
        assert_eq!(m.session().stats().delivered.len(), 1);
    }

    #[test]
    fn broadcast_in_multi_member_group_goes_through_smr() {
        let mut m = member(4, 0);
        let mut effects = Vec::new();
        m.start_broadcast(b"x".to_vec(), Instant::ZERO, &mut effects);
        // Nothing is delivered yet: agreement is pending.
        assert!(effects.iter().all(|e| !matches!(e, Effect::Deliver(_))));
        // The synchronous engine sends the proposal at once, into the slot
        // that is already open, to each of the three vgroup peers.
        let peers: BTreeSet<NodeId> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: AtumMessage::Smr { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(peers.len(), 3, "expected SMR messages, got {effects:?}");
        assert!(!peers.contains(&m.me));
    }

    #[test]
    fn accepted_gossip_is_delivered_once_and_forwarded() {
        let mut m = member(3, 0);
        // Pretend a neighbouring vgroup (id 500 is ourselves, so fabricate
        // another) sent us a gossip group message: majority of its 3 members.
        let other = VgroupId::new(7);
        let other_comp: Composition = (10..13).map(NodeId::new).collect();
        let payload = GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(10), 0),
            payload: b"hello".to_vec().into(),
            hops: 1,
        };
        let envelope = Arc::new(GroupEnvelope::new(other, other_comp.clone(), payload));
        let mut effects = Vec::new();
        let mut allow = |_d: &Delivered, _g: VgroupId| true;
        for sender in [10u64, 11] {
            m.on_group_copy(
                NodeId::new(sender),
                envelope.clone(),
                Instant::from_micros(5),
                &mut effects,
                &mut allow,
            );
        }
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, Effect::Deliver(_)))
            .count();
        assert_eq!(delivered, 1, "majority of 3 is 2 senders");
        // A third copy does not deliver again.
        m.on_group_copy(
            NodeId::new(12),
            envelope,
            Instant::from_micros(6),
            &mut effects,
            &mut allow,
        );
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, Effect::Deliver(_)))
            .count();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn forward_filter_suppresses_forwarding() {
        let mut m = member(3, 0);
        let other = VgroupId::new(7);
        let other_comp: Composition = (10..13).map(NodeId::new).collect();
        let envelope = Arc::new(GroupEnvelope::new(
            other,
            other_comp,
            GroupPayload::Gossip {
                id: BroadcastId::new(NodeId::new(10), 1),
                payload: b"quiet".to_vec().into(),
                hops: 0,
            },
        ));
        let mut effects = Vec::new();
        let mut deny = |_d: &Delivered, _g: VgroupId| false;
        for sender in [10u64, 11] {
            m.on_group_copy(
                NodeId::new(sender),
                envelope.clone(),
                Instant::ZERO,
                &mut effects,
                &mut deny,
            );
        }
        // Delivered locally but no gossip group messages sent onwards.
        assert!(effects.iter().any(|e| matches!(e, Effect::Deliver(_))));
        let gossip_sends = effects
            .iter()
            .filter(|e| match e {
                Effect::Send {
                    msg: AtumMessage::Group(env),
                    ..
                } => matches!(env.payload, GroupPayload::Gossip { .. }),
                _ => false,
            })
            .count();
        assert_eq!(gossip_sends, 0);
    }

    #[test]
    fn composition_update_refreshes_neighbor_table() {
        let mut m = member(3, 0);
        let new_comp: Composition = (20..25).map(NodeId::new).collect();
        let envelope = Arc::new(GroupEnvelope::new(
            VgroupId::new(500),
            m.composition.clone(),
            GroupPayload::CompositionUpdate {
                group: VgroupId::new(500),
                composition: new_comp.clone(),
            },
        ));
        let mut effects = Vec::new();
        let mut allow = |_d: &Delivered, _g: VgroupId| true;
        for sender in [0u64, 1] {
            m.on_group_copy(
                NodeId::new(sender),
                envelope.clone(),
                Instant::ZERO,
                &mut effects,
                &mut allow,
            );
        }
        assert_eq!(
            m.neighbors.composition_of(VgroupId::new(500)),
            Some(&new_comp)
        );
    }

    #[test]
    fn eviction_requires_corroboration() {
        let mut m = member(5, 0);
        let mut effects = Vec::new();
        // A single accusation (applied directly) must not evict in a 5-node
        // group (f+1 = 3 accusers needed synchronously).
        let mut follow = Vec::new();
        m.apply_op(
            GroupOp::Evict {
                node: NodeId::new(4),
                accuser: NodeId::new(0),
                nonce: 0,
            },
            Instant::ZERO,
            &mut effects,
            &mut follow,
        );
        assert!(m.composition.contains(NodeId::new(4)));
        assert_eq!(m.session().stats().evictions, 0);
        // Two more accusations from distinct members cross the f+1 = 3
        // threshold and the member is removed.
        for accuser in [1u64, 2] {
            m.apply_op(
                GroupOp::Evict {
                    node: NodeId::new(4),
                    accuser: NodeId::new(accuser),
                    nonce: 0,
                },
                Instant::ZERO,
                &mut effects,
                &mut follow,
            );
        }
        assert!(!m.composition.contains(NodeId::new(4)));
        assert_eq!(m.session().stats().evictions, 1);
    }

    #[test]
    fn heartbeat_timer_emits_heartbeats() {
        let mut m = member(3, 0);
        let mut effects = Vec::new();
        let later = Instant::ZERO + m.params.heartbeat_period + atum_types::Duration::from_secs(1);
        m.tick(later, &mut effects);
        let heartbeats = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        msg: AtumMessage::Heartbeat { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(heartbeats, 2, "one heartbeat per peer");
    }

    /// Every peer of `m` heartbeats it at time zero, at its epoch.
    fn hear_every_peer(m: &mut MemberState) {
        let peers: Vec<NodeId> = m.composition.iter().filter(|&p| p != m.id()).collect();
        for peer in peers {
            m.on_heartbeat(peer, m.vgroup, m.epoch, Instant::ZERO, &mut Vec::new());
        }
    }

    /// `n` half rounds of `m`'s parameters.
    fn half_rounds(m: &MemberState, n: u64) -> atum_types::Duration {
        atum_types::Duration::from_micros(m.params.round.as_micros() / 2).saturating_mul(n)
    }

    /// One eviction window of `m`'s parameters.
    fn eviction_window(m: &MemberState) -> atum_types::Duration {
        let threshold = u64::from(m.params.eviction_threshold);
        m.params.heartbeat_period.saturating_mul(threshold)
    }

    /// Ticks `m` every half round after `from` up to `to` and returns what
    /// it emitted.
    fn tick_until(m: &mut MemberState, from: Instant, to: Instant) -> Vec<Effect> {
        let step = half_rounds(m, 1);
        let mut effects = Vec::new();
        let mut now = from + step;
        while now <= to {
            m.tick(now, &mut effects);
            now += step;
        }
        effects
    }

    fn strandings(effects: &[Effect]) -> usize {
        let stranded = |e: &&Effect| matches!(e, Effect::MembershipEnded(Ending::Stranded));
        effects.iter().filter(stranded).count()
    }

    #[test]
    fn a_silent_composition_fences_and_ends_the_membership_once() {
        let mut m = member(4, 0);
        hear_every_peer(&mut m);
        let window_end = Instant::ZERO + eviction_window(&m);
        tick_until(&mut m, Instant::ZERO, window_end);
        assert!(
            !m.fenced(),
            "peers heard within the window are presumed live"
        );
        let since = window_end + half_rounds(&m, 1);
        let effects = tick_until(&mut m, window_end, since);
        assert!(m.fenced(), "no peer presumed live closes the fence");
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: AtumMessage::StateRequest { .. },
                    ..
                }
            )),
            "a fenced member solicits state"
        );
        let patience = half_rounds(&m, 40);
        let effects = tick_until(&mut m, since, since + patience);
        assert_eq!(strandings(&effects), 0, "the fence waits 20 rounds");
        let effects = tick_until(&mut m, since + patience, since + patience + patience);
        assert_eq!(strandings(&effects), 1, "and then ends the membership once");
    }

    #[test]
    fn a_two_member_survivor_evicts_its_silent_peer_and_decides_alone() {
        let mut m = member(2, 0);
        hear_every_peer(&mut m);
        // Its own accusation goes out at the first heartbeat past the
        // eviction window, and one accuser suffices in a 2-member vgroup.
        let end =
            Instant::ZERO + eviction_window(&m) + m.params.heartbeat_period + half_rounds(&m, 20);
        tick_until(&mut m, Instant::ZERO, end);
        assert!(!m.fenced());
        assert_eq!(m.composition, Composition::singleton(m.id()));
        let mut effects = Vec::new();
        m.start_broadcast(b"alone".to_vec(), end, &mut effects);
        assert!(effects.iter().any(|e| matches!(e, Effect::Deliver(_))));
    }

    #[test]
    fn a_newer_epoch_claim_fences_at_once() {
        let mut m = member(4, 0);
        let mut effects = Vec::new();
        m.on_heartbeat(NodeId::new(9), m.vgroup, 1, Instant::ZERO, &mut effects);
        assert!(
            !m.fenced(),
            "a node the composition does not list is not heeded"
        );
        m.on_heartbeat(NodeId::new(1), m.vgroup, 1, Instant::ZERO, &mut effects);
        assert!(m.fenced());
        m.start_broadcast(b"held".to_vec(), Instant::ZERO, &mut effects);
        let ten_rounds = Instant::ZERO + half_rounds(&m, 20);
        let effects = tick_until(&mut m, Instant::ZERO, ten_rounds);
        assert!(
            effects.iter().all(|e| !matches!(
                e,
                Effect::Deliver(_)
                    | Effect::Send {
                        msg: AtumMessage::Smr { .. },
                        ..
                    }
            )),
            "a fenced member neither proposes nor decides"
        );
    }

    #[test]
    fn walk_routing_terminates_locally_when_isolated() {
        // A bootstrap (single-vgroup) member that starts a join placement
        // walk must select itself and admit the joiner.
        let mut m = MemberState::bootstrap(
            NodeId::new(0),
            Params::default().with_group_bounds(1, 10),
            registry(2),
            Session::default(),
            Instant::ZERO,
        );
        let mut effects = Vec::new();
        let mut follow = Vec::new();
        m.apply_op(
            GroupOp::HandleJoinRequest {
                joiner: NodeId::new(1),
                nonce: 0,
                rejoin: false,
            },
            Instant::ZERO,
            &mut effects,
            &mut follow,
        );
        assert!(
            m.composition.contains(NodeId::new(1)),
            "{:?}",
            m.composition
        );
        // The joiner received a Welcome.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                to,
                msg: AtumMessage::Welcome { .. }
            } if *to == NodeId::new(1)
        )));
    }

    #[test]
    fn oversized_group_splits_deterministically() {
        let params = Params::default().with_group_bounds(2, 5);
        let composition: Composition = (0..8).map(NodeId::new).collect();
        let vgroup = VgroupId::new(500);
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        let make = |me: u64| {
            MemberState::with_membership(
                NodeId::new(me),
                params.clone(),
                registry(8),
                Session::default(),
                vgroup,
                composition.clone(),
                neighbors.clone(),
                0,
                Instant::ZERO,
            )
        };
        let mut groups = Vec::new();
        for me in 0..8u64 {
            let mut m = make(me);
            let mut effects = Vec::new();
            m.maybe_resize(Instant::ZERO, &mut effects);
            groups.push((m.vgroup, m.composition.clone()));
        }
        // All members agree on the partition: exactly two distinct vgroups,
        // each member's stored composition contains itself, and the two
        // halves are disjoint and cover everyone.
        let distinct: BTreeSet<VgroupId> = groups.iter().map(|(g, _)| *g).collect();
        assert_eq!(distinct.len(), 2);
        for (i, (_, comp)) in groups.iter().enumerate() {
            assert!(comp.contains(NodeId::new(i as u64)));
            assert!(comp.len() >= 4);
        }
        let union: BTreeSet<NodeId> = groups
            .iter()
            .flat_map(|(_, c)| c.iter().collect::<Vec<_>>())
            .collect();
        assert_eq!(union.len(), 8);
    }

    #[test]
    fn undersized_group_requests_merge() {
        let params = Params::default().with_group_bounds(4, 10);
        let composition: Composition = (0..2).map(NodeId::new).collect();
        let vgroup = VgroupId::new(500);
        let mut neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        // Give it a real neighbour on cycle 0 so a merge target exists.
        let other_comp: Composition = (10..15).map(NodeId::new).collect();
        neighbors.set_cycle(
            0,
            atum_overlay::CycleNeighbors {
                predecessor: VgroupId::new(600),
                predecessor_composition: other_comp.clone(),
                successor: VgroupId::new(600),
                successor_composition: other_comp.clone(),
            },
        );
        let mut m = MemberState::with_membership(
            NodeId::new(0),
            params,
            registry(2),
            Session::default(),
            vgroup,
            composition,
            neighbors,
            0,
            Instant::ZERO,
        );
        let mut effects = Vec::new();
        m.maybe_resize(Instant::ZERO, &mut effects);
        let merge_requests = effects
            .iter()
            .filter(|e| match e {
                Effect::Send {
                    msg: AtumMessage::Group(env),
                    ..
                } => matches!(env.payload, GroupPayload::MergeRequest { .. }),
                _ => false,
            })
            .count();
        // One copy per member of the target vgroup (5 members).
        assert_eq!(merge_requests, 5);
    }
}
