//! The state and protocol logic of a node that is a member of a vgroup.
//!
//! [`MemberState`] is a pure state machine: its methods consume events
//! (decided operations, accepted group messages, timer ticks) and push
//! [`Effect`]s onto one effect vector for the hosting
//! [`AtumNode`](crate::AtumNode) to carry out (messages to send,
//! application deliveries). Keeping it free of I/O makes the group-layer
//! logic unit-testable without a network.
//!
//! # Three parts over one configuration
//!
//! A member does three jobs, and one part owns the fields of each:
//!
//! - The **group** part (`member/group.rs`) holds the vgroup's
//!   [`Configuration`] (vgroup, composition, neighbour table, epoch) and
//!   the bookkeeping only decided operations write: `applied_ops`,
//!   `outstanding_exchanges`, `reserved`, `evict_accusations`,
//!   `departed_groups` and `merging`. It applies the decided operations,
//!   resizes, splits and merges, and starts and routes walks.
//! - The **liveness** part (`member/liveness.rs`) runs failure detection
//!   on this node's own clock: the fence (which holds the SMR engine),
//!   `last_heard`, `activated`, `caught_up` and `last_heartbeat_sent`. It
//!   sends heartbeats, names the peers to accuse and answers other epochs.
//! - The **upkeep** part (`member/upkeep.rs`) maintains the overlay, also
//!   on its own clock: `correspondents`, `last_announce`, `link_probes`
//!   and `last_shuffle`. It announces compositions, probes links and paces
//!   the shuffles.
//!
//! `MemberState` composes them with what belongs to no single job: this
//! node's identity, the parameters and keys, the ops it proposed and has
//! not seen applied (`my_pending`), the group-message collector and the
//! node's [`Session`].
//!
//! No part reads or writes another part's fields. Each part's fields are
//! private to its module; a part reaches the others only through their
//! methods, and reads the configuration through a borrowed `View`. The
//! seam is the one between agreed and local state. The group part is
//! replicated: every correct member of a vgroup applies the same decided
//! ops to it, so nothing local may leak in, or members diverge. The other
//! two parts run on local clocks and may legitimately differ between
//! members.
//!
//! Effects keep one order. A tick runs the engine (or the fenced duties),
//! then straggler heartbeats, then announcements, link probes and
//! anti-entropy, then heartbeats and accusations.

mod group;
mod liveness;
mod upkeep;

pub use self::group::Configuration;
use self::group::Group;
use self::liveness::Liveness;
use self::upkeep::Upkeep;
use crate::app::Delivered;
use crate::broadcast::{repair_metrics, Session};
use crate::message::{AtumMessage, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
use atum_crypto::{Digest, KeyRegistry};
use atum_overlay::{GroupMessageCollector, Observed};
use atum_smr::{Action, Replication, SmrMessage};
use atum_types::{BroadcastId, Composition, Instant, NodeId, Params, VgroupId};
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// A field that is not protocol state: shared infrastructure or a
/// statistic. Its `Debug` prints `_`, so the model checker's fingerprint
/// (the derived `Debug` of a node's protocol state) leaves it out by type.
#[derive(Clone, Default)]
pub(crate) struct Unrendered<T>(pub(crate) T);

impl<T> std::ops::Deref for Unrendered<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::fmt::Debug for Unrendered<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("_")
    }
}

/// The vgroup-membership state of one node: its three parts and what
/// wires them together (see the module docs).
///
/// All associative containers are ordered (`BTreeMap`/`BTreeSet`, enforced
/// by the determinism lint): iteration order leaks into protocol behaviour
/// and into the model checker's state fingerprints, so it must not depend
/// on process-local hash seeds. Its derived `Debug` is that fingerprint;
/// the parameters and the key registry are shared infrastructure and left
/// out by type.
#[derive(Debug, Clone)]
pub struct MemberState {
    me: NodeId,
    params: Unrendered<Params>,
    registry: Unrendered<Arc<KeyRegistry>>,
    group: Group,
    liveness: Liveness,
    upkeep: Upkeep,
    /// Operations this member proposed but has not yet seen applied, keyed
    /// by their memoized digest so the dedup scan compares cached 32-byte
    /// values instead of re-hashing every pending op.
    my_pending: Vec<(Digest, GroupOp)>,
    collector: GroupMessageCollector<Arc<GroupEnvelope>>,
    /// The node-lifetime state (broadcast plane and statistics): held for
    /// as long as this membership lasts, then moved on by
    /// [`Self::into_session`] or [`Self::succeeded_by`].
    session: Session,
}

/// A membership with its group part borrowed apart (see
/// [`MemberState::parts`]) for one event at `now`: what the group part
/// reaches, through methods, while it applies a decided op. That is the
/// proposer (the engine behind the liveness part's fence, and
/// `my_pending`), the liveness part a reconfiguration resets, the upkeep
/// part it announces through, the collector and the session — and the one
/// effect vector every part pushes onto.
struct Wiring<'a> {
    now: Instant,
    effects: &'a mut Vec<Effect>,
    me: NodeId,
    params: &'a Params,
    registry: &'a Arc<KeyRegistry>,
    liveness: &'a mut Liveness,
    upkeep: &'a mut Upkeep,
    collector: &'a mut GroupMessageCollector<Arc<GroupEnvelope>>,
    session: &'a mut Session,
    my_pending: &'a mut Vec<(Digest, GroupOp)>,
}

impl Wiring<'_> {
    /// Proposes an operation for agreement inside the vgroup.
    fn propose(&mut self, group: &mut Group, op: GroupOp) {
        use atum_smr::SmrOp as _;
        let digest = op.digest();
        if group.has_applied(digest) {
            return;
        }
        if !self.my_pending.iter().any(|(d, _)| *d == digest) {
            self.my_pending.push((digest, op.clone()));
        }
        let composition = &group.config().composition;
        if composition.len() == 1 && composition.contains(self.me) {
            // Single-member vgroup: agreement is trivial; apply immediately.
            // Follow-ups (ops drained from `my_pending` by a reconfiguring
            // op, resize requests) must be re-proposed here exactly like
            // `process_actions` does, not dropped.
            let mut follow_ups = Vec::new();
            group.apply_op(op, self, &mut follow_ups);
            for op in follow_ups {
                self.propose(group, op);
            }
            return;
        }
        let Some(engine) = self.liveness.engine() else {
            return;
        };
        let actions = engine.propose(op, self.now);
        self.process_actions(group, actions);
    }

    /// Carries out what the engine asked: its sends first, then its
    /// decisions in order, then what those left to propose.
    fn process_actions(&mut self, group: &mut Group, actions: Vec<Action<GroupOp>>) {
        // Apply decisions after queuing sends so message order stays sane.
        let mut decided = Vec::new();
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let (vgroup, epoch) = (group.config().vgroup, group.config().epoch);
                    let msg = AtumMessage::Smr {
                        group: vgroup,
                        epoch,
                        msg,
                    };
                    self.effects.push(Effect::Send { to, msg });
                }
                Action::Deliver(decision) => decided.push(decision.op),
            }
        }
        let mut follow_ups = Vec::new();
        for op in decided {
            group.apply_op(op, self, &mut follow_ups);
        }
        // This includes the ops `apply_op` drained out of `my_pending` when
        // a decided op reconfigured the vgroup: re-proposing them into the
        // fresh engine is what keeps joins and leaves alive under churn.
        for op in follow_ups {
            self.propose(group, op);
        }
    }
}

impl MemberState {
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
        let config = Configuration::bootstrap(me, params.hc);
        Self::with_membership(me, params, registry, session, config, now)
    }

    /// Creates the member state of a node in `config` (used when a
    /// `Welcome` is accepted, and by the simulation harness to bootstrap
    /// large systems without running thousands of joins), around the node's
    /// one `session`.
    pub fn with_membership(
        me: NodeId,
        params: Params,
        registry: Arc<KeyRegistry>,
        mut session: Session,
        config: Configuration,
        now: Instant,
    ) -> Self {
        let group = Group::new(config);
        let liveness = Liveness::new(&group.view(me, &params), &registry, now);
        MemberState {
            me,
            params: Unrendered(params),
            registry: Unrendered(registry),
            group,
            liveness,
            upkeep: Upkeep::new(now),
            // What the node's last membership left undecided, for
            // `resume` to propose here.
            my_pending: session.take_undecided(),
            collector: GroupMessageCollector::new(4096),
            session,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The configuration this membership is in.
    pub fn config(&self) -> &Configuration {
        self.group.config()
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

    /// The group part, and the rest of the membership wired to it.
    fn parts<'a>(
        &'a mut self,
        now: Instant,
        effects: &'a mut Vec<Effect>,
    ) -> (&'a mut Group, Wiring<'a>) {
        let cx = Wiring {
            now,
            effects,
            me: self.me,
            params: &self.params,
            registry: &self.registry,
            liveness: &mut self.liveness,
            upkeep: &mut self.upkeep,
            collector: &mut self.collector,
            session: &mut self.session,
            my_pending: &mut self.my_pending,
        };
        (&mut self.group, cx)
    }

    /// `true`, having noted `from` alive, when `group` is this vgroup.
    /// Traffic from a different group instance is not evidence of anything
    /// about *this* vgroup: it comes from a node whose own composition has
    /// a stale entry for us.
    fn heard_in(&mut self, from: NodeId, group: VgroupId, now: Instant) -> bool {
        let config = self.group.config();
        if group != config.vgroup {
            return false;
        }
        self.liveness.note_alive(from, &config.composition, now);
        true
    }

    // ----------------------------------------------------------------- SMR

    /// Proposes an operation for agreement inside the vgroup.
    pub fn propose(&mut self, op: GroupOp, now: Instant, effects: &mut Vec<Effect>) {
        let (group, mut cx) = self.parts(now, effects);
        cx.propose(group, op);
    }

    /// Handles an intra-vgroup SMR message. In particular a higher epoch of
    /// another group (possible when two groups each hold a stale entry for
    /// a member of the other) must not close our fence.
    pub fn on_smr_message(
        &mut self,
        from: NodeId,
        group: VgroupId,
        epoch: u64,
        msg: SmrMessage<GroupOp>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if !self.heard_in(from, group, now) {
            return;
        }
        if epoch != self.group.config().epoch {
            let view = self.group.view(self.me, &self.params);
            self.liveness
                .on_peer_epoch(from, epoch, &view, now, effects);
            return;
        }
        let Some(engine) = self.liveness.engine() else {
            return;
        };
        let actions = engine.handle(from, msg, now);
        let (group, mut cx) = self.parts(now, effects);
        cx.process_actions(group, actions);
    }

    /// Advances timers: SMR rounds/timeouts, heartbeats, eviction checks,
    /// overlay upkeep (see the module docs for their order).
    pub fn tick(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let view = self.group.view(self.me, &self.params);
        self.liveness.check_isolation(&view, now);
        if let Some(engine) = self.liveness.engine() {
            let actions = engine.tick(now);
            let (group, mut cx) = self.parts(now, effects);
            cx.process_actions(group, actions);
        } else {
            self.liveness.fenced_duties(&view, now, effects);
        }
        let view = self.group.view(self.me, &self.params);
        self.liveness.tell_stragglers(&view, effects);
        if self.upkeep.announce_due(now, &self.params) {
            let departed = self.group.departed();
            self.upkeep.announce(&view, departed, effects);
            if self.params.link_repair {
                let orphaned = self.upkeep.probe_links(&view, departed, now, effects);
                let (group, mut cx) = self.parts(now, effects);
                group.reinsert(orphaned, &mut cx);
            }
            if self.params.broadcast_repair {
                let view = self.group.view(self.me, &self.params);
                self.session.anti_entropy(view, now, effects);
            }
        }
        let view = self.group.view(self.me, &self.params);
        for node in self.liveness.heartbeat(&view, now, effects) {
            let nonce = self.group.config().epoch;
            let op = GroupOp::Evict {
                node,
                accuser: self.me,
                nonce,
            };
            self.propose(op, now, effects);
        }
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
        if !self.heard_in(from, group, now) {
            return;
        }
        let view = self.group.view(self.me, &self.params);
        if peer_epoch < view.epoch && view.composition.contains(from) {
            view.send_welcome(from, effects);
        }
    }

    /// Records a heartbeat from a vgroup peer. Heartbeats for a different
    /// vgroup are ignored (see `heard_in`). The carried epoch
    /// doubles as an idle-engine divergence detector.
    pub fn on_heartbeat(
        &mut self,
        from: NodeId,
        group: VgroupId,
        epoch: u64,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if self.heard_in(from, group, now) {
            let view = self.group.view(self.me, &self.params);
            self.liveness
                .on_peer_epoch(from, epoch, &view, now, effects);
        }
    }

    /// Invoked by the host when the application (or API) wants to broadcast.
    pub fn start_broadcast(
        &mut self,
        payload: Vec<u8>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> BroadcastId {
        let id = self.session.next_broadcast_id(self.me);
        let payload = payload.into();
        self.propose(GroupOp::Broadcast { id, payload }, now, effects);
        id
    }

    /// Invoked by the host when this node wants to leave.
    pub fn start_leave(&mut self, now: Instant, effects: &mut Vec<Effect>) {
        let op = GroupOp::Leave {
            node: self.me,
            nonce: self.group.config().epoch,
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
    ) {
        let composition = envelope.source_composition.clone();
        let (source, digest) = (envelope.source, envelope.digest());
        let seen = self.observe_group_copy(from, source, &composition, digest, Some(envelope));
        if let Observed::Accepted(envelope) = seen {
            self.accept_group_message(envelope, &composition, now, effects);
        }
    }

    /// Handles one digest-only copy of a gossip group message: it counts
    /// towards the majority like a body-bearing copy of the same digest.
    ///
    /// When the majority comes without a body the session asks the voters
    /// for it (see `Session::pull_starved`).
    pub fn on_group_vote(
        &mut self,
        from: NodeId,
        vote: &GroupVote,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        let composition = &vote.source_composition;
        match self.observe_group_copy(from, vote.source, composition, vote.digest, None) {
            Observed::Pending => {}
            Observed::Accepted(envelope) => {
                self.accept_group_message(envelope, composition, now, effects);
            }
            Observed::Starved(voters) => {
                let view = self.group.view(self.me, &self.params);
                self.session.pull_starved(view, vote, voters, now, effects);
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
        let local_view = self.group.config().neighbors.composition_of(source);
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
    ) {
        let source = envelope.source;
        // Acceptance fires once per logical message: pay for the payload
        // here (a cheap clone — compositions and gossip bytes are
        // themselves Arc-backed), never per copy.
        let payload = match Arc::try_unwrap(envelope) {
            Ok(owned) => owned.payload,
            Err(shared) => shared.payload.clone(),
        };
        let comp = source_composition;
        if source != self.group.config().vgroup {
            // Record the reverse link. The claimed composition is only the
            // *addressing fallback* for our announcements back to the
            // source — deliberately not written into the neighbour table
            // here: an in-flight envelope can be older than the view a
            // `CompositionUpdate` just installed, and regressing a fresh
            // view breaks the exchanges in flight against it. Explicit
            // `CompositionUpdate` payloads (on-change and periodic) remain
            // the one path that rewrites views.
            let departed = self.group.departed();
            self.upkeep
                .note_correspondent(source, comp.clone(), departed, now);
        }
        match payload {
            GroupPayload::Gossip { id, payload, hops } => {
                let view = self.group.view(self.me, &self.params);
                self.session
                    .on_broadcast(view, id, payload, hops, source, now, effects);
            }
            payload => {
                let (group, mut cx) = self.parts(now, effects);
                group.on_payload(source, comp, payload, &mut cx);
            }
        }
    }

    // ---------------------------------------------------- broadcast plane

    /// A vgroup peer — or a member of an overlay neighbour — advertised its
    /// recently delivered broadcasts (see `Session::on_broadcast_keys`).
    pub fn on_broadcast_keys(
        &mut self,
        from: NodeId,
        group: VgroupId,
        keys: &[BroadcastId],
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if self.params.broadcast_repair {
            self.heard_in(from, group, now);
        }
        let view = self.group.view(self.me, &self.params);
        self.session
            .on_broadcast_keys(view, from, group, keys, now, effects);
    }

    /// A requester asked for broadcasts it missed (see
    /// `Session::on_broadcast_pull`): a cross-group one is answered by the
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
        if !self.params.broadcast_repair || !self.heard_in(from, group, now) {
            return;
        }
        let view = self.group.view(self.me, &self.params);
        let redecide = self
            .session
            .on_broadcast_pull(view, from, keys, voted, now, effects);
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
        let me = self.me;
        let (group_part, mut cx) = self.parts(now, effects);
        for (id, payload) in redecide {
            let Some(engine) = cx.liveness.engine() else {
                continue;
            };
            repair_metrics::reproposals().inc();
            atum_obs::trace_event!(
                AntiEntropyPull,
                at = now.as_micros(),
                node = me.raw(),
                slots = [group.raw(), id.seq, 1],
                "re-proposing broadcast {id:?} through vgroup {:?} SMR for {from}",
                group
            );
            let actions = engine.propose(GroupOp::Broadcast { id, payload }, now);
            cx.process_actions(group_part, actions);
        }
    }

    // -------------------------------------------------- membership churn

    /// The membership a `Welcome` installs while this one is still held (a
    /// catch-up to a newer epoch, or a move the old vgroup has not told us
    /// of): the session moves over, and so does every op proposed here but
    /// never applied, for [`Self::resume`] to propose again.
    pub fn succeeded_by(self, config: Configuration, now: Instant) -> MemberState {
        let same_vgroup = self.group.config().vgroup == config.vgroup;
        let (me, params, registry) = (self.me, self.params.0, self.registry.0);
        let mut fresh = Self::with_membership(me, params, registry, self.session, config, now);
        if same_vgroup {
            // Same vgroup, newer epoch: the traffic-observed reverse links
            // are still ours to answer.
            fresh.upkeep = self.upkeep.carried_over(now);
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

    // ----------------------------------------------------------- liveness

    /// The composition peers this member's failure detector presumes live
    /// (heard within the eviction window), plus the member itself. Used by
    /// the host to bound the catch-up welcome threshold: when half of a
    /// composition is permanently silent (stranded admissions, half-failed
    /// exchanges), waiting for a majority of *all* entries would deadlock
    /// the recovery that would evict them.
    pub fn presumed_live(&self, now: Instant) -> BTreeSet<NodeId> {
        let view = self.group.view(self.me, &self.params);
        self.liveness.presumed_live(&view, now)
    }

    /// Diagnostic snapshot of the failure-detector state, used by the
    /// experiment tooling to attribute churn stalls: for every composition
    /// peer, the seconds since it was last heard, whether it has activated
    /// in this membership session, and how many decided accusations it has
    /// accumulated.
    pub fn liveness_snapshot(&self, now: Instant) -> Vec<(NodeId, f64, bool, usize)> {
        let peers = self.config().composition.iter().filter(|&p| p != self.me);
        peers
            .map(|p| {
                let (silence, activated) = self.liveness.heard(p, now);
                (p, silence, activated, self.group.accusations(p))
            })
            .collect()
    }

    /// `true` once this membership's fence has closed: it decides nothing
    /// more, and ends unless a catch-up welcome replaces it first.
    pub fn fenced(&self) -> bool {
        self.liveness.fenced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::View;
    use atum_overlay::NeighborTable;

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
        let config = Configuration {
            vgroup,
            composition,
            neighbors,
            epoch: 0,
        };
        let registry = registry(n_nodes);
        MemberState::with_membership(
            NodeId::new(me),
            params,
            registry,
            Session::default(),
            config,
            Instant::ZERO,
        )
    }

    /// Applies a decided `op` to `m` directly, bypassing agreement.
    fn apply(m: &mut MemberState, op: GroupOp, effects: &mut Vec<Effect>) {
        let (group, mut cx) = m.parts(Instant::ZERO, effects);
        group.apply_op(op, &mut cx, &mut Vec::new());
    }

    /// Runs `m`'s resize check.
    fn resize(m: &mut MemberState, effects: &mut Vec<Effect>) {
        let (group, mut cx) = m.parts(Instant::ZERO, effects);
        group.maybe_resize(&mut cx);
    }

    impl MemberState {
        /// The configuration, for tests that rewire the overlay.
        pub(crate) fn config_mut(&mut self) -> &mut Configuration {
            self.group.config_mut()
        }

        /// The view and the session, for tests that drive the broadcast
        /// plane directly.
        pub(crate) fn plane(&mut self) -> (View<'_>, &mut Session) {
            (self.group.view(self.me, &self.params), &mut self.session)
        }
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
        assert_eq!(m.config().composition.len(), 1);
        assert!(m.config().composition.contains(NodeId::new(3)));
        assert!(m.config().neighbors.is_complete());
        assert_eq!(m.config().neighbors.cycle_count(), params.hc as usize);
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
        for sender in [10u64, 11] {
            m.on_group_copy(
                NodeId::new(sender),
                envelope.clone(),
                Instant::from_micros(5),
                &mut effects,
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
        );
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, Effect::Deliver(_)))
            .count();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn composition_update_refreshes_neighbor_table() {
        let mut m = member(3, 0);
        let new_comp: Composition = (20..25).map(NodeId::new).collect();
        let envelope = Arc::new(GroupEnvelope::new(
            VgroupId::new(500),
            m.config().composition.clone(),
            GroupPayload::CompositionUpdate {
                group: VgroupId::new(500),
                composition: new_comp.clone(),
            },
        ));
        let mut effects = Vec::new();
        for sender in [0u64, 1] {
            m.on_group_copy(
                NodeId::new(sender),
                envelope.clone(),
                Instant::ZERO,
                &mut effects,
            );
        }
        assert_eq!(
            m.config().neighbors.composition_of(VgroupId::new(500)),
            Some(&new_comp)
        );
    }

    #[test]
    fn eviction_requires_corroboration() {
        let mut m = member(5, 0);
        let mut effects = Vec::new();
        // A single accusation (applied directly) must not evict in a 5-node
        // group (f+1 = 3 accusers needed synchronously).
        apply(
            &mut m,
            GroupOp::Evict {
                node: NodeId::new(4),
                accuser: NodeId::new(0),
                nonce: 0,
            },
            &mut effects,
        );
        assert!(m.config().composition.contains(NodeId::new(4)));
        assert_eq!(m.session().stats().evictions, 0);
        // Two more accusations from distinct members cross the f+1 = 3
        // threshold and the member is removed.
        for accuser in [1u64, 2] {
            apply(
                &mut m,
                GroupOp::Evict {
                    node: NodeId::new(4),
                    accuser: NodeId::new(accuser),
                    nonce: 0,
                },
                &mut effects,
            );
        }
        assert!(!m.config().composition.contains(NodeId::new(4)));
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
        let peers: Vec<NodeId> = m
            .config()
            .composition
            .iter()
            .filter(|&p| p != m.id())
            .collect();
        for peer in peers {
            m.on_heartbeat(
                peer,
                m.config().vgroup,
                m.config().epoch,
                Instant::ZERO,
                &mut Vec::new(),
            );
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
        assert_eq!(m.config().composition, Composition::singleton(m.id()));
        let mut effects = Vec::new();
        m.start_broadcast(b"alone".to_vec(), end, &mut effects);
        assert!(effects.iter().any(|e| matches!(e, Effect::Deliver(_))));
    }

    #[test]
    fn a_newer_epoch_claim_fences_at_once() {
        let mut m = member(4, 0);
        let mut effects = Vec::new();
        m.on_heartbeat(
            NodeId::new(9),
            m.config().vgroup,
            1,
            Instant::ZERO,
            &mut effects,
        );
        assert!(
            !m.fenced(),
            "a node the composition does not list is not heeded"
        );
        m.on_heartbeat(
            NodeId::new(1),
            m.config().vgroup,
            1,
            Instant::ZERO,
            &mut effects,
        );
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
        apply(
            &mut m,
            GroupOp::HandleJoinRequest {
                joiner: NodeId::new(1),
                nonce: 0,
                rejoin: false,
            },
            &mut effects,
        );
        assert!(
            m.config().composition.contains(NodeId::new(1)),
            "{:?}",
            m.config().composition
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
            let config = Configuration {
                vgroup,
                composition: composition.clone(),
                neighbors: neighbors.clone(),
                epoch: 0,
            };
            let session = Session::default();
            MemberState::with_membership(
                NodeId::new(me),
                params.clone(),
                registry(8),
                session,
                config,
                Instant::ZERO,
            )
        };
        let mut groups = Vec::new();
        for me in 0..8u64 {
            let mut m = make(me);
            let mut effects = Vec::new();
            resize(&mut m, &mut effects);
            groups.push((m.config().vgroup, m.config().composition.clone()));
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
        let config = Configuration {
            vgroup,
            composition,
            neighbors,
            epoch: 0,
        };
        let session = Session::default();
        let mut m = MemberState::with_membership(
            NodeId::new(0),
            params,
            registry(2),
            session,
            config,
            Instant::ZERO,
        );
        let mut effects = Vec::new();
        resize(&mut m, &mut effects);
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
