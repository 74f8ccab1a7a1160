//! [`AtumNode`]: the per-process actor exposing the Atum API and hosting the
//! vgroup member state machine.
//!
//! # Lifecycle
//!
//! A node is always in exactly one phase of a private `Lifecycle`, and each
//! phase owns the state only it uses ([`NodePhase`] is its public
//! projection):
//!
//! - `Idle`: created, not yet part of any instance;
//! - `Joining`: a join through a contact is in flight (§3.3.2), with the
//!   contact, when the attempt started and how many attempts timed out;
//! - `Member`: the [`MemberState`] of the current vgroup membership;
//! - `AwaitingTransfer`: a shuffle exchange moved the node out of its
//!   vgroup, and it waits, since the instant given, for the new vgroup's
//!   `Welcome`;
//! - `Left`: left or evicted (§3.3.3), and whether it re-joins on its own.
//!
//! The node's one [`Session`] is held by the `Member` variant's membership,
//! or by whichever non-member variant the node is in. Every transition
//! consumes the old variant and builds the new one, so the session is
//! moved, never copied, rebuilt or dropped.
//!
//! What outlives a phase sits beside the lifecycle, in `Carried`:
//!
//! - the join nonce: it is part of the `HandleJoinRequest` digest a vgroup
//!   deduplicates on, so it must never restart;
//! - the fallback pool and its rotation: a stalled join, transfer or
//!   stranded membership re-joins through it, and the rotation survives a
//!   refill so retries do not pin one dead contact;
//! - the pending welcomes: a welcome quorum can complete from any phase,
//!   a member's catch-up and a left node's re-admission included;
//! - the Byzantine setting and its last heartbeat;
//! - the last leave: a join reads it to decide on the re-join fast path,
//!   and it survives a transfer.
//!
//! The model checker's fingerprint, [`AtumNode::canonical_state`], is the
//! derived `Debug` of the id, the lifecycle and `Carried`. What is not
//! protocol state is left out by type: the node's statistics, parameters,
//! key registry and application sit outside both, and inside a membership
//! or session they are wrapped so that they render as `_`.

use crate::app::{AppCtx, Application};
use crate::broadcast::Session;
use crate::member::{Configuration, Effect, Ending, MemberState};
use crate::message::AtumMessage;
use atum_crypto::KeyRegistry;
use atum_simnet::{Context, Node};
use atum_types::{
    AtumError, BroadcastId, Composition, Duration, Instant, NodeId, Params, Result, VgroupId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Timer tag of the node's single periodic maintenance timer.
const MAIN_TIMER: u64 = 1;

/// Where a node is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodePhase {
    /// Created but not yet part of any system instance.
    Idle,
    /// `join` was called; waiting to be admitted.
    Joining {
        /// The contact node used for this attempt.
        contact: NodeId,
        /// When the attempt started.
        since: Instant,
    },
    /// A full member of a vgroup.
    Member,
    /// Removed from its old vgroup by a shuffle exchange; waiting for the
    /// `Welcome` of its new vgroup.
    AwaitingTransfer,
    /// No longer part of the system (left voluntarily or evicted).
    Left,
}

/// Fault injection at the node level, mirroring §6.1.3: Byzantine nodes keep
/// sending heartbeats (so they are not evicted) but do not participate in any
/// other protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineBehavior {
    /// Behaves correctly.
    #[default]
    Correct,
    /// Sends heartbeats only; ignores and originates nothing else.
    HeartbeatOnly,
}

/// Per-node statistics of interest to the experiments.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// When the node last became a member (refreshed on every non-member
    /// to member transition).
    pub joined_at: Option<Instant>,
}

/// A welcome quorum being assembled for one vgroup. Welcomes accumulate
/// *across epochs*: under churn the admitting vgroup reconfigures while its
/// members send their welcomes, so copies for the same logical admission
/// arrive tagged with a mix of epochs. Keying the quorum by epoch (the
/// pre-overhaul behaviour) split those copies into buckets that individually
/// never reached the threshold, stranding the joiner for a full heartbeat
/// period per epoch. Instead the newest epoch's content wins and senders
/// carry over as long as they are still members of the newest composition.
#[derive(Debug, Clone)]
struct PendingWelcome {
    config: Configuration,
    senders: BTreeSet<NodeId>,
}

/// Where a node is in its lifecycle, with the state only that phase uses
/// (see the module docs).
#[derive(Debug, Clone)]
enum Lifecycle {
    /// Created, not yet part of any instance.
    Idle { session: Session },
    /// A join through `contact` is in flight, started at `since`.
    Joining {
        contact: NodeId,
        since: Instant,
        /// Timed-out attempts of this join. After two dead attempts the
        /// joiner requests direct admission at the contact vgroup instead
        /// of another placement walk — on a degraded overlay (walks dying
        /// in ghost-heavy or dissolved vgroups) endless re-walks starve
        /// joins entirely, and the uniformity loss is the same trade the
        /// re-join fast path already makes: shuffle exchanges re-mix the
        /// membership afterwards.
        attempts: u32,
        session: Session,
    },
    /// A full member of a vgroup; the membership holds the session.
    Member(Box<MemberState>),
    /// Moved out by a shuffle exchange at `since`; waiting for the
    /// `Welcome` of the new vgroup.
    AwaitingTransfer { since: Instant, session: Session },
    /// No longer part of the instance.
    Left {
        /// `true` when the node was *involuntarily* removed (evicted, or
        /// stranded past its patience). Such a node re-joins on its own
        /// through a fallback peer; a node that left voluntarily stays out
        /// until the application calls `join` again.
        auto_rejoin: bool,
        session: Session,
    },
}

impl Lifecycle {
    /// `true` when the node is part of no instance: it may bootstrap or
    /// join one.
    fn is_out(&self) -> bool {
        matches!(self, Lifecycle::Idle { .. } | Lifecycle::Left { .. })
    }

    /// Ends this phase, handing its session on to the next one.
    fn into_session(self) -> Session {
        match self {
            Lifecycle::Member(member) => member.into_session(),
            Lifecycle::Idle { session }
            | Lifecycle::Joining { session, .. }
            | Lifecycle::AwaitingTransfer { session, .. }
            | Lifecycle::Left { session, .. } => session,
        }
    }
}

/// Peers from the last vgroup this node belonged to (and from join
/// replies), used to recover if a shuffle transfer never completes or a
/// join contact stops responding. Rotated through on retries so a single
/// dead contact cannot stall the node forever.
#[derive(Debug, Clone, Default)]
struct FallbackPool {
    peers: Vec<NodeId>,
    rotation: usize,
}

impl FallbackPool {
    /// Replaces the pool with the members of `composition` other than
    /// `me`. The rotation index deliberately survives the replacement: a
    /// `JoinContactReply` refreshes this pool on every attempt, and
    /// restarting the rotation there would pin a stalled joiner to the same
    /// first peer on every retry.
    fn replace(&mut self, me: NodeId, composition: &Composition) {
        self.peers = composition.iter().filter(|&p| p != me).collect();
    }

    /// The next known peer to try as a join contact.
    fn next(&mut self) -> Option<NodeId> {
        if self.peers.is_empty() {
            return None;
        }
        let idx = self.rotation % self.peers.len();
        self.rotation += 1;
        Some(self.peers[idx])
    }
}

/// The protocol state that outlives a lifecycle phase (see the module
/// docs for why each field does).
#[derive(Debug, Clone, Default)]
struct Carried {
    join_nonce: u64,
    fallback: FallbackPool,
    pending_welcomes: BTreeMap<VgroupId, PendingWelcome>,
    byzantine: ByzantineBehavior,
    last_byz_heartbeat: Instant,
    /// When the node last left (voluntarily or not); a transfer is not a
    /// leave.
    last_left: Option<Instant>,
}

/// An Atum node: the unit the application embeds and the simulator hosts.
///
/// Ordered containers throughout (determinism lint), and `Clone` so the
/// model checker can branch a node's state along alternative interleavings.
#[derive(Clone)]
pub struct AtumNode<A: Application> {
    id: NodeId,
    params: Params,
    registry: Arc<KeyRegistry>,
    app: A,
    lifecycle: Lifecycle,
    carried: Carried,
    /// Statistics for experiments.
    pub stats: NodeStats,
}

impl<A: Application> AtumNode<A> {
    /// Creates an idle node (call [`bootstrap`](Self::bootstrap) or
    /// [`join`](Self::join) to make it part of a system).
    pub fn new(id: NodeId, params: Params, registry: Arc<KeyRegistry>, app: A) -> Self {
        AtumNode {
            id,
            params,
            registry,
            app,
            lifecycle: Lifecycle::Idle {
                session: Session::default(),
            },
            carried: Carried::default(),
            stats: NodeStats::default(),
        }
    }

    /// Creates a node that is already a member of a vgroup, in `config`.
    /// Used by the simulation harness to bootstrap large systems without
    /// running thousands of sequential joins, and by tests.
    pub fn with_membership(
        id: NodeId,
        params: Params,
        registry: Arc<KeyRegistry>,
        app: A,
        config: Configuration,
    ) -> Self {
        let mut node = Self::new(id, params, registry, app);
        node.lifecycle = node.membership(Session::default(), config, Instant::ZERO);
        node.stats.joined_at = Some(Instant::ZERO);
        node
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> NodePhase {
        match self.lifecycle {
            Lifecycle::Idle { .. } => NodePhase::Idle,
            Lifecycle::Joining { contact, since, .. } => NodePhase::Joining { contact, since },
            Lifecycle::Member(_) => NodePhase::Member,
            Lifecycle::AwaitingTransfer { .. } => NodePhase::AwaitingTransfer,
            Lifecycle::Left { .. } => NodePhase::Left,
        }
    }

    /// `true` once the node is a full member of a vgroup.
    pub fn is_member(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Member(_))
    }

    /// The application hosted by this node.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The vgroup member state, if the node is a member.
    pub fn member(&self) -> Option<&MemberState> {
        match &self.lifecycle {
            Lifecycle::Member(member) => Some(member),
            _ => None,
        }
    }

    /// Configures Byzantine fault injection for this node.
    pub fn set_byzantine(&mut self, behavior: ByzantineBehavior) {
        self.carried.byzantine = behavior;
    }

    /// The node's Byzantine behaviour setting.
    pub fn byzantine(&self) -> ByzantineBehavior {
        self.carried.byzantine
    }

    // ------------------------------------------------------------- API

    /// Creates a new Atum instance consisting of a single vgroup that
    /// contains only this node (§3.3.1).
    ///
    /// # Errors
    ///
    /// Returns [`AtumError::AlreadyJoined`] if the node is already part of an
    /// instance, or [`AtumError::InvalidConfig`] if the parameters are
    /// inconsistent.
    pub fn bootstrap(&mut self, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        self.params.validate()?;
        if !self.lifecycle.is_out() {
            return Err(AtumError::AlreadyJoined);
        }
        let session = self.take_lifecycle().into_session();
        self.lifecycle = Lifecycle::Member(Box::new(MemberState::bootstrap(
            self.id,
            self.params.clone(),
            self.registry.clone(),
            session,
            ctx.now(),
        )));
        self.stats.joined_at = Some(ctx.now());
        Ok(())
    }

    /// Joins the instance that `contact` belongs to (§3.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`AtumError::AlreadyJoined`] if the node is already a member
    /// or has a join in progress.
    pub fn join(&mut self, contact: NodeId, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        if !self.lifecycle.is_out() {
            return Err(AtumError::AlreadyJoined);
        }
        self.carried.join_nonce += 1;
        self.lifecycle = Lifecycle::Joining {
            contact,
            since: ctx.now(),
            attempts: 0,
            session: self.take_lifecycle().into_session(),
        };
        atum_obs::trace_event!(
            Join,
            at = ctx.now().as_micros(),
            node = self.id.raw(),
            slots = [contact.raw(), self.carried.join_nonce, 0],
            "join started via contact {contact}"
        );
        ctx.send(contact, AtumMessage::JoinContactRequest);
        Ok(())
    }

    /// Leaves the instance (§3.3.3).
    ///
    /// # Errors
    ///
    /// Returns [`AtumError::NotJoined`] if the node is not currently a
    /// member.
    pub fn leave(&mut self, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        self.with_member(ctx, |member, now, effects| member.start_leave(now, effects))
            .ok_or(AtumError::NotJoined)
    }

    /// Broadcasts a message to every node of the instance (§3.3.4). Returns
    /// the broadcast identifier the application can correlate deliveries
    /// with.
    ///
    /// # Errors
    ///
    /// Returns [`AtumError::NotJoined`] if the node is not currently a
    /// member.
    pub fn broadcast(
        &mut self,
        payload: Vec<u8>,
        ctx: &mut Context<'_, AtumMessage>,
    ) -> Result<BroadcastId> {
        self.with_member(ctx, |member, now, effects| {
            member.start_broadcast(payload, now, effects)
        })
        .ok_or(AtumError::NotJoined)
    }

    /// Sends an opaque application message to another node (used by the
    /// applications built on Atum for point-to-point transfers).
    pub fn send_app_message(
        &mut self,
        to: NodeId,
        payload: Vec<u8>,
        advertised_size: u32,
        ctx: &mut Context<'_, AtumMessage>,
    ) {
        ctx.send(
            to,
            AtumMessage::App {
                payload,
                advertised_size,
            },
        );
    }

    /// Runs an application-level operation (e.g. an AShare `PUT` or a stream
    /// start) in the context of this node: the closure receives the
    /// application and an [`AppCtx`] whose queued broadcasts and messages are
    /// carried out afterwards.
    pub fn app_call<R>(
        &mut self,
        ctx: &mut Context<'_, AtumMessage>,
        f: impl FnOnce(&mut A, &mut AppCtx) -> R,
    ) -> R {
        let mut app_ctx = AppCtx::new(ctx.now(), self.id);
        let result = f(&mut self.app, &mut app_ctx);
        let mut queue = Vec::new();
        self.drain_app_ctx(app_ctx, &mut queue, ctx);
        self.run_effects(queue, ctx);
        result
    }

    // --------------------------------------------------------- internals

    /// Takes the lifecycle out for a transition to consume; the transition
    /// puts the next phase back. The placeholder holds an empty session and
    /// is never observed.
    fn take_lifecycle(&mut self) -> Lifecycle {
        let placeholder = Lifecycle::Idle {
            session: Session::default(),
        };
        std::mem::replace(&mut self.lifecycle, placeholder)
    }

    /// A membership of this node in `config`, built around `session`.
    fn membership(&self, session: Session, config: Configuration, now: Instant) -> Lifecycle {
        let (params, registry) = (self.params.clone(), self.registry.clone());
        let member = MemberState::with_membership(self.id, params, registry, session, config, now);
        Lifecycle::Member(Box::new(member))
    }

    /// Runs `f` on the member state — nothing when the node is not a member
    /// — and carries out the effects it produced.
    fn with_member<R>(
        &mut self,
        ctx: &mut Context<'_, AtumMessage>,
        f: impl FnOnce(&mut MemberState, Instant, &mut Vec<Effect>) -> R,
    ) -> Option<R> {
        let Lifecycle::Member(member) = &mut self.lifecycle else {
            return None;
        };
        let mut effects = Vec::new();
        let result = f(member, ctx.now(), &mut effects);
        self.run_effects(effects, ctx);
        Some(result)
    }

    /// Ends the current membership: the one transition out of
    /// `Lifecycle::Member`. Its peers become the fallback contacts, the
    /// session moves to the next phase, and `ending` decides which phase
    /// that is.
    fn end_membership(&mut self, ending: Ending, ctx: &mut Context<'_, AtumMessage>) {
        let member = match self.take_lifecycle() {
            Lifecycle::Member(member) => member,
            other => {
                self.lifecycle = other;
                return;
            }
        };
        let mut pool = member.config().composition.clone();
        if ending == Ending::Stranded {
            // The composition peers of a stranded membership moved on
            // without it or went silent: poor re-join contacts. The
            // neighbour table's vgroups are the live overlay, so merge both
            // into the fallback pool (the rotation skips the dead ones).
            for (_, comp) in member.config().neighbors.distinct_neighbors() {
                pool = pool.union(&comp);
            }
        }
        self.carried.fallback.replace(self.id, &pool);
        let session = member.into_session();
        if ending == Ending::Transferred {
            let since = ctx.now();
            self.lifecycle = Lifecycle::AwaitingTransfer { since, session };
            return;
        }
        self.carried.last_left = Some(ctx.now());
        // A node removed against its will re-joins on its own (its session
        // did not end by choice); a voluntary leave is final until the
        // application says otherwise.
        let auto_rejoin = ending != Ending::Left;
        self.lifecycle = Lifecycle::Left {
            auto_rejoin,
            session,
        };
        if ending == Ending::Stranded {
            if let Some(contact) = self.carried.fallback.next() {
                let _ = self.join(contact, ctx);
            }
        }
    }

    fn run_effects(&mut self, effects: Vec<Effect>, ctx: &mut Context<'_, AtumMessage>) {
        let mut queue = effects;
        // Effects can cascade (a delivery triggers an application broadcast
        // which produces more effects); loop until drained.
        let mut guard = 0;
        while !queue.is_empty() {
            guard += 1;
            if guard > 64 {
                break; // Defensive bound; never hit in practice.
            }
            let batch = std::mem::take(&mut queue);
            for effect in batch {
                match effect {
                    Effect::Send { to, msg } => ctx.send(to, msg),
                    Effect::Deliver(delivered) => {
                        let mut app_ctx = AppCtx::new(ctx.now(), self.id);
                        self.app.deliver(&delivered, &mut app_ctx);
                        self.drain_app_ctx(app_ctx, &mut queue, ctx);
                    }
                    Effect::MembershipEnded(ending) => self.end_membership(ending, ctx),
                }
            }
        }
    }

    fn drain_app_ctx(
        &mut self,
        app_ctx: AppCtx,
        queue: &mut Vec<Effect>,
        ctx: &mut Context<'_, AtumMessage>,
    ) {
        for (to, payload, advertised) in app_ctx.app_messages {
            ctx.send(
                to,
                AtumMessage::App {
                    payload,
                    advertised_size: advertised,
                },
            );
        }
        for payload in app_ctx.broadcasts {
            if let Lifecycle::Member(member) = &mut self.lifecycle {
                member.start_broadcast(payload, ctx.now(), queue);
            }
        }
    }

    fn handle_welcome(
        &mut self,
        from: NodeId,
        config: Configuration,
        ctx: &mut Context<'_, AtumMessage>,
    ) {
        if !config.composition.contains(self.id) || !config.composition.contains(from) {
            return;
        }
        let (group, epoch) = (config.vgroup, config.epoch);
        let held = self.member().map(MemberState::config);
        if held.is_some_and(|m| m.vgroup == group && m.epoch >= epoch) {
            return; // Stale welcome for a state we already have.
        }
        // Known limitation: an *active* member of vgroup G that still has a
        // never-activated ghost entry in some other vgroup G' can be pulled
        // over to G' if G's re-welcomes assemble a quorum here. Guarding
        // against that was tried and broke a more important flow — a
        // straggler whose vgroup reconfigured (or split to a new id) past it
        // legitimately needs welcomes from senders it does not know yet.
        // The hijack self-heals: the abandoned side evicts the silent entry
        // on the fast ghost fuse.
        let entry = self
            .carried
            .pending_welcomes
            .entry(group)
            .or_insert_with(|| PendingWelcome {
                config: config.clone(),
                senders: BTreeSet::new(),
            });
        if epoch > entry.config.epoch {
            // Newer configuration: its content wins. Senders whose earlier
            // welcome vouched for this node and who are still members of the
            // new composition keep counting — their vote is about admitting
            // us, not about one specific epoch's neighbour table.
            entry.config = config;
            let retained = &entry.config.composition;
            entry.senders.retain(|s| retained.contains(*s));
        } else if epoch == entry.config.epoch && entry.config.composition != config.composition {
            // Conflicting welcomes for the same epoch: keep the first seen
            // (honest members cannot produce this; a fresher epoch will
            // resolve it).
            return;
        }
        let composition = &entry.config.composition;
        if composition.contains(from) {
            entry.senders.insert(from);
        }
        let mut threshold = composition.majority().min(composition.len() - 1).max(1);
        // Catch-up within our own vgroup: our failure detector knows which
        // composition entries are long dead. A welcome quorum counted over
        // *all* entries deadlocks a vgroup whose composition accumulated
        // silent ones (the very state a catch-up resolves — the live members
        // can neither re-synchronise nor, while epoch-diverged, decide the
        // evictions that would shrink the threshold). Bound the threshold by
        // a majority of the entries that are presumed live or have
        // themselves vouched for this welcome.
        if let Lifecycle::Member(member) = &self.lifecycle {
            if member.config().vgroup == group {
                let live = member.presumed_live(ctx.now());
                let effective = composition
                    .iter()
                    .filter(|p| live.contains(p) || entry.senders.contains(p))
                    .count();
                threshold = threshold.min((effective / 2 + 1).max(1));
                // Same-group catch-up from a presumed-live peer of our own
                // current composition, for a newer epoch, while our fence
                // is closed: accept on a single sender. In a deployment a
                // welcome carries the configuration-chain certificate (each
                // epoch's quorum signs its successor), which makes one
                // correct sender sufficient; the simulator elides signatures
                // throughout (see `MemberState::observe_group_copy`), so the
                // sender's standing in the state we already trust stands in
                // for the chain.
                // Without this, two lagging members whose only up-to-date
                // peer is a single node deadlock: each needs the other to
                // advance first. The fence gate keeps ordinary one-epoch
                // transient lag (resolved by the member's own engine once
                // the slot holding the reconfiguration closes) from turning
                // into a state reset.
                if entry.config.epoch > member.config().epoch
                    && member.fenced()
                    && member.config().composition.contains(from)
                    && live.contains(&from)
                {
                    threshold = 1;
                }
            }
        }
        let senders = entry.senders.len();
        atum_obs::trace_event!(
            Welcome,
            at = ctx.now().as_micros(),
            node = self.id.raw(),
            slots = [group.raw(), epoch, senders as u64],
            "welcome for {group:?} epoch {epoch} from {from}: {senders}/{threshold} senders (phase {:?})",
            self.phase()
        );
        if senders < threshold {
            return;
        }
        atum_obs::trace_event!(
            Join,
            at = ctx.now().as_micros(),
            node = self.id.raw(),
            slots = [self.id.raw(), group.raw(), epoch],
            "welcome threshold met for vgroup {group:?} epoch {epoch}"
        );
        let welcome = self.carried.pending_welcomes.remove(&group);
        let config = welcome.expect("just inserted").config;
        self.carried.pending_welcomes.clear();
        if self.stats.joined_at.is_none() || !self.is_member() {
            self.stats.joined_at = Some(ctx.now());
        }
        // The new membership is built around the node's one session — still
        // held by the membership this welcome catches up, or by the phase
        // the node waited in.
        self.lifecycle = match self.take_lifecycle() {
            Lifecycle::Member(old) => {
                Lifecycle::Member(Box::new(old.succeeded_by(config, ctx.now())))
            }
            other => self.membership(other.into_session(), config, ctx.now()),
        };
        // What this node promised to drive to agreement is proposed again:
        // everything still pending on a catch-up, its own undecided
        // broadcasts after a move (the rest was specific to the vgroup it
        // left).
        self.with_member(ctx, |member, now, effects| member.resume(now, effects));
    }

    fn byzantine_duties(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        // Heartbeat-only nodes keep heartbeating their last known vgroup
        // peers so they are not evicted (§6.1.3).
        let Lifecycle::Member(member) = &self.lifecycle else {
            return;
        };
        let now = ctx.now();
        if now.saturating_since(self.carried.last_byz_heartbeat) >= self.params.heartbeat_period {
            self.carried.last_byz_heartbeat = now;
            let config = member.config();
            let peers: Vec<NodeId> = config
                .composition
                .iter()
                .filter(|&p| p != self.id)
                .collect();
            let (group, epoch) = (config.vgroup, config.epoch);
            for peer in peers {
                ctx.send(peer, AtumMessage::Heartbeat { group, epoch });
            }
        }
    }

    /// `true` while this node's last membership ended recently enough to
    /// count as churn recovery: such a join takes the direct-admission fast
    /// path instead of a placement walk. The window is session-scale (the
    /// paper's churn model has session times of a few minutes) but
    /// deliberately bounded, so a node that left long ago re-enters through
    /// the uniform placement walk like any fresh joiner — the fast path
    /// trades placement uniformity for recovery speed and must not become
    /// the permanent default.
    fn recently_left(&self, now: Instant) -> bool {
        let window = self.params.round.saturating_mul(600);
        self.carried
            .last_left
            .is_some_and(|t| now.saturating_since(t) <= window)
    }

    /// A node that was involuntarily removed (evicted while it was live, or
    /// welcomed into a configuration that immediately moved on without it)
    /// ends up in [`NodePhase::Left`] with no join in flight. Re-join
    /// through a former peer so one unlucky cycle does not permanently
    /// shrink the system.
    fn rejoin_if_dropped(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        if !matches!(
            self.lifecycle,
            Lifecycle::Left {
                auto_rejoin: true,
                ..
            }
        ) {
            return;
        }
        if let Some(contact) = self.carried.fallback.next() {
            let _ = self.join(contact, ctx);
        }
    }

    fn retry_join_if_stalled(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        // A join normally completes within a handful of rounds (contact
        // round-trip, placement walk, welcome quorum); 20 rounds of silence
        // means the attempt is dead — retry through the next fallback peer.
        let timeout = self.params.round.saturating_mul(20);
        let now = ctx.now();
        match &mut self.lifecycle {
            Lifecycle::Joining {
                contact,
                since,
                attempts,
                ..
            } if now.saturating_since(*since) > timeout => {
                // A fresh attempt number so the contact vgroup does not
                // deduplicate the retried request away if the previous
                // attempt was lost mid-protocol; rotate contacts in case
                // the previous one left or crashed.
                self.carried.join_nonce += 1;
                *attempts += 1;
                *contact = self.carried.fallback.next().unwrap_or(*contact);
                *since = now;
                let (contact, attempts) = (*contact, *attempts);
                atum_obs::trace_event!(
                    Join,
                    at = now.as_micros(),
                    node = self.id.raw(),
                    slots = [contact.raw(), self.carried.join_nonce, u64::from(attempts)],
                    "join stalled; retrying via contact {contact} (attempt {attempts})"
                );
                ctx.send(contact, AtumMessage::JoinContactRequest);
            }
            Lifecycle::AwaitingTransfer { since, .. } if now.saturating_since(*since) > timeout => {
                // The Welcome of the new vgroup never arrived (its side of
                // the exchange may have been reconfigured away); recover by
                // re-joining through a peer of the old vgroup.
                if let Some(contact) = self.carried.fallback.next() {
                    let session = self.take_lifecycle().into_session();
                    self.lifecycle = Lifecycle::Left {
                        auto_rejoin: false,
                        session,
                    };
                    let _ = self.join(contact, ctx);
                }
            }
            _ => {}
        }
    }

    /// Canonical text rendering of the node's protocol state, used by the
    /// model checker to fingerprint and deduplicate global states: the
    /// derived `Debug` of the id, the lifecycle (the session included,
    /// wherever it lives) and what outlives a phase. What is not protocol
    /// state is left out by type (see the module docs), so two states that
    /// differ only in statistics merge, and no field can be forgotten.
    pub fn canonical_state(&self) -> String {
        format!("{:?}", (self.id, &self.lifecycle, &self.carried))
    }
}

impl<A: Application> std::fmt::Debug for AtumNode<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The hosted application and the shared key registry are opaque
        // (neither is required to implement Debug).
        f.debug_struct("AtumNode")
            .field("id", &self.id)
            .field("lifecycle", &self.lifecycle)
            .field("carried", &self.carried)
            .finish_non_exhaustive()
    }
}

impl<A: Application> Node<AtumMessage> for AtumNode<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        // Stagger the periodic timer a little by node id so large simulations
        // do not process every node at the same instant.
        let period = Duration::from_micros(self.params.round.as_micros().max(2) / 2);
        let stagger = Duration::from_micros(self.id.raw() % period.as_micros().max(1));
        ctx.set_timer(period + stagger, MAIN_TIMER);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, AtumMessage>) {
        if tag != MAIN_TIMER {
            return;
        }
        let period = Duration::from_micros(self.params.round.as_micros().max(2) / 2);
        ctx.set_timer(period, MAIN_TIMER);
        if self.carried.byzantine == ByzantineBehavior::HeartbeatOnly {
            self.byzantine_duties(ctx);
            return;
        }
        self.retry_join_if_stalled(ctx);
        self.rejoin_if_dropped(ctx);
        self.with_member(ctx, |member, now, effects| member.tick(now, effects));
    }

    fn on_message(&mut self, from: NodeId, msg: AtumMessage, ctx: &mut Context<'_, AtumMessage>) {
        if self.carried.byzantine == ByzantineBehavior::HeartbeatOnly {
            return; // Byzantine nodes ignore everything.
        }
        match msg {
            AtumMessage::JoinContactRequest => {
                atum_obs::trace_event!(
                    Join,
                    at = ctx.now().as_micros(),
                    node = self.id.raw(),
                    slots = [from.raw(), 0, u64::from(self.is_member())],
                    "JoinContactRequest from {from} (member: {})",
                    self.is_member()
                );
                if let Some(member) = self.member() {
                    ctx.send(
                        from,
                        AtumMessage::JoinContactReply {
                            composition: member.config().composition.clone(),
                        },
                    );
                }
            }
            AtumMessage::JoinContactReply { composition } => {
                if let Lifecycle::Joining { attempts, .. } = self.lifecycle {
                    // Remember the contact vgroup's members: if this attempt
                    // stalls, any of them is a valid alternative contact.
                    self.carried.fallback.replace(self.id, &composition);
                    let request = AtumMessage::JoinRequest {
                        joiner: self.id,
                        nonce: self.carried.join_nonce,
                        // Direct admission for recent members (churn
                        // recovery) and for joiners whose placement walks
                        // keep dying (degraded-overlay fallback).
                        rejoin: self.recently_left(ctx.now()) || attempts >= 2,
                    };
                    for member in composition.iter() {
                        ctx.send(member, request.clone());
                    }
                }
            }
            AtumMessage::JoinRequest {
                joiner,
                nonce,
                rejoin,
            } => {
                let op = crate::message::GroupOp::HandleJoinRequest {
                    joiner,
                    nonce,
                    rejoin,
                };
                self.with_member(ctx, |member, now, effects| member.propose(op, now, effects));
            }
            AtumMessage::Welcome(config) => self.handle_welcome(from, *config, ctx),
            AtumMessage::StateRequest { group, epoch } => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_state_request(from, group, epoch, now, effects)
                });
            }
            AtumMessage::Heartbeat { group, epoch } => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_heartbeat(from, group, epoch, now, effects)
                });
            }
            AtumMessage::Smr { group, epoch, msg } => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_smr_message(from, group, epoch, *msg, now, effects)
                });
            }
            AtumMessage::Group(envelope) => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_group_copy(from, envelope, now, effects)
                });
            }
            AtumMessage::GroupVote(vote) => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_group_vote(from, &vote, now, effects)
                });
            }
            AtumMessage::App { payload, .. } => {
                let mut app_ctx = AppCtx::new(ctx.now(), self.id);
                self.app.on_app_message(from, &payload, &mut app_ctx);
                let mut queue = Vec::new();
                self.drain_app_ctx(app_ctx, &mut queue, ctx);
                self.run_effects(queue, ctx);
            }
            AtumMessage::BroadcastKeys { group, keys } => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_broadcast_keys(from, group, &keys, now, effects)
                });
            }
            AtumMessage::BroadcastPull { group, keys, voted } => {
                self.with_member(ctx, |member, now, effects| {
                    member.on_broadcast_pull(from, group, &keys, voted.map(|d| *d), now, effects)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CollectingApp;
    use atum_overlay::NeighborTable;
    use atum_simnet::{NetConfig, Simulation};
    use atum_types::SmrMode;

    type TestSim = Simulation<AtumMessage, AtumNode<CollectingApp>>;

    fn registry(n: u64) -> Arc<KeyRegistry> {
        let mut r = KeyRegistry::new();
        for i in 0..n {
            r.register(NodeId::new(i), 9);
        }
        r.shared()
    }

    fn fast_params() -> Params {
        // Short rounds and heartbeats keep simulated test time small.
        Params::default()
            .with_round(Duration::from_millis(200))
            .with_group_bounds(1, 8)
    }

    fn make_sim(n: u64, params: &Params, seed: u64) -> TestSim {
        let registry = registry(n);
        let mut sim = Simulation::new(NetConfig::lan(), seed);
        for i in 0..n {
            let node = AtumNode::new(
                NodeId::new(i),
                params.clone(),
                registry.clone(),
                CollectingApp::new(),
            );
            sim.add_node(NodeId::new(i), node);
        }
        sim
    }

    #[test]
    fn bootstrap_then_join_two_nodes() {
        let params = fast_params();
        let mut sim = make_sim(2, &params, 1);
        sim.call(NodeId::new(0), |n, ctx| n.bootstrap(ctx).unwrap());
        sim.run_for(Duration::from_secs(2));
        sim.call(NodeId::new(1), |n, ctx| {
            n.join(NodeId::new(0), ctx).unwrap()
        });
        sim.run_for(Duration::from_secs(60));

        assert!(sim.node(NodeId::new(1)).unwrap().is_member());
        let m0 = sim.node(NodeId::new(0)).unwrap().member().unwrap();
        assert!(
            m0.config().composition.contains(NodeId::new(1)) || m0.config().composition.len() == 1
        );
        // Node 1 learned a composition that includes itself.
        let m1 = sim.node(NodeId::new(1)).unwrap().member().unwrap();
        assert!(m1.config().composition.contains(NodeId::new(1)));
    }

    #[test]
    fn api_misuse_is_rejected() {
        let params = fast_params();
        let mut sim = make_sim(2, &params, 2);
        sim.call(NodeId::new(0), |n, ctx| {
            // Broadcast before joining fails.
            assert!(matches!(
                n.broadcast(b"early".to_vec(), ctx),
                Err(AtumError::NotJoined)
            ));
            assert!(matches!(n.leave(ctx), Err(AtumError::NotJoined)));
            n.bootstrap(ctx).unwrap();
            // Double bootstrap fails.
            assert!(matches!(n.bootstrap(ctx), Err(AtumError::AlreadyJoined)));
            assert!(matches!(
                n.join(NodeId::new(1), ctx),
                Err(AtumError::AlreadyJoined)
            ));
        });
        sim.run_for(Duration::from_secs(1));
    }

    #[test]
    fn broadcast_reaches_every_member_of_a_bootstrapped_cluster() {
        // Build a standing 12-node system (3 vgroups of 4) directly, the way
        // the experiment harness does, and check end-to-end dissemination.
        let n = 12u64;
        let params = fast_params().with_group_bounds(2, 8).with_overlay(2, 4);
        let registry = registry(n);
        let mut sim: TestSim = Simulation::new(NetConfig::lan(), 3);

        // Three vgroups of four nodes, connected in a ring on both cycles.
        let comps: Vec<Composition> = (0..3)
            .map(|g| ((g * 4)..(g * 4 + 4)).map(NodeId::new).collect())
            .collect();
        let vgids: Vec<VgroupId> = (100..103).map(VgroupId::new).collect();
        for g in 0..3usize {
            let mut neighbors = NeighborTable::new(params.hc);
            for cycle in 0..params.hc as usize {
                let pred = (g + 2) % 3;
                let succ = (g + 1) % 3;
                neighbors.set_cycle(
                    cycle,
                    atum_overlay::CycleNeighbors {
                        predecessor: vgids[pred],
                        predecessor_composition: comps[pred].clone(),
                        successor: vgids[succ],
                        successor_composition: comps[succ].clone(),
                    },
                );
            }
            for i in (g * 4)..(g * 4 + 4) {
                let node = AtumNode::with_membership(
                    NodeId::new(i as u64),
                    params.clone(),
                    registry.clone(),
                    CollectingApp::new(),
                    Configuration {
                        vgroup: vgids[g],
                        composition: comps[g].clone(),
                        neighbors: neighbors.clone(),
                        epoch: 0,
                    },
                );
                sim.add_node(NodeId::new(i as u64), node);
            }
        }

        sim.call(NodeId::new(5), |n, ctx| {
            n.broadcast(b"to-everyone".to_vec(), ctx).unwrap();
        });
        sim.run_for(Duration::from_secs(30));

        for i in 0..n {
            let app = sim.node(NodeId::new(i)).unwrap().app();
            assert!(
                app.delivered_payloads().iter().any(|p| p == b"to-everyone"),
                "node {i} did not deliver the broadcast"
            );
            // Exactly once.
            assert_eq!(
                app.delivered_payloads()
                    .iter()
                    .filter(|p| p.as_slice() == b"to-everyone")
                    .count(),
                1,
                "node {i} delivered more than once"
            );
        }
    }

    #[test]
    fn async_mode_broadcast_also_disseminates() {
        let n = 8u64;
        let params = fast_params()
            .with_group_bounds(2, 8)
            .with_overlay(2, 4)
            .with_smr(SmrMode::Asynchronous);
        let registry = registry(n);
        let mut sim: TestSim = Simulation::new(NetConfig::wan(), 4);
        let comps: Vec<Composition> = (0..2)
            .map(|g| ((g * 4)..(g * 4 + 4)).map(NodeId::new).collect())
            .collect();
        let vgids = [VgroupId::new(100), VgroupId::new(101)];
        for g in 0..2usize {
            let other = 1 - g;
            let mut neighbors = NeighborTable::new(params.hc);
            for cycle in 0..params.hc as usize {
                neighbors.set_cycle(
                    cycle,
                    atum_overlay::CycleNeighbors {
                        predecessor: vgids[other],
                        predecessor_composition: comps[other].clone(),
                        successor: vgids[other],
                        successor_composition: comps[other].clone(),
                    },
                );
            }
            for i in (g * 4)..(g * 4 + 4) {
                let node = AtumNode::with_membership(
                    NodeId::new(i as u64),
                    params.clone(),
                    registry.clone(),
                    CollectingApp::new(),
                    Configuration {
                        vgroup: vgids[g],
                        composition: comps[g].clone(),
                        neighbors: neighbors.clone(),
                        epoch: 0,
                    },
                );
                sim.add_node(NodeId::new(i as u64), node);
            }
        }
        sim.call(NodeId::new(0), |n, ctx| {
            n.broadcast(b"async".to_vec(), ctx).unwrap();
        });
        sim.run_for(Duration::from_secs(30));
        for i in 0..n {
            assert!(
                sim.node(NodeId::new(i))
                    .unwrap()
                    .app()
                    .delivered_payloads()
                    .iter()
                    .any(|p| p == b"async"),
                "node {i} missed the broadcast"
            );
        }
    }

    #[test]
    fn leave_removes_node_from_its_vgroup() {
        let n = 4u64;
        let params = fast_params().with_group_bounds(1, 8).with_overlay(2, 4);
        let registry = registry(n);
        let mut sim: TestSim = Simulation::new(NetConfig::lan(), 5);
        let comp: Composition = (0..n).map(NodeId::new).collect();
        let vg = VgroupId::new(100);
        let neighbors = NeighborTable::self_loop(params.hc, vg, comp.clone());
        for i in 0..n {
            let node = AtumNode::with_membership(
                NodeId::new(i),
                params.clone(),
                registry.clone(),
                CollectingApp::new(),
                Configuration {
                    vgroup: vg,
                    composition: comp.clone(),
                    neighbors: neighbors.clone(),
                    epoch: 0,
                },
            );
            sim.add_node(NodeId::new(i), node);
        }
        sim.call(NodeId::new(3), |n, ctx| n.leave(ctx).unwrap());
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.node(NodeId::new(3)).unwrap().phase(), NodePhase::Left);
        for i in 0..3 {
            let m = sim.node(NodeId::new(i)).unwrap().member().unwrap();
            assert!(
                !m.config().composition.contains(NodeId::new(3)),
                "node {i} still lists the departed member"
            );
        }
    }

    #[test]
    fn silent_node_is_eventually_evicted() {
        let n = 5u64;
        let mut params = fast_params().with_group_bounds(1, 8).with_overlay(2, 4);
        params.heartbeat_period = Duration::from_secs(2);
        params.eviction_threshold = 2;
        let registry = registry(n);
        let mut sim: TestSim = Simulation::new(NetConfig::lan(), 6);
        let comp: Composition = (0..n).map(NodeId::new).collect();
        let vg = VgroupId::new(100);
        let neighbors = NeighborTable::self_loop(params.hc, vg, comp.clone());
        for i in 0..n {
            let node = AtumNode::with_membership(
                NodeId::new(i),
                params.clone(),
                registry.clone(),
                CollectingApp::new(),
                Configuration {
                    vgroup: vg,
                    composition: comp.clone(),
                    neighbors: neighbors.clone(),
                    epoch: 0,
                },
            );
            sim.add_node(NodeId::new(i), node);
        }
        // Node 4 crashes silently (no leave).
        sim.crash(NodeId::new(4));
        sim.run_for(Duration::from_secs(120));
        for i in 0..4 {
            let m = sim.node(NodeId::new(i)).unwrap().member().unwrap();
            assert!(
                !m.config().composition.contains(NodeId::new(4)),
                "node {i} still lists the crashed member: {}",
                m.config().composition
            );
        }
    }

    #[test]
    fn byzantine_heartbeat_only_node_is_not_evicted_and_does_not_disrupt() {
        let n = 5u64;
        let mut params = fast_params().with_group_bounds(1, 8).with_overlay(2, 4);
        params.heartbeat_period = Duration::from_secs(2);
        params.eviction_threshold = 2;
        let registry = registry(n);
        let mut sim: TestSim = Simulation::new(NetConfig::lan(), 7);
        let comp: Composition = (0..n).map(NodeId::new).collect();
        let vg = VgroupId::new(100);
        let neighbors = NeighborTable::self_loop(params.hc, vg, comp.clone());
        for i in 0..n {
            let mut node = AtumNode::with_membership(
                NodeId::new(i),
                params.clone(),
                registry.clone(),
                CollectingApp::new(),
                Configuration {
                    vgroup: vg,
                    composition: comp.clone(),
                    neighbors: neighbors.clone(),
                    epoch: 0,
                },
            );
            if i == 4 {
                node.set_byzantine(ByzantineBehavior::HeartbeatOnly);
            }
            sim.add_node(NodeId::new(i), node);
        }
        sim.call(NodeId::new(0), |n, ctx| {
            n.broadcast(b"despite-byzantine".to_vec(), ctx).unwrap();
        });
        sim.run_for(Duration::from_secs(60));
        // Correct nodes delivered the broadcast.
        for i in 0..4 {
            assert!(sim
                .node(NodeId::new(i))
                .unwrap()
                .app()
                .delivered_payloads()
                .iter()
                .any(|p| p == b"despite-byzantine"));
        }
        // The Byzantine node is still a member (it heartbeats).
        let m0 = sim.node(NodeId::new(0)).unwrap().member().unwrap();
        assert!(m0.config().composition.contains(NodeId::new(4)));
    }

    /// The lone engine. `{0, 1, 2}` reconfigured to epoch 1 without node
    /// 3, which is still at epoch 0 and lists `{0, 1, 2, 3}`. Its ex-peers
    /// drop its older-epoch traffic, so left running, its synchronous
    /// engine decides its own broadcast alone (reach 1), and the membership
    /// lasts until it has heard no peer for three eviction windows. Instead
    /// they answer it with a heartbeat at their epoch, which closes its
    /// fence; the fence ends the membership, node 3 re-joins, and all four
    /// decide its broadcast.
    #[test]
    fn a_member_reconfigured_out_is_fenced_not_left_deciding_alone() {
        let params = fast_params();
        let registry = registry(4);
        let mut sim: TestSim = Simulation::new(NetConfig::lan(), 8);
        for i in 0..4 {
            let (members, epoch) = if i == 3 {
                (comp(&[0, 1, 2, 3]), 0)
            } else {
                (comp(&[0, 1, 2]), 1)
            };
            let neighbors = NeighborTable::self_loop(params.hc, OLD, members.clone());
            let node = AtumNode::with_membership(
                NodeId::new(i),
                params.clone(),
                registry.clone(),
                CollectingApp::new(),
                Configuration {
                    vgroup: OLD,
                    composition: members,
                    neighbors,
                    epoch,
                },
            );
            sim.add_node(NodeId::new(i), node);
        }
        sim.call(NodeId::new(3), |n, ctx| {
            n.broadcast(b"lone".to_vec(), ctx).unwrap();
        });
        sim.run_for(Duration::from_secs(200));
        let id = BroadcastId::new(NodeId::new(3), 0);

        let delivered_by: Vec<u64> = (0..4)
            .filter(|&i| {
                let node = sim.node(NodeId::new(i)).unwrap();
                node.app().delivered().iter().any(|d| d.id == id)
            })
            .collect();
        assert_eq!(
            delivered_by,
            [0, 1, 2, 3],
            "who delivered node 3's broadcast"
        );
        let readmitted = sim.node(NodeId::new(3)).unwrap().stats.joined_at.unwrap();
        assert!(readmitted > Instant::ZERO, "node 3 was re-admitted");
        for i in 0..4 {
            let node = sim.node(NodeId::new(i)).unwrap();
            let member = node.member().expect("every node is a member");
            assert_eq!(member.config().composition, comp(&[0, 1, 2, 3]));
            let copies: Vec<Instant> = node
                .app()
                .delivered()
                .iter()
                .filter(|d| d.id == id)
                .map(|d| d.at)
                .collect();
            assert_eq!(copies.len(), 1, "node {i} delivered it once");
            assert!(
                copies[0] >= readmitted,
                "node {i} delivered it before node 3 was re-admitted"
            );
        }
    }

    // ------------------------------------ the session outlives memberships

    /// One node driven by hand: every step runs one callback at `now`
    /// (what the node sends is dropped — its peers are imaginary).
    struct Solo {
        node: AtumNode<CollectingApp>,
        rng: rand_chacha::ChaCha8Rng,
        now: Instant,
    }

    /// Node 0's first vgroup `{0, 1, 2}`, the vgroup it is moved to, and
    /// the neighbour `{10, 11, 12}` whose gossip it accepts in both.
    const OLD: VgroupId = VgroupId::new(100);
    const NEW: VgroupId = VgroupId::new(200);
    const UPSTREAM: VgroupId = VgroupId::new(7);

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().copied().map(NodeId::new).collect()
    }

    impl Solo {
        fn new() -> Self {
            let params = fast_params();
            let neighbors = NeighborTable::self_loop(params.hc, OLD, comp(&[0, 1, 2]));
            let node = AtumNode::with_membership(
                NodeId::new(0),
                params,
                registry(30),
                CollectingApp::new(),
                Configuration {
                    vgroup: OLD,
                    composition: comp(&[0, 1, 2]),
                    neighbors,
                    epoch: 0,
                },
            );
            Solo {
                node,
                rng: rand::SeedableRng::seed_from_u64(1),
                now: Instant::ZERO,
            }
        }

        fn act<R>(
            &mut self,
            f: impl FnOnce(&mut AtumNode<CollectingApp>, &mut Context<'_, AtumMessage>) -> R,
        ) -> R {
            let effects = atum_simnet::ContextEffects::new();
            let mut ctx = Context::for_runtime(self.node.id(), self.now, &mut self.rng, effects);
            f(&mut self.node, &mut ctx)
        }

        /// Lets `rounds` rounds pass, two maintenance ticks each. A
        /// synchronous engine whose peers stay silent decides its own
        /// proposals at the end of a slot, so a few rounds are "agreement".
        fn pass(&mut self, rounds: u64) {
            for _ in 0..rounds * 2 {
                self.now += Duration::from_millis(100);
                self.act(|n, ctx| n.on_timer(MAIN_TIMER, ctx));
            }
        }

        fn broadcast(&mut self, payload: &[u8]) -> Result<BroadcastId> {
            self.act(|n, ctx| n.broadcast(payload.to_vec(), ctx))
        }

        /// A majority of `UPSTREAM` gossips broadcast `id` to the node.
        fn gossip_quorum(&mut self, id: BroadcastId) {
            let gossip = crate::message::GroupPayload::Gossip {
                id,
                payload: b"gossiped".to_vec().into(),
                hops: 1,
            };
            let upstream = comp(&[10, 11, 12]);
            let envelope = Arc::new(crate::message::GroupEnvelope::new(
                UPSTREAM, upstream, gossip,
            ));
            for sender in [10, 11] {
                let copy = AtumMessage::Group(envelope.clone());
                self.act(|n, ctx| n.on_message(NodeId::new(sender), copy, ctx));
            }
        }

        /// Every other member of `members` welcomes the node into `group`.
        fn welcome(&mut self, group: VgroupId, members: &[u64], epoch: u64) {
            let composition = comp(members);
            let hc = fast_params().hc;
            for &sender in members.iter().filter(|&&m| m != 0) {
                let msg = AtumMessage::Welcome(Box::new(Configuration {
                    vgroup: group,
                    composition: composition.clone(),
                    neighbors: NeighborTable::self_loop(hc, group, composition.clone()),
                    epoch,
                }));
                self.act(|n, ctx| n.on_message(NodeId::new(sender), msg, ctx));
            }
        }

        fn end(&mut self, ending: Ending) {
            self.act(|n, ctx| n.end_membership(ending, ctx));
        }

        fn payloads_named(&self, payload: &[u8]) -> usize {
            let all = self.node.app().delivered_payloads();
            all.iter().filter(|p| p.as_slice() == payload).count()
        }

        /// The ids the application was handed, in delivery order.
        fn delivered(&self) -> Vec<BroadcastId> {
            self.node.app().delivered().iter().map(|d| d.id).collect()
        }
    }

    /// What every way of changing membership must preserve. `move_on` ends
    /// node 0's membership of `OLD` and gets it welcomed somewhere.
    fn session_survives(move_on: impl FnOnce(&mut Solo)) {
        let mut solo = Solo::new();
        let gossiped = BroadcastId::new(NodeId::new(10), 0);
        solo.gossip_quorum(gossiped);
        assert_eq!(solo.delivered(), [gossiped]);
        // Proposed, and not decided before the membership ends.
        let mine = solo.broadcast(b"mine").unwrap();
        assert_eq!(mine, BroadcastId::new(NodeId::new(0), 0));

        move_on(&mut solo);
        assert!(solo.node.is_member());
        solo.pass(8);
        assert_eq!(
            solo.payloads_named(b"mine"),
            1,
            "the undecided broadcast is decided in the new membership"
        );
        solo.gossip_quorum(gossiped);
        assert_eq!(
            solo.delivered(),
            [gossiped, mine],
            "nothing is delivered twice"
        );
        assert_eq!(solo.payloads_named(b"gossiped"), 1);
        let next = solo.broadcast(b"next").unwrap();
        assert_eq!(next.seq, mine.seq + 1, "the sequence continues");
    }

    #[test]
    fn shuffle_transfer_moves_the_session_to_the_new_vgroup() {
        session_survives(|solo| {
            // What a decided `CompleteExchange` naming this node emits.
            let moved = Effect::MembershipEnded(Ending::Transferred);
            solo.act(|n, ctx| n.run_effects(vec![moved], ctx));
            assert_eq!(solo.node.phase(), NodePhase::AwaitingTransfer);
            solo.welcome(NEW, &[0, 20], 3);
        });
    }

    #[test]
    fn eviction_and_auto_rejoin_keep_the_session() {
        session_survives(|solo| {
            let evicted = Effect::MembershipEnded(Ending::Evicted);
            solo.act(|n, ctx| n.run_effects(vec![evicted], ctx));
            assert_eq!(solo.node.phase(), NodePhase::Left);
            // The next tick re-joins through a former peer on its own.
            solo.pass(1);
            assert!(matches!(solo.node.phase(), NodePhase::Joining { .. }));
            solo.welcome(NEW, &[0, 20], 3);
        });
    }

    #[test]
    fn leave_then_join_keeps_the_session() {
        session_survives(|solo| {
            solo.act(|n, ctx| n.leave(ctx)).unwrap();
            // Agreement on the leave: the broadcast proposed before it is
            // decided in the same slot, the one case it is not carried over.
            solo.pass(8);
            assert_eq!(solo.node.phase(), NodePhase::Left);
            assert_eq!(solo.payloads_named(b"mine"), 1);
            solo.act(|n, ctx| n.join(NodeId::new(20), ctx)).unwrap();
            solo.welcome(NEW, &[0, 20], 3);
        });
    }

    #[test]
    fn canonical_state_renders_a_non_member_session() {
        let mut delivered = Solo::new();
        delivered.gossip_quorum(BroadcastId::new(NodeId::new(10), 0));
        let mut blank = Solo::new();
        for solo in [&mut delivered, &mut blank] {
            solo.end(Ending::Evicted);
            assert!(solo.node.member().is_none());
        }
        assert_ne!(
            delivered.node.canonical_state(),
            blank.node.canonical_state(),
            "states that differ only in a non-member's dedup set must not merge"
        );
    }

    #[test]
    fn canonical_state_renders_the_last_leave() {
        // The last leave decides whether the next join asks for the
        // re-join fast path, so two nodes evicted at different instants
        // part ways.
        let evicted_at = |secs: u64| {
            let mut solo = Solo::new();
            solo.now = Instant::from_micros(secs * 1_000_000);
            solo.end(Ending::Evicted);
            assert_eq!(solo.node.phase(), NodePhase::Left);
            solo.node.canonical_state()
        };
        assert_ne!(
            evicted_at(1),
            evicted_at(2),
            "states that differ only in the last leave must not merge"
        );
    }

    #[test]
    fn canonical_state_ignores_statistics() {
        // Statistics are passive observers: two states that differ only in
        // them behave identically going forward.
        let plain = Solo::new();
        let mut counted = Solo::new();
        counted.node.stats.joined_at = Some(Instant::from_micros(7_000_000));
        let Lifecycle::Member(member) = &mut counted.node.lifecycle else {
            unreachable!("a solo node starts as a member");
        };
        let stats = member.plane().1.stats_mut();
        stats.evictions += 1;
        stats.exchanges.completed += 1;
        assert_eq!(
            plain.node.canonical_state(),
            counted.node.canonical_state(),
            "states that differ only in statistics must merge"
        );
    }

    #[test]
    fn canonical_state_renders_a_pending_welcome_whole() {
        // One welcome each, short of its quorum, differing only in the
        // neighbour table: a welcome's table is what it installs, and the
        // first one of an epoch wins, so the two states part ways.
        let render = |table_of: VgroupId| {
            let mut solo = Solo::new();
            let composition = comp(&[0, 10, 11, 12]);
            let neighbors =
                NeighborTable::self_loop(fast_params().hc, table_of, composition.clone());
            let config = Configuration {
                vgroup: NEW,
                composition,
                neighbors,
                epoch: 3,
            };
            let msg = AtumMessage::Welcome(Box::new(config));
            solo.act(|n, ctx| n.on_message(NodeId::new(10), msg, ctx));
            assert_eq!(
                solo.node.carried.pending_welcomes.len(),
                1,
                "pending, not installed"
            );
            solo.node.canonical_state()
        };
        assert_ne!(
            render(NEW),
            render(UPSTREAM),
            "pending welcomes that differ only in their neighbour table must not merge"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any interleaving of broadcasts, gossip, membership ends (every
            /// cause) and welcomes: the ids this node issues strictly
            /// increase and what it hands its application — one delivery
            /// per id its dedup set ever admitted — never repeats an id.
            #[test]
            fn ids_increase_and_the_seen_set_never_shrinks(
                steps in proptest::collection::vec(0u8..9, 1..40),
            ) {
                let endings = [
                    Ending::Left,
                    Ending::Evicted,
                    Ending::Transferred,
                    Ending::Stranded,
                ];
                let mut solo = Solo::new();
                let mut last_seq = None;
                let mut log: Vec<BroadcastId> = Vec::new();
                for (i, step) in steps.into_iter().enumerate() {
                    match step {
                        0 | 1 => {
                            if let Ok(id) = solo.broadcast(&[i as u8]) {
                                prop_assert!(last_seq < Some(id.seq), "{id:?} after {last_seq:?}");
                                last_seq = Some(id.seq);
                            }
                        }
                        // Two upstream ids, so repeats happen.
                        2 => solo.gossip_quorum(BroadcastId::new(NodeId::new(10), i as u64 % 2)),
                        3 => solo.pass(4),
                        // A fresh vgroup, or a catch-up in the current one.
                        4 => solo.welcome(VgroupId::new(300 + i as u64), &[0, 20], 1),
                        5 => {
                            let held = solo.node.member().map(|m| (m.config().vgroup, m.config().epoch + 1));
                            let (group, epoch) = held.unwrap_or((NEW, 1));
                            solo.welcome(group, &[0, 20, 21], epoch);
                        }
                        cause => solo.end(endings[(cause as usize + i) % endings.len()]),
                    }
                    let now = solo.delivered();
                    prop_assert!(now.starts_with(&log), "{log:?} then {now:?}");
                    let distinct: BTreeSet<BroadcastId> = now.iter().copied().collect();
                    prop_assert_eq!(distinct.len(), now.len());
                    log = now;
                }
            }
        }
    }
}
