//! What a node keeps for as long as it lives, whichever vgroup it is in.
//!
//! Vgroups are volatile: every join and leave starts shuffle exchanges that
//! move correct nodes between them, and churn strands and re-admits nodes.
//! A [`MemberState`](crate::MemberState) is one membership and is dropped
//! when it ends. What must survive that — the broadcast dedup set, this
//! node's broadcast sequence number, the bodies retained for repair and
//! the experiment counters — lives in one [`Session`] per
//! [`AtumNode`](crate::AtumNode). The membership holds it while it lasts;
//! when it ends, the node's next lifecycle phase holds it, and the next
//! membership is built around it. It is moved, never copied and never
//! rebuilt, so a node cannot be handed a broadcast twice or reuse a
//! [`BroadcastId`] however often it changes vgroup.
//!
//! The session is also the *broadcast plane*: a sub-state-machine whose
//! inputs are decided [`GroupOp::Broadcast`]s, accepted gossip and the
//! repair messages, seen through a borrowed `View` of the current
//! membership, and whose outputs are [`Effect`]s. The SMR engine, the
//! group-message collector and failure detection stay with the membership;
//! for the one repair leg that needs agreement the plane *returns* the ops
//! to re-decide.

use crate::app::Delivered;
use crate::member::{Configuration, Effect, MemberStats, Unrendered};
use crate::message::{AtumMessage, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
use atum_crypto::Digest;
use atum_overlay::{gossip::Direction, is_carrier, GossipPlanner, SeenCache};
use atum_types::{BroadcastId, Composition, Duration, Instant, NodeId, Params, VgroupId};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Cached handles into the global metrics registry for the anti-entropy
/// repair plane. Resolved once (registry lookups take a lock); afterwards
/// each increment is one relaxed atomic add. The adversarial benchmarks
/// sample these to break a partition-heal into degradation phases.
pub(crate) mod repair_metrics {
    use atum_obs::Counter;
    use std::sync::{Arc, OnceLock};

    /// Broadcast holes detected: `BroadcastPull` requests sent upstream.
    pub(crate) fn pulls() -> &'static Arc<Counter> {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| atum_obs::global().counter("core.anti_entropy_pulls"))
    }

    /// Holes serviced by re-proposing the held op through the vgroup SMR.
    pub(crate) fn reproposals() -> &'static Arc<Counter> {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| atum_obs::global().counter("core.anti_entropy_reproposals"))
    }
}

/// The current membership as the broadcast plane and the local duties see
/// it: this node, the configuration borrowed from the membership's group
/// part, and the parameters, for the length of one call.
pub(crate) struct View<'a> {
    pub(crate) me: NodeId,
    pub(crate) config: &'a Configuration,
    pub(crate) params: &'a Params,
}

impl std::ops::Deref for View<'_> {
    type Target = Configuration;

    fn deref(&self) -> &Configuration {
        self.config
    }
}

impl View<'_> {
    /// Sends one copy of a group message to every member of `to`: the
    /// message is [made](Self::group_message) here and
    /// [fanned out](Self::fan_out) at once.
    pub(crate) fn send_group_message(
        &self,
        to: &Composition,
        payload: GroupPayload,
        effects: &mut Vec<Effect>,
    ) {
        Self::fan_out(&self.group_message(payload), to, effects);
    }

    /// What this member ships for one group message, built once however
    /// many vgroups it goes to: one envelope (payload, source composition
    /// and memoized digest — one hash of the payload) behind one `Arc`. A
    /// broadcast body is shipped by its carriers only; every other member
    /// vouches for it with a digest vote (§5.1). The remaining kinds are
    /// small and have no body-repair path, so every member sends them whole.
    pub(crate) fn group_message(&self, payload: GroupPayload) -> AtumMessage {
        let envelope = GroupEnvelope::new(self.vgroup, self.composition.clone(), payload);
        let digest = envelope.digest();
        match envelope.payload {
            GroupPayload::Gossip { id, .. } if !is_carrier(&self.composition, digest, self.me) => {
                AtumMessage::GroupVote(Arc::new(GroupVote {
                    source: envelope.source,
                    source_composition: envelope.source_composition,
                    digest,
                    id,
                }))
            }
            _ => AtumMessage::Group(Arc::new(envelope)),
        }
    }

    /// One copy of `msg` to every member of `to`. Every copy shares the
    /// message's `Arc` — a reference-count bump per recipient, not a deep
    /// clone, and one `fanout_identity`, so a socket runtime encodes it once.
    pub(crate) fn fan_out(msg: &AtumMessage, to: &Composition, effects: &mut Vec<Effect>) {
        for member in to.iter() {
            effects.push(Effect::Send {
                to: member,
                msg: msg.clone(),
            });
        }
    }

    /// Sends `to` this membership's configuration to install.
    pub(crate) fn send_welcome(&self, to: NodeId, effects: &mut Vec<Effect>) {
        let msg = AtumMessage::Welcome(Box::new(self.config.clone()));
        effects.push(Effect::Send { to, msg });
    }

    /// `true` when this membership's own neighbour table places `node` in
    /// the overlay neighbour `group` (any neighbour when `None`): the only
    /// grounds on which a cross-group repair message is believed.
    fn vouches_for(&self, node: NodeId, group: Option<VgroupId>) -> bool {
        let neighbors = self.neighbors.distinct_neighbors();
        match group {
            Some(group) => neighbors.get(&group).is_some_and(|c| c.contains(node)),
            None => neighbors.values().any(|c| c.contains(node)),
        }
    }
}

/// A generator keyed on its first draw: of the gossip policies only `Random`
/// draws from the forwarding plan's.
struct LazyRng<F>(Option<ChaCha8Rng>, F);

impl<F: FnMut() -> ChaCha8Rng> RngCore for LazyRng<F> {
    fn next_u32(&mut self) -> u32 {
        self.0.get_or_insert_with(&mut self.1).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.get_or_insert_with(&mut self.1).next_u64()
    }
}

/// One broadcast retained for the pull-based repair path: a member keeps
/// the payload of recently delivered broadcasts for a bounded window so a
/// vgroup peer that missed its gossip copies (drops have no other
/// retransmit) can pull a re-gossip.
#[derive(Debug, Clone)]
struct RecentBroadcast {
    payload: Arc<[u8]>,
    /// Overlay hops at delivery: this member forwarded it one further.
    hops: u32,
    stored: Instant,
}

/// When each `(broadcast, peer)` pair was last let through: the one
/// throttle of the repair path.
#[derive(Debug, Clone, Default)]
struct Throttle(BTreeMap<(BroadcastId, NodeId), Instant>);

impl Throttle {
    /// Lets `key` through, stamping it `now`, unless it was let through
    /// less than `gap` ago.
    fn admit(&mut self, key: (BroadcastId, NodeId), now: Instant, gap: Duration) -> bool {
        let recent = |last: &Instant| now.saturating_since(*last) < gap;
        if self.0.get(&key).is_some_and(recent) {
            return false;
        }
        self.0.insert(key, now);
        true
    }

    /// Forgets the keys last let through more than `keep` ago.
    fn prune(&mut self, now: Instant, keep: Duration) {
        self.0.retain(|_, t| now.saturating_since(*t) <= keep);
    }
}

/// The node-lifetime state of one [`AtumNode`](crate::AtumNode); see the
/// module docs. Ordered containers throughout (determinism lint), and
/// `Clone` only so the model checker can branch a node. Its derived `Debug`
/// is part of the checker's fingerprint; the statistics are left out by
/// type.
#[derive(Debug, Clone)]
pub struct Session {
    seen: SeenCache,
    next_seq: u64,
    /// Recently delivered broadcasts retained for the pull repair path
    /// (bounded; empty when `params.broadcast_repair` is off).
    recent: BTreeMap<BroadcastId, RecentBroadcast>,
    /// `recent`'s keys in eviction order, `(stored, id)` ascending, so the
    /// oldest is at the front: the cap and the age prune pop it there
    /// instead of scanning the map.
    by_age: VecDeque<(Instant, BroadcastId)>,
    /// When this node last pulled each missing broadcast from each
    /// advertiser. Keyed per advertiser so a hole collects repair copies
    /// from *every* distinct holder within one announce period (the
    /// collector needs a majority of distinct senders), while any one
    /// (broadcast, holder) pair is asked at most once per period.
    pulled: Throttle,
    /// When this node last answered each requester's pull of each
    /// broadcast (the holder-side throttle mirroring `pulled`).
    repair_sent: Throttle,
    /// This node's own broadcasts that were proposed in a membership which
    /// ended before they were decided (with their digests, as the
    /// membership kept them): the next one proposes them again.
    undecided: Vec<(Digest, GroupOp)>,
    stats: Unrendered<MemberStats>,
}

impl Default for Session {
    /// The session of a node that has not been a member yet.
    fn default() -> Self {
        Session {
            seen: SeenCache::new(65536),
            next_seq: 0,
            recent: BTreeMap::new(),
            by_age: VecDeque::new(),
            pulled: Throttle::default(),
            repair_sent: Throttle::default(),
            undecided: Vec::new(),
            stats: Unrendered::default(),
        }
    }
}

impl Session {
    /// How many recently delivered broadcasts a node retains for the pull
    /// repair path. The retention window is 16 heartbeat periods, so at a
    /// steady broadcast rate the cap binds whenever more than this many
    /// arrive per window: `sim_fanout`'s 20 a second reach it within a few
    /// simulated seconds, and from then on every delivery evicts one.
    const RECENT_BROADCAST_CAP: usize = 64;

    /// How many keys one announce-cadence digest advertises.
    const KEYS_PER_ANNOUNCE: usize = 32;

    /// How many missing broadcasts one pull may request.
    const PULL_BATCH_MAX: usize = 16;

    /// Statistics for the experiments, over every membership so far.
    pub fn stats(&self) -> &MemberStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut MemberStats {
        &mut self.stats.0
    }

    /// Allocates the next broadcast identifier of node `me`.
    pub(crate) fn next_broadcast_id(&mut self, me: NodeId) -> BroadcastId {
        let id = BroadcastId::new(me, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Keeps the broadcasts among `pending` — ops this node proposed into a
    /// membership that is ending and never saw decided — for the next one.
    pub(crate) fn park(&mut self, mut pending: Vec<(Digest, GroupOp)>) {
        pending.retain(|(_, op)| matches!(op, GroupOp::Broadcast { .. }));
        // Nothing is lost: every membership starts by taking what was kept.
        self.undecided = pending;
    }

    /// The broadcasts [`Self::park`] kept, for the new membership to propose.
    pub(crate) fn take_undecided(&mut self) -> Vec<(Digest, GroupOp)> {
        std::mem::take(&mut self.undecided)
    }

    // ------------------------------------------------------------- gossip

    /// A broadcast reached this node from vgroup `source`: decided by its
    /// own vgroup (`hops` 0, `source` is this vgroup) or as an accepted
    /// gossip hop. On first sight it is delivered to the application,
    /// retained for repair and forwarded to the plan's neighbours — except
    /// to this vgroup, and, for a first hop, to `source`: that is the
    /// vgroup whose members delivered it at hop 0, by their own decision.
    /// The source of a later hop is not left out; see the plan below.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_broadcast(
        &mut self,
        view: View<'_>,
        id: BroadcastId,
        payload: Arc<[u8]>,
        hops: u32,
        source: VgroupId,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if !self.seen.insert(id) {
            return;
        }
        self.remember_broadcast(view.params, id, payload.clone(), hops, now);
        let delivered = Delivered {
            id,
            // The application owns its copy; every *forwarded* copy below
            // shares the Arc.
            payload: payload.to_vec(),
            at: now,
            hops,
        };

        // Every member of a vgroup must forward to the same vgroups, or the
        // copies sent to a vgroup only some of them target never reach a
        // quorum there. The plan's RNG is seeded from (broadcast id,
        // vgroup) only. The one input that can differ between members is
        // the accepted hop's `source`: members can accept one broadcast
        // from different later-hop sources, so only a first hop's source
        // is left out — a first-hop copy comes straight from the deciding
        // vgroup, one network hop ahead of any relayed copy, so in practice
        // every member accepts it from there.
        let delivered_there =
            |group: VgroupId| group == view.vgroup || (hops == 1 && group == source);
        let mut rng = LazyRng(None, || {
            let seed = Digest::of_parts(&[
                b"gossip-plan",
                &id.origin.raw().to_be_bytes(),
                &id.seq.to_be_bytes(),
                &view.vgroup.raw().to_be_bytes(),
            ]);
            ChaCha8Rng::seed_from_u64(seed.as_u64())
        });
        let plan = GossipPlanner::plan(view.params.gossip, view.params.hc, &mut rng);
        let mut already: BTreeSet<VgroupId> = BTreeSet::new();
        let mut targets: Vec<&Composition> = Vec::new();
        for target in plan {
            let Some(entry) = view.neighbors.cycle(target.cycle as usize) else {
                continue;
            };
            let (group, comp) = match target.direction {
                Direction::Successor => (entry.successor, &entry.successor_composition),
                Direction::Predecessor => (entry.predecessor, &entry.predecessor_composition),
            };
            if !delivered_there(group) && already.insert(group) {
                targets.push(comp);
            }
        }
        // Ahead of every `Send`: `run_effects` hands the application its
        // copy, and sends what it answers with, before the forwards.
        effects.push(Effect::Deliver(delivered));
        if targets.is_empty() {
            return;
        }
        let msg = view.group_message(GroupPayload::Gossip {
            id,
            payload,
            hops: hops + 1,
        });
        for comp in targets {
            View::fan_out(&msg, comp, effects);
        }
    }

    // ---------------------------------------------- broadcast self-repair

    /// Retains a delivered broadcast for the repair window (16 heartbeat
    /// periods — several announce rounds), bounded by
    /// [`Self::RECENT_BROADCAST_CAP`] (oldest evicted first).
    fn remember_broadcast(
        &mut self,
        params: &Params,
        id: BroadcastId,
        payload: Arc<[u8]>,
        hops: u32,
        now: Instant,
    ) {
        if !params.broadcast_repair {
            return;
        }
        let kept = RecentBroadcast {
            payload,
            hops,
            stored: now,
        };
        if let Some(old) = self.recent.insert(id, kept) {
            self.by_age.retain(|&key| key != (old.stored, id));
        }
        let at = self.by_age.partition_point(|&key| key < (now, id));
        self.by_age.insert(at, (now, id));
        while self.recent.len() > Self::RECENT_BROADCAST_CAP {
            self.forget_oldest();
        }
    }

    /// Drops the retained broadcast first in `(stored, id)` order.
    fn forget_oldest(&mut self) {
        let (_, id) = self.by_age.pop_front().expect("non-empty");
        self.recent.remove(&id);
    }

    /// Broadcast anti-entropy, piggybacked on the announce cadence: prune
    /// the retention window, then advertise the retained broadcast ids to
    /// every vgroup peer *and* to the members of every distinct overlay
    /// neighbour. The cross-group legs are what let a vgroup where *no*
    /// member delivered (gossip chain cut mid-flight by a partition)
    /// bootstrap its copies from the outside; without them repair could
    /// only level holes inside a group that already held the broadcast. A
    /// receiver that missed one answers with a
    /// [`AtumMessage::BroadcastPull`] (see [`Self::on_broadcast_keys`]).
    pub(crate) fn anti_entropy(&mut self, view: View<'_>, now: Instant, effects: &mut Vec<Effect>) {
        let retain_for = view.params.heartbeat_period.saturating_mul(16);
        let expired =
            |&(stored, _): &(Instant, BroadcastId)| now.saturating_since(stored) > retain_for;
        while self.by_age.front().is_some_and(expired) {
            self.forget_oldest();
        }
        self.pulled.prune(now, retain_for);
        self.repair_sent.prune(now, retain_for);
        if self.recent.is_empty() {
            return;
        }
        let mut keys: Vec<BroadcastId> = self.recent.keys().copied().collect();
        if keys.len() > Self::KEYS_PER_ANNOUNCE {
            // Newest first, then truncate: old holes have had their rounds.
            keys.sort_by_key(|id| {
                let stored = self.recent[id].stored;
                (std::cmp::Reverse(stored), *id)
            });
            keys.truncate(Self::KEYS_PER_ANNOUNCE);
            keys.sort();
        }
        let msg = AtumMessage::BroadcastKeys {
            group: view.vgroup,
            keys,
        };
        let mut advertised: BTreeSet<NodeId> = BTreeSet::from([view.me]);
        let neighbors = view.neighbors.distinct_neighbors();
        let others = neighbors.iter().filter(|(group, _)| **group != view.vgroup);
        for comp in std::iter::once(&view.composition).chain(others.map(|(_, comp)| comp)) {
            for peer in comp.iter() {
                if advertised.insert(peer) {
                    effects.push(Effect::Send {
                        to: peer,
                        msg: msg.clone(),
                    });
                }
            }
        }
    }

    /// A vgroup peer — or a member of an overlay neighbour — advertised its
    /// recently delivered broadcasts: pull the ones we missed. Own-group
    /// pulls are throttled per broadcast (the holder heals us through an
    /// SMR re-decision, so one pull serves the whole group); cross-group
    /// pulls are throttled per `(broadcast, advertiser)` so one announce
    /// period collects a copy from *every distinct holder* (the quorum
    /// collector needs a majority of distinct senders, and a per-broadcast
    /// throttle would starve it). Both are bounded per message, so a
    /// Byzantine digest full of fabricated ids costs at most one bounded
    /// pull round — and fabricated ids yield no copies, so nothing is ever
    /// accepted from them. The advertiser is only believed if *our own*
    /// state (our composition or our neighbour table) places it in the
    /// group it claims.
    pub(crate) fn on_broadcast_keys(
        &mut self,
        view: View<'_>,
        from: NodeId,
        group: VgroupId,
        keys: &[BroadcastId],
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if !view.params.broadcast_repair {
            return;
        }
        // An own-group holder repairs us through SMR re-decision (one pull
        // services the whole group), so one pull per broadcast per period
        // suffices — keyed by our own id, which never names an advertiser.
        // Cross-group holders answer with one direct copy each and the
        // collector needs a majority of *distinct* holders, so those are
        // throttled per (broadcast, advertiser) instead — and verified
        // against our own view of the overlay, never against their
        // self-claimed membership.
        let own_group = group == view.vgroup;
        let known = if own_group {
            view.composition.contains(from)
        } else {
            view.vouches_for(from, Some(group))
        };
        if !known {
            return;
        }
        let repull_after = view.params.heartbeat_period.saturating_mul(2);
        let throttled_on = if own_group { view.me } else { from };
        let mut missing: Vec<BroadcastId> = Vec::new();
        for &id in keys.iter() {
            if missing.len() >= Self::PULL_BATCH_MAX {
                break;
            }
            if !self.seen.contains(id) && self.pulled.admit((id, throttled_on), now, repull_after) {
                missing.push(id);
            }
        }
        if !missing.is_empty() {
            repair_metrics::pulls().add(missing.len() as u64);
            atum_obs::trace_event!(
                AntiEntropyPull,
                at = now.as_micros(),
                node = view.me.raw(),
                slots = [group.raw(), missing.len() as u64, 0],
                "pulling {} missing broadcasts of vgroup {:?} from {from}",
                missing.len(),
                group
            );
            effects.push(Effect::Send {
                to: from,
                // Echo the *advertiser's* group so its own-vgroup guard in
                // `on_broadcast_pull` passes.
                msg: AtumMessage::BroadcastPull {
                    group,
                    keys: missing,
                    voted: None,
                },
            });
        }
    }

    /// A requester (vgroup peer or overlay-neighbour member) asked for
    /// broadcasts it missed. An *own-group* requester is healed by
    /// re-deciding the held op through the vgroup's SMR engine — agreement
    /// re-delivers it at every holed member at once, and works even when
    /// only a sub-majority of the group holds the broadcast — so those
    /// broadcasts are returned for the membership, which runs the engine, to
    /// propose.
    /// A *cross-group* requester gets a direct unicast gossip copy instead
    /// and must still assemble a majority of distinct holders in its quorum
    /// collector. Neither leg adds an acceptance rule a Byzantine member
    /// could abuse (SMR re-decision is dedup'd by op digest; direct copies
    /// face the usual quorum), and both are throttled and bounded, so a
    /// forged pull costs at most one re-proposal or one unicast copy per
    /// broadcast per announce period.
    ///
    /// `voted` is set when the requester holds a majority of votes for that
    /// digest and no body (see [`Self::pull_starved`]): it gets the copy we
    /// voted for — the hops we forwarded with, not the merged form — if
    /// that is what we voted for.
    pub(crate) fn on_broadcast_pull(
        &mut self,
        view: View<'_>,
        from: NodeId,
        keys: &[BroadcastId],
        voted: Option<Digest>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> Vec<(BroadcastId, Arc<[u8]>)> {
        let own_member = view.composition.contains(from);
        // Cross-group requester: believed only if our own neighbour table
        // places it in some overlay-neighbour group.
        if !own_member && !view.vouches_for(from, None) {
            return Vec::new();
        }
        let resend_after = view.params.heartbeat_period.saturating_mul(2);
        // One re-proposal per broadcast per period serves every holed peer
        // (keyed by our own id — never a requester); direct replies are
        // throttled per (broadcast, requester).
        let throttled_on = if own_member { view.me } else { from };
        let mut redecide = Vec::new();
        for &id in keys.iter() {
            let Some(recent) = self.recent.get(&id) else {
                continue;
            };
            if !self
                .repair_sent
                .admit((id, throttled_on), now, resend_after)
            {
                continue;
            }
            let payload = recent.payload.clone();
            if own_member {
                redecide.push((id, payload));
                continue;
            }
            // One *direct* copy, hops normalised to zero so every holder's
            // reply shares one payload digest and the copies merge in the
            // requester's quorum collector (a starved quorum names the
            // digest it wants instead).
            let hops = voted.map_or(0, |_| recent.hops + 1);
            let gossip = GroupPayload::Gossip { id, payload, hops };
            let envelope = GroupEnvelope::new(view.vgroup, view.composition.clone(), gossip);
            if voted.is_none_or(|digest| digest == envelope.digest()) {
                effects.push(Effect::Send {
                    to: from,
                    msg: AtumMessage::Group(Arc::new(envelope)),
                });
            }
        }
        redecide
    }

    /// A majority voted for gossip `vote` and none of them shipped the body
    /// — members forwarding from diverging views of their vgroup rank
    /// different carriers. Each voter is asked, once, for the copy it voted
    /// for: one answer completes the quorum already counted.
    pub(crate) fn pull_starved(
        &mut self,
        view: View<'_>,
        vote: &GroupVote,
        voters: Vec<NodeId>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) {
        if !view.params.broadcast_repair || self.seen.contains(vote.id) {
            return;
        }
        let once = Duration::from_micros(u64::MAX);
        for voter in voters {
            if self.pulled.admit((vote.id, voter), now, once) {
                let msg = AtumMessage::BroadcastPull {
                    group: vote.source,
                    keys: vec![vote.id],
                    voted: Some(Box::new(vote.digest)),
                };
                effects.push(Effect::Send { to: voter, msg });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberState;
    use atum_crypto::KeyRegistry;
    use atum_overlay::NeighborTable;

    fn registry(n: u64) -> Arc<KeyRegistry> {
        let mut r = KeyRegistry::new();
        for i in 0..n {
            r.register(NodeId::new(i), 1);
        }
        r.shared()
    }

    fn test_params() -> Params {
        Params::default().with_group_bounds(2, 20)
    }

    fn member(n_nodes: u64, me: u64) -> MemberState {
        let params = test_params();
        let composition: Composition = (0..n_nodes).map(NodeId::new).collect();
        let vgroup = VgroupId::new(500);
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        MemberState::with_membership(
            NodeId::new(me),
            params,
            registry(n_nodes),
            Session::default(),
            Configuration {
                vgroup,
                composition,
                neighbors,
                epoch: 0,
            },
            Instant::ZERO,
        )
    }

    /// Feeds `m` a majority of copies of one gossip broadcast, as if a
    /// neighbouring vgroup forwarded it. Returns the broadcast id.
    fn feed_gossip(m: &mut MemberState, at: Instant) -> BroadcastId {
        let id = BroadcastId::new(NodeId::new(10), 0);
        let other = VgroupId::new(7);
        let other_comp: Composition = (10..13).map(NodeId::new).collect();
        let payload = GroupPayload::Gossip {
            id,
            payload: b"repair-me".to_vec().into(),
            hops: 2,
        };
        let envelope = Arc::new(GroupEnvelope::new(other, other_comp, payload));
        let mut effects = Vec::new();
        for sender in [10u64, 11] {
            m.on_group_copy(NodeId::new(sender), envelope.clone(), at, &mut effects);
        }
        assert_eq!(delivered(&effects), [id], "feed must deliver");
        id
    }

    /// The broadcasts `effects` hands the application, in order.
    fn delivered(effects: &[Effect]) -> Vec<BroadcastId> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(d) => Some(d.id),
                _ => None,
            })
            .collect()
    }

    /// The retention cap evicts in `(stored, id)` order, as a scan for the
    /// smallest would: times tie, ids arrive out of order, and a few ids
    /// are retained again while still held.
    #[test]
    fn the_retention_cap_evicts_the_oldest_stored_then_smallest_id() {
        let params = test_params();
        let mut session = Session::default();
        let mut model: BTreeMap<BroadcastId, Instant> = BTreeMap::new();
        let cap = Session::RECENT_BROADCAST_CAP;
        for i in 0..3 * cap as u64 {
            // Scrambled ids, six of them repeated within 40 broadcasts;
            // time steps every third broadcast, so three share an instant.
            let id = BroadcastId::new(NodeId::new((i * 7) % 5), (i * i * 31 + 7 * i) % 211);
            let now = Instant::from_micros(i / 3);
            session.remember_broadcast(&params, id, Arc::from(&b""[..]), 0, now);
            model.insert(id, now);
            while model.len() > cap {
                let (&oldest, _) = model.iter().min_by_key(|(id, t)| (**t, **id)).unwrap();
                model.remove(&oldest);
            }
            let kept: Vec<(BroadcastId, Instant)> = session
                .recent
                .iter()
                .map(|(id, r)| (*id, r.stored))
                .collect();
            let expected: Vec<(BroadcastId, Instant)> =
                model.iter().map(|(id, t)| (*id, *t)).collect();
            assert_eq!(kept, expected, "after broadcast {i}");
            assert_eq!(session.by_age.len(), session.recent.len());
        }
    }

    #[test]
    fn broadcast_hole_is_repaired_through_announce_pull_regossip() {
        let mut m0 = member(3, 0);
        let mut m1 = member(3, 1);
        let mut m2 = member(3, 2); // The holed member: never got a copy.
        let t0 = Instant::from_micros(5);
        let id = feed_gossip(&mut m0, t0);
        feed_gossip(&mut m1, t0);

        // m0's announce cadence piggybacks the broadcast digest to both
        // vgroup peers.
        let announce_at = Instant::ZERO + test_params().heartbeat_period.saturating_mul(2);
        let mut effects = Vec::new();
        m0.tick(announce_at, &mut effects);
        let keys_msgs: Vec<(NodeId, Vec<BroadcastId>)> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: AtumMessage::BroadcastKeys { keys, .. },
                } => Some((*to, keys.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(keys_msgs.len(), 2, "one digest per peer: {effects:?}");
        assert!(keys_msgs.iter().all(|(_, k)| k == &vec![id]));

        // The holed member pulls once; peers that already saw the broadcast
        // don't, and a second own-group advertiser in the same period is
        // throttled (one SMR re-decision serves the whole group).
        let mut effects = Vec::new();
        m2.on_broadcast_keys(
            NodeId::new(0),
            m2.config().vgroup,
            &[id],
            announce_at,
            &mut effects,
        );
        let pulls: Vec<&Effect> = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        to,
                        msg: AtumMessage::BroadcastPull { .. },
                    } if *to == NodeId::new(0)
                )
            })
            .collect();
        assert_eq!(pulls.len(), 1);
        let mut effects = Vec::new();
        m1.on_broadcast_keys(
            NodeId::new(0),
            m1.config().vgroup,
            &[id],
            announce_at,
            &mut effects,
        );
        assert!(effects.is_empty(), "a member that saw it must not pull");
        let mut effects = Vec::new();
        m2.on_broadcast_keys(
            NodeId::new(1),
            m2.config().vgroup,
            &[id],
            announce_at,
            &mut effects,
        );
        assert!(
            effects.is_empty(),
            "own-group re-pull must be throttled per broadcast"
        );

        // The pulled holder answers not with a copy of its own but by
        // re-proposing the op through the vgroup's SMR engine: agreement —
        // not trust in one holder — is what re-delivers the payload, so the
        // repair works even when only a sub-majority of the group holds it.
        let mut effects = Vec::new();
        m0.on_broadcast_pull(
            NodeId::new(2),
            m0.config().vgroup,
            &[id],
            None,
            announce_at,
            &mut effects,
        );
        assert!(
            !effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: AtumMessage::Group(_),
                    ..
                }
            )),
            "own-group pulls are healed through SMR, not direct copies"
        );
        // The re-proposed batch goes out at once, into the slot already open.
        let mut relayed: Vec<(NodeId, NodeId, AtumMessage)> = effects
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: msg @ AtumMessage::Smr { .. },
                } => Some((NodeId::new(0), to, msg)),
                _ => None,
            })
            .collect();
        assert_eq!(relayed.len(), 2, "the re-proposal is sent to both peers");
        // A repeated pull (same or another requester) stays unanswered this
        // period: one re-decision serves the whole group.
        let pending_before = {
            let mut again = Vec::new();
            m0.on_broadcast_pull(
                NodeId::new(1),
                m0.config().vgroup,
                &[id],
                None,
                announce_at,
                &mut again,
            );
            again.len()
        };
        assert_eq!(
            pending_before, 0,
            "re-proposals must be throttled per broadcast"
        );

        // Drive the engines through the re-proposal's slot: each batch is
        // delivered at the time it was sent, relays, finalizes — and the
        // holed member delivers through the ordinary agreement path.
        let round = test_params().round;
        let mut at = announce_at;
        let mut repaired: Vec<(NodeId, BroadcastId)> = Vec::new();
        for _ in 0..8 {
            for (src, to, msg) in std::mem::take(&mut relayed) {
                let AtumMessage::Smr { group, epoch, msg } = msg else {
                    unreachable!()
                };
                let m = match to.raw() {
                    0 => &mut m0,
                    1 => &mut m1,
                    _ => &mut m2,
                };
                let mut effects = Vec::new();
                m.on_smr_message(src, group, epoch, *msg, at, &mut effects);
                for e in effects {
                    match e {
                        Effect::Send {
                            to,
                            msg: msg @ AtumMessage::Smr { .. },
                        } => relayed.push((m.id(), to, msg)),
                        Effect::Deliver(d) => repaired.push((m.id(), d.id)),
                        _ => {}
                    }
                }
            }
            if !repaired.is_empty() {
                break;
            }
            at += round;
            for (src, m) in [(0u64, &mut m0), (1, &mut m1), (2, &mut m2)] {
                let mut effects = Vec::new();
                m.tick(at, &mut effects);
                for e in effects {
                    match e {
                        Effect::Send {
                            to,
                            msg: msg @ AtumMessage::Smr { .. },
                        } => relayed.push((NodeId::new(src), to, msg)),
                        Effect::Deliver(d) => repaired.push((NodeId::new(src), d.id)),
                        _ => {}
                    }
                }
            }
        }
        // The SMR re-decision repaired the hole, and the members that
        // already held the broadcast did not re-deliver it.
        assert_eq!(repaired, [(NodeId::new(2), id)]);
    }

    /// The cross-group bootstrap leg: a vgroup where *no* member delivered
    /// (gossip chain cut mid-flight) pulls its copies from the members of
    /// an overlay neighbour found in its own neighbour table — and a holder
    /// only answers requesters its own table can vouch for.
    #[test]
    fn broadcast_hole_is_bootstrapped_across_groups() {
        // Holders live in vgroup 500 ({0, 1, 2}); the holed member lives in
        // vgroup 600 ({20, 21}) and knows 500 as an overlay neighbour.
        let mut holder0 = member(3, 0);
        let mut holder1 = member(3, 1);
        let t0 = Instant::from_micros(5);
        let id = feed_gossip(&mut holder0, t0);
        feed_gossip(&mut holder1, t0);

        let params = Params::default().with_group_bounds(2, 20);
        let holed_comp: Composition = (20..22).map(NodeId::new).collect();
        let holder_comp: Composition = (0..3).map(NodeId::new).collect();
        let holed_group = VgroupId::new(600);
        let mut neighbors = NeighborTable::self_loop(params.hc, holed_group, holed_comp.clone());
        neighbors.set_cycle(
            0,
            atum_overlay::CycleNeighbors {
                predecessor: VgroupId::new(500),
                predecessor_composition: holder_comp.clone(),
                successor: holed_group,
                successor_composition: holed_comp.clone(),
            },
        );
        let mut holed = MemberState::with_membership(
            NodeId::new(20),
            params,
            registry(30),
            Session::default(),
            Configuration {
                vgroup: holed_group,
                composition: holed_comp,
                neighbors,
                epoch: 0,
            },
            Instant::ZERO,
        );
        // Teach the holders about vgroup 600 so they can vouch for the
        // requester; node 20 is a member there in *their* view.
        holder0.config_mut().neighbors.set_cycle(
            0,
            atum_overlay::CycleNeighbors {
                predecessor: holed_group,
                predecessor_composition: (20..22).map(NodeId::new).collect(),
                successor: VgroupId::new(500),
                successor_composition: holder_comp.clone(),
            },
        );

        // A holder's announce advertises to the neighbour group's members
        // too, not just its own peers.
        let announce_at = Instant::ZERO + test_params().heartbeat_period.saturating_mul(2);
        let mut effects = Vec::new();
        holder0.tick(announce_at, &mut effects);
        let advertised: BTreeSet<NodeId> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: AtumMessage::BroadcastKeys { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(
            advertised.contains(&NodeId::new(20)) && advertised.contains(&NodeId::new(21)),
            "announce must reach neighbour-group members: {advertised:?}"
        );

        // The holed member believes advertisers its own table places in the
        // claimed group — and only those.
        let mut effects = Vec::new();
        holed.on_broadcast_keys(
            NodeId::new(0),
            VgroupId::new(500),
            &[id],
            announce_at,
            &mut effects,
        );
        let pull = effects.iter().find_map(|e| match e {
            Effect::Send {
                to,
                msg: AtumMessage::BroadcastPull { group, keys, .. },
            } => Some((*to, *group, keys.clone())),
            _ => None,
        });
        let (to, group, keys) = pull.expect("holed member must pull from a vouched advertiser");
        assert_eq!(to, NodeId::new(0));
        assert_eq!(
            group,
            VgroupId::new(500),
            "pull must echo the advertiser's group"
        );
        assert_eq!(keys, vec![id]);
        let mut effects = Vec::new();
        holed.on_broadcast_keys(
            NodeId::new(99),
            VgroupId::new(500),
            &[id],
            announce_at,
            &mut effects,
        );
        assert!(
            effects.is_empty(),
            "an advertiser our table cannot vouch for is ignored"
        );

        // holder0 vouches for node 20 through its table and answers the
        // pull directly; holder1 has no view of vgroup 600 and stays silent.
        let mut effects = Vec::new();
        holder0.on_broadcast_pull(
            NodeId::new(20),
            group,
            &keys,
            None,
            announce_at,
            &mut effects,
        );
        let copies: Vec<Arc<GroupEnvelope>> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: AtumMessage::Group(env),
                } if *to == NodeId::new(20) => Some(env.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            copies.len(),
            1,
            "vouched cross-group pull gets a direct reply"
        );
        let mut effects = Vec::new();
        holder1.on_broadcast_pull(
            NodeId::new(20),
            group,
            &keys,
            None,
            announce_at,
            &mut effects,
        );
        assert!(
            effects.is_empty(),
            "a holder that cannot vouch for the requester must not reply"
        );

        // Two vouched holders' replies assemble the majority of vgroup 500
        // at the holed member (collector counts distinct senders of one
        // digest), bootstrapping the broadcast into vgroup 600.
        holder1.config_mut().neighbors.set_cycle(
            0,
            atum_overlay::CycleNeighbors {
                predecessor: holed_group,
                predecessor_composition: (20..22).map(NodeId::new).collect(),
                successor: VgroupId::new(500),
                successor_composition: holder_comp,
            },
        );
        let mut effects = Vec::new();
        holder1.on_broadcast_pull(
            NodeId::new(20),
            group,
            &keys,
            None,
            announce_at,
            &mut effects,
        );
        let env1 = effects
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to,
                    msg: AtumMessage::Group(env),
                } if *to == NodeId::new(20) => Some(env.clone()),
                _ => None,
            })
            .expect("vouched reply");
        let env0 = copies.into_iter().next().unwrap();
        assert_eq!(env0.digest(), env1.digest());
        let mut effects = Vec::new();
        holed.on_group_copy(NodeId::new(0), env0, announce_at, &mut effects);
        assert!(delivered(&effects).is_empty(), "one copy is no majority");
        holed.on_group_copy(NodeId::new(1), env1, announce_at, &mut effects);
        assert_eq!(
            delivered(&effects),
            [id],
            "cross-group repair bootstrapped the hole"
        );
    }

    #[test]
    fn broadcast_repair_off_keeps_no_state_and_sends_no_digests() {
        let params = Params::default()
            .with_group_bounds(2, 20)
            .with_broadcast_repair(false);
        let composition: Composition = (0..3).map(NodeId::new).collect();
        let vgroup = VgroupId::new(500);
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        let mut m = MemberState::with_membership(
            NodeId::new(0),
            params,
            registry(3),
            Session::default(),
            Configuration {
                vgroup,
                composition,
                neighbors,
                epoch: 0,
            },
            Instant::ZERO,
        );
        feed_gossip(&mut m, Instant::from_micros(5));
        assert!(m.session().recent.is_empty());
        let announce_at = Instant::ZERO + test_params().heartbeat_period.saturating_mul(2);
        let mut effects = Vec::new();
        m.tick(announce_at, &mut effects);
        assert!(!effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: AtumMessage::BroadcastKeys { .. },
                ..
            }
        )));
    }

    // ------------------------------------------- payload-once gossip hops

    const HOP_FROM: VgroupId = VgroupId::new(500);
    const HOP_TO: VgroupId = VgroupId::new(600);

    /// Vgroup 500 = {0..4} and vgroup 600 = {20..24}, neighbours on cycle 0
    /// (500 precedes 600). Returns the member state of `me`.
    fn hop_member(me: u64) -> MemberState {
        let params = Params::default().with_group_bounds(2, 20);
        let from_comp: Composition = (0..4).map(NodeId::new).collect();
        let to_comp: Composition = (20..24).map(NodeId::new).collect();
        let (vgroup, composition) = if me < 20 {
            (HOP_FROM, from_comp.clone())
        } else {
            (HOP_TO, to_comp.clone())
        };
        let mut neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        let mut entry = neighbors.cycle(0).cloned().expect("self loop");
        if me < 20 {
            (entry.successor, entry.successor_composition) = (HOP_TO, to_comp);
        } else {
            (entry.predecessor, entry.predecessor_composition) = (HOP_FROM, from_comp);
        }
        neighbors.set_cycle(0, entry);
        MemberState::with_membership(
            NodeId::new(me),
            params,
            registry(30),
            Session::default(),
            Configuration {
                vgroup,
                composition,
                neighbors,
                epoch: 0,
            },
            Instant::ZERO,
        )
    }

    /// Every member of vgroup 500 delivers broadcast `id` and forwards it:
    /// returns the members and, per member, the copy it sends node 20.
    fn hop_copies(id: BroadcastId, body: &[u8]) -> (Vec<MemberState>, Vec<(NodeId, AtumMessage)>) {
        let mut senders: Vec<MemberState> = (0..4).map(hop_member).collect();
        let mut copies = Vec::new();
        for m in &mut senders {
            let mut effects = Vec::new();
            let (view, session) = m.plane();
            let body = body.to_vec().into();
            session.on_broadcast(
                view,
                id,
                body,
                0,
                VgroupId::new(500),
                Instant::ZERO,
                &mut effects,
            );
            let mine: Vec<AtumMessage> = effects
                .into_iter()
                .filter_map(|e| match e {
                    Effect::Send { to, msg } if to == NodeId::new(20) => Some(msg),
                    _ => None,
                })
                .collect();
            assert_eq!(mine.len(), 1, "one copy per member per recipient");
            copies.push((m.id(), mine.into_iter().next().unwrap()));
        }
        (senders, copies)
    }

    #[test]
    fn one_broadcast_is_one_message_whatever_the_number_of_target_vgroups() {
        use atum_types::wire::FrameMemo;
        let id = BroadcastId::new(NodeId::new(0), 0);
        let mut bodies = 0;
        for me in 0..4 {
            // Two more neighbours beside vgroup 600: twelve recipients in
            // three vgroups.
            let mut m = hop_member(me);
            let mut entry = m.config().neighbors.cycle(0).cloned().expect("cycle 0");
            entry.predecessor = VgroupId::new(601);
            entry.predecessor_composition = (30..34).map(NodeId::new).collect();
            m.config_mut().neighbors.set_cycle(0, entry.clone());
            entry.successor = VgroupId::new(602);
            entry.successor_composition = (40..44).map(NodeId::new).collect();
            m.config_mut().neighbors.set_cycle(1, entry);

            let mut effects = Vec::new();
            let body: Arc<[u8]> = vec![7u8; 1024].into();
            let (view, session) = m.plane();
            session.on_broadcast(
                view,
                id,
                body,
                0,
                VgroupId::new(500),
                Instant::ZERO,
                &mut effects,
            );
            assert!(matches!(effects[0], Effect::Deliver(_)), "delivery first");
            let sent: Vec<&AtumMessage> = effects[1..]
                .iter()
                .map(|e| match e {
                    Effect::Send { msg, .. } => msg,
                    other => panic!("only forwards follow the delivery: {other:?}"),
                })
                .collect();
            assert_eq!(sent.len(), 12);
            // One `Arc` — one digest, one encode on a socket runtime —
            // behind every copy: a body from a carrier, a vote otherwise.
            let identity = sent[0].fanout_identity();
            assert!(identity.is_some());
            assert!(sent.iter().all(|msg| msg.fanout_identity() == identity));
            assert!(sent.iter().all(|msg| is_body(msg) == is_body(sent[0])));
            bodies += usize::from(is_body(sent[0]));
        }
        assert_eq!(bodies, 2, "half of the four members carry the body");
    }

    /// A member of vgroup 600 accepts one gossip hop from vgroup 500, its
    /// only neighbour, and returns how many copies it forwards back to 500.
    fn forwards_back_to_source(hops: u32) -> usize {
        let mut m = hop_member(20);
        let source: Composition = (0..4).map(NodeId::new).collect();
        let gossip = GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(0), u64::from(hops)),
            payload: b"hop".to_vec().into(),
            hops,
        };
        let envelope = Arc::new(GroupEnvelope::new(HOP_FROM, source.clone(), gossip));
        let mut effects = Vec::new();
        for sender in 0..3 {
            let at = Instant::from_micros(9);
            m.on_group_copy(NodeId::new(sender), envelope.clone(), at, &mut effects);
        }
        assert!(effects.iter().any(|e| matches!(e, Effect::Deliver(_))));
        effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { to, .. } if source.contains(*to)))
            .count()
    }

    #[test]
    fn a_first_hop_is_not_forwarded_back_to_the_vgroup_that_decided_it() {
        // Vgroup 500's members delivered it at hop 0, by their own decision.
        assert_eq!(forwards_back_to_source(1), 0);
        // A later hop's source is another relay: members may have accepted
        // the broadcast from different ones, so none of them is left out.
        assert_eq!(forwards_back_to_source(2), 4);
    }

    /// Hands `m` one group-message copy the way the node dispatch does.
    fn feed_copy(m: &mut MemberState, from: NodeId, msg: &AtumMessage, effects: &mut Vec<Effect>) {
        let now = Instant::from_micros(9);
        match msg {
            AtumMessage::Group(env) => m.on_group_copy(from, env.clone(), now, effects),
            AtumMessage::GroupVote(vote) => m.on_group_vote(from, vote, now, effects),
            other => panic!("not a group-message copy: {other:?}"),
        }
    }

    /// The vote the same sender would have cast for `msg`.
    fn as_vote(msg: &AtumMessage) -> AtumMessage {
        match msg {
            AtumMessage::Group(env) => {
                let GroupPayload::Gossip { id, .. } = env.payload else {
                    panic!("only gossip is voted for: {env:?}");
                };
                AtumMessage::GroupVote(Arc::new(GroupVote {
                    source: env.source,
                    source_composition: env.source_composition.clone(),
                    digest: env.digest(),
                    id,
                }))
            }
            vote => vote.clone(),
        }
    }

    fn is_body(msg: &AtumMessage) -> bool {
        matches!(msg, AtumMessage::Group(_))
    }

    #[test]
    fn gossip_hop_ships_the_body_from_the_carriers_and_votes_from_the_rest() {
        let (mut senders, copies) = hop_copies(BroadcastId::new(NodeId::new(0), 3), b"body");
        let bodies: Vec<&Arc<GroupEnvelope>> = copies
            .iter()
            .filter_map(|(_, msg)| match msg {
                AtumMessage::Group(env) => Some(env),
                _ => None,
            })
            .collect();
        assert_eq!(bodies.len(), 2, "carriers of 4 are 2");
        let digest = bodies[0].digest();
        for (from, msg) in &copies {
            let carrier = is_carrier(&senders[0].config().composition, digest, *from);
            match msg {
                AtumMessage::Group(env) => {
                    assert!(carrier);
                    assert_eq!(env.digest(), digest);
                }
                AtumMessage::GroupVote(vote) => {
                    assert!(!carrier);
                    assert_eq!((vote.source, vote.digest), (HOP_FROM, digest));
                    assert_eq!(vote.source_composition, senders[0].config().composition);
                }
                other => panic!("unexpected copy {other:?}"),
            }
        }
        // Control-plane payloads are not split: g full copies per recipient.
        for m in &mut senders {
            let mut effects = Vec::new();
            let update = GroupPayload::CompositionUpdate {
                group: m.config().vgroup,
                composition: m.config().composition.clone(),
            };
            let to = hop_member(20).config().composition.clone();
            m.plane().0.send_group_message(&to, update, &mut effects);
            assert_eq!(effects.len(), 4);
            assert!(effects
                .iter()
                .all(|e| matches!(e, Effect::Send { msg, .. } if is_body(msg))));
        }
    }

    #[test]
    fn votes_and_bodies_deliver_exactly_once_in_any_order_and_free_the_body() {
        let id = BroadcastId::new(NodeId::new(0), 4);
        let (_, copies) = hop_copies(id, b"ordered");
        let (bodies, votes): (Vec<_>, Vec<_>) = copies.iter().partition(|(_, msg)| is_body(msg));
        let votes_first: Vec<_> = votes.iter().chain(&bodies).collect();
        let bodies_first: Vec<_> = bodies.iter().chain(&votes).collect();
        for order in [votes_first, bodies_first] {
            let mut receiver = hop_member(20);
            let mut effects = Vec::new();
            for (seen, (from, msg)) in order.into_iter().enumerate() {
                feed_copy(&mut receiver, *from, msg, &mut effects);
                // Majority of 4 is 3; the quorum always holds a carrier.
                assert_eq!(delivered(&effects).len(), usize::from(seen >= 2));
            }
            assert_eq!(delivered(&effects), [id]);
            assert_eq!(receiver.pending_group_messages(), 0, "body freed");
        }
    }

    #[test]
    fn withholding_carrier_does_not_stop_or_double_delivery() {
        let (_, mut copies) = hop_copies(BroadcastId::new(NodeId::new(0), 5), b"withheld");
        // One carrier votes but never ships the body.
        let withholder = copies.iter().position(|(_, msg)| is_body(msg)).unwrap();
        copies[withholder].1 = as_vote(&copies[withholder].1);
        let mut receiver = hop_member(20);
        let mut effects = Vec::new();
        for (from, msg) in &copies {
            feed_copy(&mut receiver, *from, msg, &mut effects);
        }
        assert_eq!(delivered(&effects).len(), 1);
        assert_eq!(receiver.pending_group_messages(), 0);
    }

    #[test]
    fn wrong_body_carrier_is_outvoted_and_its_body_never_delivered() {
        let id = BroadcastId::new(NodeId::new(0), 6);
        let (_, mut copies) = hop_copies(id, b"honest");
        let liar = copies.iter().position(|(_, msg)| is_body(msg)).unwrap();
        let AtumMessage::Group(honest) = &copies[liar].1 else {
            unreachable!()
        };
        let forged = GroupPayload::Gossip {
            id,
            payload: b"forged".to_vec().into(),
            hops: 1,
        };
        copies[liar].1 = AtumMessage::Group(Arc::new(GroupEnvelope::new(
            honest.source,
            honest.source_composition.clone(),
            forged,
        )));
        // The forged body first, so it would win any "first body" race.
        copies.swap(0, liar);
        let mut receiver = hop_member(20);
        let mut effects = Vec::new();
        for (from, msg) in &copies {
            feed_copy(&mut receiver, *from, msg, &mut effects);
        }
        let delivered: Vec<&Delivered> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, b"honest".to_vec());
        // The forged copy is its own key: one sender, never a majority.
        assert_eq!(receiver.pending_group_messages(), 1);
    }

    /// Every member of vgroup 500 votes for broadcast `id`, none ships the
    /// body (more withholders than the fault bound). Returns the members,
    /// the starved receiver, and what it asked of whom.
    fn starved_receiver(
        id: BroadcastId,
        body: &[u8],
    ) -> (Vec<MemberState>, MemberState, Vec<(NodeId, AtumMessage)>) {
        let (senders, copies) = hop_copies(id, body);
        let mut receiver = hop_member(20);
        let mut effects = Vec::new();
        for (from, msg) in &copies {
            feed_copy(&mut receiver, *from, &as_vote(msg), &mut effects);
        }
        assert!(delivered(&effects).is_empty(), "no body, no delivery");
        assert_eq!(receiver.pending_group_messages(), 1);
        let asked = effects
            .into_iter()
            .map(|e| match e {
                Effect::Send { to, msg } => (to, msg),
                other => panic!("unexpected effect {other:?}"),
            })
            .collect();
        (senders, receiver, asked)
    }

    /// What `holder` answers when `from` sends it the pull `msg`.
    fn answer(holder: &mut MemberState, from: u64, msg: &AtumMessage) -> Vec<Effect> {
        let AtumMessage::BroadcastPull { group, keys, voted } = msg else {
            panic!("expected a pull, got {msg:?}");
        };
        let mut effects = Vec::new();
        let at = Instant::from_micros(20);
        let voted = voted.as_deref().copied();
        holder.on_broadcast_pull(NodeId::new(from), *group, keys, voted, at, &mut effects);
        effects
    }

    #[test]
    fn bodyless_quorum_asks_its_voters_and_one_answer_delivers() {
        let id = BroadcastId::new(NodeId::new(0), 7);
        let (mut senders, mut receiver, asked) = starved_receiver(id, b"asked for");
        // Each voter is asked once: three when the majority forms, the
        // fourth when its vote arrives.
        let voters: Vec<NodeId> = asked.iter().map(|(to, _)| *to).collect();
        assert_eq!(voters, (0..4).map(NodeId::new).collect::<Vec<_>>());
        let mut effects = Vec::new();
        for (voter, pull) in &asked {
            let holder = &mut senders[voter.raw() as usize];
            let [Effect::Send { to, msg }] = &answer(holder, 20, pull)[..] else {
                panic!("expected one direct copy");
            };
            assert_eq!((*to, is_body(msg)), (NodeId::new(20), true));
            feed_copy(&mut receiver, *voter, msg, &mut effects);
            // The first answer is the body the counted quorum vouched for.
            assert_eq!(delivered(&effects), [id]);
        }
        assert_eq!(receiver.pending_group_messages(), 0);

        // Asked for a digest it never vouched for, or by a node that is
        // nobody's neighbour, a voter sends nothing.
        let (mut senders, _, mut asked) = starved_receiver(id, b"asked for");
        assert!(answer(&mut senders[1], 29, &asked[1].1).is_empty());
        let AtumMessage::BroadcastPull { voted, .. } = &mut asked[0].1 else {
            unreachable!()
        };
        *voted = Some(Box::new(Digest::of(b"something else")));
        assert!(answer(&mut senders[0], 20, &asked[0].1).is_empty());
    }

    #[test]
    fn bodyless_quorum_is_healed_by_advert_pull_and_direct_copies() {
        let id = BroadcastId::new(NodeId::new(0), 7);
        // The returned votes are lost; the holders' announce cadence then
        // advertises the broadcast, and the receiver pulls it from each and
        // assembles their direct copies.
        let (mut senders, mut receiver, _) = starved_receiver(id, b"pulled");
        let at = Instant::ZERO + test_params().heartbeat_period.saturating_mul(3);
        let mut fed = Vec::new();
        for holder in senders.iter_mut().take(3) {
            let from = holder.id();
            let mut effects = Vec::new();
            receiver.on_broadcast_keys(from, HOP_FROM, &[id], at, &mut effects);
            let [Effect::Send {
                msg: AtumMessage::BroadcastPull { group, keys, .. },
                ..
            }] = &effects[..]
            else {
                panic!("expected one pull, got {effects:?}");
            };
            let mut reply = Vec::new();
            holder.on_broadcast_pull(NodeId::new(20), *group, keys, None, at, &mut reply);
            let [Effect::Send { msg, .. }] = &reply[..] else {
                panic!("expected one direct copy, got {reply:?}");
            };
            assert!(is_body(msg));
            feed_copy(&mut receiver, from, msg, &mut fed);
        }
        assert_eq!(delivered(&fed), [id]);
    }
}
