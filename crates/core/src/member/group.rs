//! The group part of a membership: the vgroup's [`Configuration`] and the
//! bookkeeping only decided operations write (see the [parent
//! module](super)).

use super::{Effect, Ending, Wiring};
use crate::broadcast::View;
use crate::message::{GroupOp, GroupPayload};
use atum_crypto::Digest;
use atum_overlay::{CycleNeighbors, NeighborTable, WalkPurpose, WalkState};
use atum_types::{Composition, Instant, NodeId, Params, VgroupId, WalkId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// One configuration of a vgroup: what an
/// [`AtumMessage::Welcome`](crate::AtumMessage::Welcome) installs and what
/// every decided reconfiguration replaces. Its methods are pure functions
/// of the agreed value, so every correct member computes the same result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// The vgroup.
    pub vgroup: VgroupId,
    /// Its composition.
    pub composition: Composition,
    /// Its neighbour table (per-cycle predecessor and successor).
    pub neighbors: NeighborTable,
    /// Its epoch, bumped on every composition change.
    pub epoch: u64,
}

impl Configuration {
    /// The configuration of a node that bootstraps a fresh system: a single
    /// vgroup containing only `me`, neighbouring itself on each of `hc`
    /// cycles.
    pub(super) fn bootstrap(me: NodeId, hc: u8) -> Self {
        let vgroup = VgroupId::new(me.raw());
        let composition = Composition::singleton(me);
        let neighbors = NeighborTable::self_loop(hc, vgroup, composition.clone());
        Configuration {
            vgroup,
            composition,
            neighbors,
            epoch: 0,
        }
    }

    /// Points one side of `cycle` at `group` (see
    /// [`NeighborTable::set_side`]). With `or_loop`, a cycle without an
    /// entry gets one that loops back to this vgroup on the other side.
    fn set_side(
        &mut self,
        cycle: u8,
        successor: bool,
        (group, composition): (VgroupId, Composition),
        or_loop: bool,
    ) -> bool {
        let cycle = cycle as usize;
        if or_loop && self.neighbors.cycle(cycle).is_none() {
            let own = NeighborTable::self_loop(1, self.vgroup, self.composition.clone());
            let entry = own.cycle(0).cloned().expect("a one-cycle self loop");
            self.neighbors.set_cycle(cycle, entry);
        }
        self.neighbors
            .set_side(cycle, successor, group, composition)
    }

    /// Applies an accepted neighbour-table payload for member `me`: a
    /// neighbour's new composition, an introduction or a cycle patch.
    /// Returns the `(cycle, successor)` side it rewrote.
    fn rewire(&mut self, payload: GroupPayload, me: NodeId, now: Instant) -> Option<(u8, bool)> {
        match payload {
            GroupPayload::CompositionUpdate { group, composition } => {
                self.neighbors.update_composition(group, &composition);
                None
            }
            GroupPayload::NeighborIntro {
                cycle,
                sender_is_predecessor,
                group,
                composition,
            } => {
                let side = !sender_is_predecessor;
                self.set_side(cycle, side, (group, composition), true);
                Some((cycle, side))
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
                    node = me.raw(),
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
                let side = (group, composition);
                let rewired = self.set_side(cycle, new_is_successor, side, false);
                rewired.then_some((cycle, new_is_successor))
            }
            _ => None,
        }
    }

    /// Splices `new_group` in as this vgroup's successor on `cycle`, and
    /// returns what to tell whom: the new successor that we are its
    /// predecessor and who its successor is, and the old successor who its
    /// new predecessor is.
    fn insert_successor(
        &mut self,
        cycle: u8,
        (new_group, composition): (VgroupId, Composition),
    ) -> Vec<(Composition, GroupPayload)> {
        if new_group == self.vgroup {
            // An orphan re-insertion walk (link repair) landed back at the
            // orphan itself: inserting a vgroup as its own successor would
            // sever it from the cycle for good.
            return Vec::new();
        }
        let Some(CycleNeighbors {
            successor: old,
            successor_composition: old_comp,
            ..
        }) = self.neighbors.cycle(cycle as usize).cloned()
        else {
            return Vec::new();
        };
        self.set_side(cycle, true, (new_group, composition.clone()), false);
        let intro = |sender_is_predecessor, group, composition| GroupPayload::NeighborIntro {
            cycle,
            sender_is_predecessor,
            group,
            composition,
        };
        let mut sends = vec![
            (
                composition.clone(),
                intro(true, self.vgroup, self.composition.clone()),
            ),
            (composition.clone(), intro(false, old, old_comp.clone())),
        ];
        if old != self.vgroup {
            let patch = GroupPayload::CyclePatch {
                cycle,
                new_is_successor: false,
                group: new_group,
                composition,
            };
            sends.push((old_comp, patch));
        }
        sends
    }

    /// The merge this vgroup asks for, with the successor on cycle 0 (a
    /// random neighbour would do; a deterministic choice keeps all members
    /// consistent), and the patches that bridge the gaps it leaves behind
    /// on every cycle. `None` when alone in the system.
    fn merge_requests(&self) -> Option<Vec<(Composition, GroupPayload)>> {
        let vgroup = self.vgroup;
        let entry = self.neighbors.cycle(0).filter(|e| e.successor != vgroup)?;
        let members = self.composition.iter().collect();
        let request = GroupPayload::MergeRequest {
            from: vgroup,
            members,
        };
        let mut sends = vec![(entry.successor_composition.clone(), request)];
        for cycle in 0..self.neighbors.cycle_count() {
            let Some(e) = self.neighbors.cycle(cycle) else {
                continue;
            };
            if e.predecessor == vgroup || e.successor == vgroup {
                continue;
            }
            let patch = |new_is_successor, group, composition: &Composition| {
                let (cycle, composition) = (cycle as u8, composition.clone());
                GroupPayload::CyclePatch {
                    cycle,
                    new_is_successor,
                    group,
                    composition,
                }
            };
            let to_pred = patch(true, e.successor, &e.successor_composition);
            sends.push((e.predecessor_composition.clone(), to_pred));
            let to_succ = patch(false, e.predecessor, &e.predecessor_composition);
            sends.push((e.successor_composition.clone(), to_succ));
        }
        Some(sends)
    }

    /// The halves a split of this configuration makes, kept and departing,
    /// and the departing half's vgroup.
    fn split_halves(&self) -> (Composition, Composition, VgroupId) {
        use rand::seq::SliceRandom;
        let seed = self.seed(b"split", &[]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.as_u64());
        let mut order: Vec<usize> = (0..self.composition.len()).collect();
        order.shuffle(&mut rng);
        let (keep, depart) = self.composition.split_by_order(&order);
        (
            keep,
            depart,
            VgroupId::new(seed.as_u64() | 0x8000_0000_0000_0000),
        )
    }

    /// The members a shuffle wave of this configuration exchanges. Bounded
    /// breadth: exchanging the whole membership in one wave replaces every
    /// member while the welcome quorums of the incoming ones are still
    /// assembling, which strands them en masse. Two exchanges per wave
    /// still mix the membership over successive reconfigurations. The
    /// subset is derived from (vgroup, epoch) so every member launches the
    /// same walks.
    fn shuffle_wave(&self) -> Vec<NodeId> {
        let members: Vec<NodeId> = self.composition.iter().collect();
        let breadth = 2.min(members.len());
        let start = self.seed(b"shuffle-subset", &[]).as_u64() % members.len().max(1) as u64;
        (0..breadth)
            .map(|i| members[(start as usize + i) % members.len()])
            .collect()
    }

    /// A digest of this configuration's vgroup and epoch under `label`,
    /// extended by `more`: the seed of what every member derives alike.
    fn seed(&self, label: &[u8], more: &[&[u8]]) -> Digest {
        let (vgroup, epoch) = (self.vgroup.raw().to_be_bytes(), self.epoch.to_be_bytes());
        let parts: Vec<&[u8]> = [label, &vgroup, &epoch]
            .into_iter()
            .chain(more.iter().copied())
            .collect();
        Digest::of_parts(&parts)
    }

    /// The walk this configuration starts for `purpose`, from the decided
    /// `seed`. Its id must be identical at every member that applies the
    /// decided op that started it — it is derived from the shared (seed,
    /// epoch) pair, never from local counters. Members whose membership
    /// histories differ (a freshly welcomed member starts its counters from
    /// scratch) would otherwise route *different* walks for the same op,
    /// and no hop would ever assemble a majority of copies.
    fn walk(&self, purpose: WalkPurpose, seed: Digest, rwl: u8) -> WalkState {
        let (seed, epoch) = (seed.as_u64(), self.epoch);
        let id = WalkId::new(self.vgroup, seed ^ epoch.rotate_left(17));
        // Deterministic bulk RNG: every correct member derives the same walk.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ epoch ^ id.seq.wrapping_mul(0x9E37_79B9));
        WalkState::new(id, purpose, self.composition.clone(), rwl, &mut rng)
    }

    /// The overlay link a walk at this vgroup takes next, `None` when the
    /// vgroup is isolated (bootstrap). It picks a random incident link (two
    /// per cycle), addressed through the neighbour table's per-group view
    /// (kept current by CompositionUpdates) so walk copies reach the
    /// members the target vgroup has *now*, not the ones it had when the
    /// cycle entry was written. It re-routes around links that still point
    /// at `departed` vgroups: a walk forwarded there has no member left to
    /// relay it. The primary choice stays a pure function of the walk's
    /// shared RNG (see `choose_link_index`), so members that have not yet
    /// learned of a dissolution cannot be steered off a live hop by those
    /// that have.
    fn next_hop(
        &self,
        walk: &WalkState,
        departed: &BTreeSet<VgroupId>,
    ) -> Option<(VgroupId, &Composition)> {
        let mut links: Vec<(VgroupId, &Composition)> = Vec::new();
        for c in (0..self.neighbors.cycle_count()).filter_map(|c| self.neighbors.cycle(c)) {
            links.push((c.successor, &c.successor_composition));
            links.push((c.predecessor, &c.predecessor_composition));
        }
        if links.is_empty() {
            return None;
        }
        let eligible: Vec<usize> = (0..links.len())
            .filter(|&i| !departed.contains(&links[i].0))
            .collect();
        let (group, comp) = links[walk.choose_link_index(links.len(), &eligible).unwrap_or(0)];
        Some((group, self.neighbors.composition_of(group).unwrap_or(comp)))
    }
}

atum_types::wire_codec!(Configuration {
    vgroup,
    composition,
    neighbors,
    epoch
});

/// What a walk that stopped at this vgroup proposes.
fn selected(walk: WalkState) -> GroupOp {
    match walk.purpose {
        WalkPurpose::JoinPlacement { joiner } => GroupOp::AdmitJoiner {
            joiner,
            walk: walk.id,
        },
        WalkPurpose::ShuffleExchange { member } => GroupOp::OfferExchange {
            walk: walk.id,
            leaving: member,
            origin_composition: walk.origin_composition,
        },
        WalkPurpose::SplitAnchor {
            cycle,
            new_group,
            composition,
        } => GroupOp::InsertOverlayNeighbor {
            cycle,
            new_group,
            composition,
        },
    }
}

/// The state the vgroup's decided operations write, and the code that
/// applies them: resizes, overlay surgery and random walks.
#[derive(Debug, Clone)]
pub(super) struct Group {
    config: Configuration,
    /// Digests of the ops applied in this membership, except broadcasts:
    /// the session's dedup set guards their delivery for the node's whole
    /// life, so they are not kept here a second time, one per broadcast.
    applied_ops: BTreeSet<Digest>,
    /// Shuffle walks this vgroup started: walk → the member to exchange.
    outstanding_exchanges: BTreeMap<WalkId, NodeId>,
    /// Members this vgroup reserved as exchange partners: walk → member.
    reserved: BTreeMap<WalkId, NodeId>,
    /// Accusations collected towards evictions: target → accusers.
    evict_accusations: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Vgroups this member learned have dissolved (absorbed by a merge).
    /// In-flight walks are re-routed around links that still point at them;
    /// a walk forwarded to a departed vgroup would die there (no member left
    /// to relay it) and take a join or shuffle down with it.
    departed_groups: BTreeSet<VgroupId>,
    merging: bool,
}

impl Group {
    /// The group part of a membership that starts in `config`.
    pub(super) fn new(config: Configuration) -> Self {
        Group {
            config,
            applied_ops: BTreeSet::new(),
            outstanding_exchanges: BTreeMap::new(),
            reserved: BTreeMap::new(),
            evict_accusations: BTreeMap::new(),
            departed_groups: BTreeSet::new(),
            merging: false,
        }
    }

    /// The current configuration.
    pub(super) fn config(&self) -> &Configuration {
        &self.config
    }

    /// This membership as the broadcast plane and the local duties see it.
    pub(super) fn view<'a>(&'a self, me: NodeId, params: &'a Params) -> View<'a> {
        View {
            me,
            config: &self.config,
            params,
        }
    }

    /// The vgroups this member learned have dissolved.
    pub(super) fn departed(&self) -> &BTreeSet<VgroupId> {
        &self.departed_groups
    }

    /// `true` once the op with this digest was applied (never for a
    /// broadcast).
    pub(super) fn has_applied(&self, digest: Digest) -> bool {
        self.applied_ops.contains(&digest)
    }

    /// How many decided accusations `peer` has accumulated.
    pub(super) fn accusations(&self, peer: NodeId) -> usize {
        self.evict_accusations.get(&peer).map_or(0, BTreeSet::len)
    }

    /// Acts on an accepted group message from vgroup `source`, except
    /// gossip: walks, the exchange handshake, merge requests, and
    /// neighbour-table rewrites, the link-repair ones through the upkeep
    /// part.
    pub(super) fn on_payload(
        &mut self,
        source: VgroupId,
        source_comp: &Composition,
        payload: GroupPayload,
        cx: &mut Wiring<'_>,
    ) {
        match payload {
            GroupPayload::Walk(walk) => self.route_walk(walk, cx),
            GroupPayload::ExchangeOffer {
                walk,
                leaving,
                incoming,
            } => {
                if self.outstanding_exchanges.contains_key(&walk) {
                    // The partner is usually a random vgroup (not a
                    // neighbour), so its composition comes from the accepted
                    // group message itself.
                    let partner = self.config.neighbors.composition_of(source);
                    let op = GroupOp::CompleteExchange {
                        walk,
                        leaving,
                        incoming,
                        partner_composition: partner.unwrap_or(source_comp).clone(),
                    };
                    cx.propose(self, op);
                }
            }
            GroupPayload::ExchangeRefuse { walk } => {
                if self.outstanding_exchanges.remove(&walk).is_some() {
                    cx.session.stats_mut().exchanges.suppressed += 1;
                }
            }
            GroupPayload::ExchangeAccept {
                walk,
                given,
                adopted,
            } => {
                if self.reserved.contains_key(&walk) {
                    let op = GroupOp::FinishExchange {
                        walk,
                        given,
                        adopted,
                    };
                    cx.propose(self, op);
                }
            }
            GroupPayload::MergeRequest { from, members } => {
                cx.propose(self, GroupOp::AcceptMerge { from, members });
            }
            payload @ (GroupPayload::CompositionUpdate { .. }
            | GroupPayload::NeighborIntro { .. }
            | GroupPayload::CyclePatch { .. }) => {
                // The rewritten direction gets a fresh probing clock.
                if let Some((cycle, side)) = self.config.rewire(payload, cx.me, cx.now) {
                    cx.upkeep.reset_probe(cycle, side);
                }
            }
            payload @ (GroupPayload::LinkProbe { .. } | GroupPayload::LinkConfirm { .. }) => {
                let view = self.view(cx.me, cx.params);
                let upkeep = &mut cx.upkeep;
                if let Some((cycle, side)) =
                    upkeep.on_link_payload(&view, source, source_comp, payload, cx.effects)
                {
                    let prober = (source, source_comp.clone());
                    self.config.set_side(cycle, side, prober, false);
                }
            }
            // The broadcast plane's.
            GroupPayload::Gossip { .. } => {}
        }
    }

    /// Applies a decided operation. Re-application (possible across
    /// reconfigurations) is harmless: every branch checks current state
    /// before mutating. Ops to propose next go to `follow_ups`.
    pub(super) fn apply_op(
        &mut self,
        op: GroupOp,
        cx: &mut Wiring<'_>,
        follow_ups: &mut Vec<GroupOp>,
    ) {
        use atum_smr::SmrOp as _;
        let digest = op.digest();
        let broadcast = matches!(op, GroupOp::Broadcast { .. });
        if !broadcast && !self.applied_ops.insert(digest) {
            return;
        }
        cx.my_pending.retain(|(d, _)| *d != digest);
        let epoch_before = self.config.epoch;
        let me = cx.me;
        match op {
            GroupOp::HandleJoinRequest { joiner, rejoin, .. } => {
                atum_obs::trace_event!(
                    Join,
                    at = cx.now.as_micros(),
                    node = me.raw(),
                    slots = [joiner.raw(), self.config.vgroup.raw(), u64::from(rejoin)],
                    "HandleJoinRequest({}, rejoin={rejoin}) applied in vgroup {:?}",
                    joiner,
                    self.config.vgroup
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
                        walk: WalkId::new(self.config.vgroup, digest.as_u64() ^ self.config.epoch),
                    });
                } else {
                    let purpose = WalkPurpose::JoinPlacement { joiner };
                    self.start_walk(purpose, digest, cx);
                }
            }
            GroupOp::AdmitJoiner { joiner, .. } => {
                let comp = &self.config.composition;
                atum_obs::trace_event!(
                    Join,
                    at = cx.now.as_micros(),
                    node = me.raw(),
                    slots = [joiner.raw(), self.config.vgroup.raw(), comp.len() as u64],
                    "AdmitJoiner({}) in vgroup {:?} (inserted: {}, comp len {})",
                    joiner,
                    self.config.vgroup,
                    !comp.contains(joiner),
                    comp.len()
                );
                if self.config.composition.insert(joiner) {
                    self.reconfigured(cx);
                    self.start_shuffle(cx);
                    self.maybe_resize(cx);
                    // Welcomed after the resize: a joiner that tips the
                    // vgroup over `gmax` is welcomed into the half it lands
                    // in, not into a configuration the split already ended,
                    // which nobody would hold and whose engine it would run
                    // alone.
                    self.view(me, cx.params).send_welcome(joiner, cx.effects);
                }
            }
            GroupOp::Leave { node, .. } => {
                if self.config.composition.remove(node) {
                    if node == me {
                        cx.effects.push(Effect::MembershipEnded(Ending::Left));
                        return;
                    }
                    self.reconfigured(cx);
                    self.start_shuffle(cx);
                    self.maybe_resize(cx);
                }
            }
            GroupOp::Evict { node, accuser, .. } => {
                // Eviction needs corroboration from more than the fault bound
                // so a Byzantine minority cannot evict correct members.
                let composition = &self.config.composition;
                if !composition.contains(node) || !composition.contains(accuser) {
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
                    .filter(|(target, accs)| accs.len() >= 2 && composition.contains(**target))
                    .count();
                let effective = composition.len().saturating_sub(suspected).max(1);
                let needed = cx.params.smr.max_faults(effective) + 1;
                if accuser_count < needed && composition.len() > 1 {
                    return;
                }
                cx.session.stats_mut().evictions += 1;
                self.evict_accusations.remove(&node);
                if self.config.composition.remove(node) {
                    if node == me {
                        cx.effects.push(Effect::MembershipEnded(Ending::Evicted));
                        return;
                    }
                    self.reconfigured(cx);
                    self.start_shuffle(cx);
                    self.maybe_resize(cx);
                }
            }
            GroupOp::Broadcast { id, payload } => {
                // Decided, so not proposed again, if a reconfiguration
                // earlier in this batch moved it to the follow-ups.
                follow_ups.retain(|op| op.digest() != digest);
                let view = self.view(me, cx.params);
                let own = view.vgroup;
                cx.session
                    .on_broadcast(view, id, payload, 0, own, cx.now, cx.effects);
            }
            GroupOp::OfferExchange {
                walk,
                leaving,
                origin_composition,
            } => {
                // Pick a member that is not already reserved and is not us if
                // avoidable; refuse when nothing is available (suppressed
                // exchange).
                let composition = &self.config.composition;
                let reserved: BTreeSet<NodeId> = self.reserved.values().copied().collect();
                let free = || composition.iter().filter(|m| !reserved.contains(m));
                let candidate = free()
                    .nth((digest.as_u64() % composition.len().max(1) as u64) as usize)
                    .or_else(|| free().next());
                let reply = match candidate {
                    Some(member) if composition.len() > 1 || walk.origin != self.config.vgroup => {
                        self.reserved.insert(walk, member);
                        GroupPayload::ExchangeOffer {
                            walk,
                            leaving,
                            incoming: member,
                        }
                    }
                    _ => GroupPayload::ExchangeRefuse { walk },
                };
                let view = self.view(me, cx.params);
                view.send_group_message(&origin_composition, reply, cx.effects);
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
                let composition = &mut self.config.composition;
                if !composition.contains(leaving) || composition.contains(incoming) {
                    // The member already left (evicted / merged away); treat
                    // the exchange as suppressed.
                    cx.session.stats_mut().exchanges.suppressed += 1;
                    return;
                }
                cx.session.stats_mut().exchanges.completed += 1;
                composition.remove(leaving);
                composition.insert(incoming);
                self.exchanged(incoming, cx);
                let accept = GroupPayload::ExchangeAccept {
                    walk,
                    given: incoming,
                    adopted: leaving,
                };
                let view = self.view(me, cx.params);
                view.send_group_message(&partner_composition, accept, cx.effects);
                if leaving == me {
                    cx.effects
                        .push(Effect::MembershipEnded(Ending::Transferred));
                    return;
                }
                self.maybe_resize(cx);
            }
            GroupOp::FinishExchange {
                walk,
                given,
                adopted,
            } => {
                if self.reserved.remove(&walk).is_none() {
                    return;
                }
                let composition = &mut self.config.composition;
                if !composition.contains(given) || composition.contains(adopted) {
                    return;
                }
                composition.remove(given);
                composition.insert(adopted);
                self.exchanged(adopted, cx);
                if given == me {
                    cx.effects
                        .push(Effect::MembershipEnded(Ending::Transferred));
                    return;
                }
                self.maybe_resize(cx);
            }
            GroupOp::AcceptMerge { from, members } => {
                let mut changed = false;
                for &m in &members {
                    changed |= self.config.composition.insert(m);
                }
                if changed {
                    cx.collector.forget_source(from);
                    // The absorbed vgroup no longer exists: re-route walks
                    // around any overlay link that still points at it.
                    if self.departed_groups.len() < 1024 {
                        self.departed_groups.insert(from);
                        cx.upkeep.forget(from);
                    }
                    self.reconfigured(cx);
                    self.start_shuffle(cx);
                    self.maybe_resize(cx);
                    // After the resize, as for `AdmitJoiner`.
                    let view = self.view(me, cx.params);
                    for &m in &members {
                        view.send_welcome(m, cx.effects);
                    }
                }
            }
            GroupOp::InsertOverlayNeighbor {
                cycle,
                new_group,
                composition,
            } => {
                let sends = self
                    .config
                    .insert_successor(cycle, (new_group, composition));
                self.send_all(sends, cx);
            }
        }
        // If this operation reconfigured the vgroup, operations we proposed
        // into the old engine are gone; hand them to the caller so they are
        // re-proposed into the new configuration.
        if self.config.epoch != epoch_before && !cx.my_pending.is_empty() {
            let pending = std::mem::take(cx.my_pending);
            follow_ups.extend(pending.into_iter().map(|(_, op)| op));
        }
    }

    /// Sends each group message of `sends` to its vgroup.
    fn send_all(&self, sends: Vec<(Composition, GroupPayload)>, cx: &mut Wiring<'_>) {
        let view = self.view(cx.me, cx.params);
        for (to, payload) in sends {
            view.send_group_message(&to, payload, cx.effects);
        }
    }

    /// The tail of an exchange that swapped `incoming` into the
    /// composition: it is welcomed, then the new composition announced.
    fn exchanged(&mut self, incoming: NodeId, cx: &mut Wiring<'_>) {
        self.reconfigure(cx);
        let view = self.view(cx.me, cx.params);
        view.send_welcome(incoming, cx.effects);
        cx.upkeep.announce(&view, &self.departed_groups, cx.effects);
    }

    /// A decided composition change, announced.
    fn reconfigured(&mut self, cx: &mut Wiring<'_>) {
        self.reconfigure(cx);
        let view = self.view(cx.me, cx.params);
        cx.upkeep.announce(&view, &self.departed_groups, cx.effects);
    }

    /// A decided composition change: the next epoch, whose accusations
    /// only count members of the new composition, and the liveness part's
    /// reset.
    fn reconfigure(&mut self, cx: &mut Wiring<'_>) {
        let composition = &self.config.composition;
        self.evict_accusations.retain(|target, accusers| {
            accusers.retain(|a| composition.contains(*a));
            composition.contains(*target) && !accusers.is_empty()
        });
        self.config.epoch += 1;
        self.merging = false;
        let view = self.view(cx.me, cx.params);
        cx.liveness.reconfigure(&view, cx.registry, cx.now);
        // Deliberately no welcome blast here: re-welcoming every
        // not-yet-activated entry on each epoch bump was tried and turned
        // transient one-epoch lag (which a member resolves on its own once
        // the slot holding the reconfiguration closes, at most `f + 3`
        // rounds after it was proposed) into full state resets that wiped
        // exchange bookkeeping. Stragglers are caught up through the
        // period-gated priority path in the heartbeats and the epoch
        // carried on heartbeats instead.
    }

    // -------------------------------------------------------------- walks

    /// Starts a walk from this vgroup for `purpose`, seeded from the
    /// decided `seed` (see [`Configuration::walk`]).
    fn start_walk(&mut self, purpose: WalkPurpose, seed: Digest, cx: &mut Wiring<'_>) -> WalkId {
        let walk = self.config.walk(purpose, seed, cx.params.rwl);
        let id = walk.id;
        self.route_walk(walk, cx);
        id
    }

    /// Either forwards a walk one step (see [`Configuration::next_hop`])
    /// or, if it is complete, proposes what it was for: the walk was
    /// started here, or accepted from another vgroup by a majority of its
    /// copies.
    pub(super) fn route_walk(&mut self, mut walk: WalkState, cx: &mut Wiring<'_>) {
        let vgroup = self.config.vgroup;
        atum_obs::trace_event!(
            Walk,
            at = cx.now.as_micros(),
            node = cx.me.raw(),
            slots = [walk.id.seq, vgroup.raw(), u64::from(walk.is_complete())],
            "route_walk {:?} at vgroup {:?} complete={} purpose={:?}",
            walk.id,
            vgroup,
            walk.is_complete(),
            walk.purpose
        );
        if !walk.is_complete() {
            let Some((next, comp)) = self.config.next_hop(&walk, &self.departed_groups) else {
                // Isolated vgroup (bootstrap): the walk ends here.
                while !walk.is_complete() {
                    walk.advance();
                }
                return cx.propose(self, selected(walk));
            };
            walk.advance();
            if next == vgroup {
                // Self-loop edge: handle locally without a network round-trip.
                return self.route_walk(walk, cx);
            }
            let view = self.view(cx.me, cx.params);
            return view.send_group_message(comp, GroupPayload::Walk(walk), cx.effects);
        }
        cx.propose(self, selected(walk));
    }

    /// Link repair, part 2 (orphan re-insertion): nobody on the far side of
    /// each `orphaned` cycle acknowledges us (see `Upkeep::probe_links`) —
    /// walk to a random live vgroup and have it splice us in as its
    /// successor, re-using the split-anchor machinery
    /// (`InsertOverlayNeighbor` refuses self-insertion, so a walk that dies
    /// back at this vgroup is a no-op, not a self-loop).
    pub(super) fn reinsert(&mut self, (nonce, orphaned): (u64, Vec<u8>), cx: &mut Wiring<'_>) {
        for cycle in orphaned {
            let seed = self
                .config
                .seed(b"link-repair", &[&nonce.to_be_bytes(), &[cycle]]);
            let purpose = WalkPurpose::SplitAnchor {
                cycle,
                new_group: self.config.vgroup,
                composition: self.config.composition.clone(),
            };
            self.start_walk(purpose, seed, cx);
        }
    }

    // ----------------------------------------------- shuffles and resizes

    /// Starts a wave of the random walk shuffling of §3.2 (see
    /// [`Configuration::shuffle_wave`]), when the upkeep part's cadence
    /// lets it (see `Upkeep::shuffle_due`).
    fn start_shuffle(&mut self, cx: &mut Wiring<'_>) {
        if !cx.upkeep.shuffle_due(cx.now, cx.params) {
            return;
        }
        for member in self.config.shuffle_wave() {
            let seed = self.config.seed(b"shuffle", &[&member.raw().to_be_bytes()]);
            let purpose = WalkPurpose::ShuffleExchange { member };
            let walk_id = self.start_walk(purpose, seed, cx);
            self.outstanding_exchanges.insert(walk_id, member);
        }
    }

    /// Logarithmic grouping: split when too large, merge when too small.
    pub(super) fn maybe_resize(&mut self, cx: &mut Wiring<'_>) {
        let size = self.config.composition.len();
        if size > cx.params.gmax {
            self.split(cx);
        } else if size < cx.params.gmin && !self.merging {
            if let Some(sends) = self.config.merge_requests() {
                self.merging = true;
                self.send_all(sends, cx);
            }
        }
    }

    /// Splits this vgroup in two (see [`Configuration::split_halves`]).
    fn split(&mut self, cx: &mut Wiring<'_>) {
        let (keep, depart, new_group) = self.config.split_halves();
        if depart.contains(cx.me) {
            // This member moves to the new vgroup. It starts with a copy of
            // the old neighbour table; the anchor walks started by the
            // remaining half will introduce its real neighbours.
            self.config.vgroup = new_group;
            self.config.composition = depart;
            return self.reconfigured(cx);
        }
        self.config.composition = keep;
        self.reconfigured(cx);
        // One anchor walk per cycle inserts the new group into the overlay.
        for cycle in 0..cx.params.hc {
            let seed = self.config.seed(b"split-anchor", &[&[cycle]]);
            let purpose = WalkPurpose::SplitAnchor {
                cycle,
                new_group,
                composition: depart.clone(),
            };
            self.start_walk(purpose, seed, cx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Configuration, Group};

    impl Group {
        /// The configuration, for tests that rewire the overlay.
        pub(in crate::member) fn config_mut(&mut self) -> &mut Configuration {
            &mut self.config
        }
    }
}
