//! The upkeep part of a membership: the overlay maintenance each member runs
//! on its own clock — composition announcements, link probes and the
//! shuffle cadence (see the [parent module](super)).

use super::Effect;
use crate::broadcast::View;
use crate::message::GroupPayload;
use atum_types::{Composition, Instant, Params, VgroupId};
use std::collections::{BTreeMap, BTreeSet};

/// Overlay upkeep: announcements, link probes and the shuffle cadence.
#[derive(Debug, Clone, Default)]
pub(super) struct Upkeep {
    /// Vgroups whose accepted group messages this member recently received,
    /// with the composition their envelopes claimed and when. This is the
    /// *reverse* edge of the overlay as observed from traffic: splits and
    /// merges can leave a link one-directional (X still forwards to us, but
    /// our table no longer lists X), and a vgroup X we never announce to
    /// keeps addressing us through an ever-staler composition until our
    /// newer members stop receiving copies at all. Announcing to
    /// correspondents as well as table neighbours closes the loop (see
    /// [`Self::announce`]). Bounded and pruned by age.
    correspondents: BTreeMap<VgroupId, (Composition, Instant)>,
    /// When this member last ran the periodic composition anti-entropy (see
    /// [`Self::announce_due`]).
    last_announce: Instant,
    /// Link-repair bookkeeping: consecutive unanswered bidirectionality
    /// probes per `(cycle, toward_successor)` direction. A probe rides the
    /// announce cadence; a [`GroupPayload::LinkConfirm`] (or any rewrite of
    /// that direction's table entry) resets the counter. Several consecutive
    /// unanswered probes mean the far side no longer links back — the
    /// symptom of split/merge surgery racing churn — and trigger an orphan
    /// re-insertion walk. Empty when `params.link_repair` is off.
    link_probes: BTreeMap<(u8, bool), u32>,
    /// When this member last launched shuffle walks (see
    /// [`Self::shuffle_due`]).
    last_shuffle: Option<Instant>,
}

impl Upkeep {
    /// Consecutive unanswered probes per direction before a link is declared
    /// dead and an orphan re-insertion walk is launched.
    const LINK_PROBE_PATIENCE: u32 = 3;

    /// The upkeep of a membership that starts `now`.
    pub(super) fn new(now: Instant) -> Self {
        Upkeep {
            last_announce: now,
            ..Upkeep::default()
        }
    }

    /// The upkeep of a newer configuration of the same vgroup, starting
    /// `now`: the traffic-observed reverse links are still ours to answer.
    pub(super) fn carried_over(self, now: Instant) -> Self {
        Upkeep {
            correspondents: self.correspondents,
            ..Self::new(now)
        }
    }

    /// Remembers that `group` sent this vgroup accepted traffic, with the
    /// composition its envelope claimed. Bounded: the oldest entry is
    /// evicted beyond 32 correspondents (far above any real neighbourhood).
    pub(super) fn note_correspondent(
        &mut self,
        group: VgroupId,
        composition: Composition,
        departed: &BTreeSet<VgroupId>,
        now: Instant,
    ) {
        if departed.contains(&group) {
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

    /// Forgets a correspondent that dissolved (absorbed by a merge).
    pub(super) fn forget(&mut self, group: VgroupId) {
        self.correspondents.remove(&group);
    }

    /// Announces this vgroup's composition to every overlay neighbour *and*
    /// every recent correspondent, except the `departed` vgroups.
    ///
    /// The correspondent half is what heals one-directional links: a vgroup
    /// that keeps forwarding to us without appearing in our table would
    /// otherwise never learn our membership changed, and its stale
    /// addressing would permanently starve our newer members of gossip.
    /// Called on every composition change and periodically (see
    /// [`Self::announce_due`]).
    pub(super) fn announce(
        &self,
        view: &View<'_>,
        departed: &BTreeSet<VgroupId>,
        effects: &mut Vec<Effect>,
    ) {
        let payload = GroupPayload::CompositionUpdate {
            group: view.vgroup,
            composition: view.composition.clone(),
        };
        let mut targets = view.neighbors.distinct_neighbors();
        for (group, (comp, _)) in &self.correspondents {
            targets.entry(*group).or_insert_with(|| comp.clone());
        }
        for (group, comp) in targets {
            if departed.contains(&group) {
                continue;
            }
            view.send_group_message(&comp, payload.clone(), effects);
        }
    }

    /// `true`, once every two heartbeat periods, when the composition
    /// anti-entropy is due: neighbour views must converge even while the
    /// overlay is quiescent (the on-change announcements cover the churny
    /// stretches). Correspondent entries that stayed silent for eight
    /// periods have dissolved or moved on and are dropped then.
    pub(super) fn announce_due(&mut self, now: Instant, params: &Params) -> bool {
        let period = params.heartbeat_period;
        if now.saturating_since(self.last_announce) < period.saturating_mul(2) {
            return false;
        }
        self.last_announce = now;
        let stale_after = period.saturating_mul(8);
        self.correspondents
            .retain(|_, (_, heard)| now.saturating_since(*heard) <= stale_after);
        true
    }

    /// `true` when a wave of the random walk shuffling of §3.2 may start.
    /// Damped by local time: under churn every exchange reconfigures two
    /// vgroups, and launching a fresh set of walks on every reconfiguration
    /// feeds back into more reconfigurations until joins and leaves starve.
    /// The time gate is a local heuristic, so members of one vgroup can
    /// disagree on whether a wave launched — that is fail-safe, not
    /// fork-prone: a walk launched by a minority never assembles a majority
    /// of copies at its first hop and dies there, costing only that wave (an
    /// epoch-derived gate was tried instead and made shuffles fire
    /// synchronously with splits, which is far worse — see CHANGES.md PR 1).
    pub(super) fn shuffle_due(&mut self, now: Instant, params: &Params) -> bool {
        let min_gap = params.round.saturating_mul(8);
        if self
            .last_shuffle
            .is_some_and(|last| now.saturating_since(last) < min_gap)
        {
            return false;
        }
        self.last_shuffle = Some(now);
        true
    }

    /// The rewritten `(cycle, toward_successor)` direction gets a fresh
    /// probing clock.
    pub(super) fn reset_probe(&mut self, cycle: u8, toward_successor: bool) {
        self.link_probes.remove(&(cycle, toward_successor));
    }

    /// Link repair, part 1 (probing): at the announce cadence, ask every
    /// cycle neighbour whether it links back to us. Overlay surgery (split
    /// insertion, merge cycle-patching) racing admission churn can leave a
    /// link one-directional — our table names a successor whose own table
    /// still names our *old* neighbour as predecessor (its `CyclePatch`
    /// majority never assembled). A probe carries our far-side neighbour as
    /// evidence so the receiver can tell "stale entry, adopt the prober"
    /// from "genuine disagreement, re-point the prober" (see
    /// [`Self::on_link_payload`]). A direction that stays unanswered for
    /// [`Self::LINK_PROBE_PATIENCE`] rounds means nobody on the far side
    /// links back at all: this vgroup has been orphaned from the cycle.
    /// Returns the probe nonce and those cycles, for the group part to
    /// re-insert this vgroup into (part 2).
    ///
    /// Every member probes independently on its own clock; the receiver's
    /// majority collector aggregates the per-member copies exactly as it
    /// does for composition announcements. The nonce (announce-period
    /// bucket) keeps successive rounds distinct, so a round is not
    /// swallowed by the receiver's accepted-duplicate cache.
    pub(super) fn probe_links(
        &mut self,
        view: &View<'_>,
        departed: &BTreeSet<VgroupId>,
        now: Instant,
        effects: &mut Vec<Effect>,
    ) -> (u64, Vec<u8>) {
        let announce = view.params.heartbeat_period.saturating_mul(2);
        let nonce = now.as_micros() / announce.as_micros().max(1);
        let neighbors = &view.neighbors;
        let mut orphaned: Vec<u8> = Vec::new();
        for cycle_idx in 0..neighbors.cycle_count() {
            let Some(entry) = neighbors.cycle(cycle_idx) else {
                continue;
            };
            let cycle = cycle_idx as u8;
            let directions = [
                (
                    true,
                    entry.successor,
                    &entry.successor_composition,
                    entry.predecessor,
                ),
                (
                    false,
                    entry.predecessor,
                    &entry.predecessor_composition,
                    entry.successor,
                ),
            ];
            for (toward_successor, target, comp, far) in directions {
                if target == view.vgroup || departed.contains(&target) {
                    // Self-loops (bootstrap) and links already known dead
                    // are not probed; the latter are re-routed by walks.
                    self.reset_probe(cycle, toward_successor);
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
                let comp = neighbors.composition_of(target).unwrap_or(comp);
                let probe = GroupPayload::LinkProbe {
                    cycle,
                    sender_is_predecessor: toward_successor,
                    far_neighbor: far,
                    nonce,
                };
                view.send_group_message(comp, probe, effects);
            }
        }
        (nonce, orphaned)
    }

    /// Acts on a link-repair payload from vgroup `source`. A
    /// [`GroupPayload::LinkConfirm`] is the echo of our own probe: the
    /// direction we probed is the one the claim was made for (we claimed to
    /// be the far side's predecessor exactly when probing towards our
    /// successor). A [`GroupPayload::LinkProbe`] is answered (link repair,
    /// see [`Self::probe_links`]): the prober claims an overlay relation
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
    ///
    /// Returns the `(cycle, successor)` side to point at the prober in
    /// case 2; the group part owns the table.
    pub(super) fn on_link_payload(
        &mut self,
        view: &View<'_>,
        source: VgroupId,
        source_comp: &Composition,
        payload: GroupPayload,
        effects: &mut Vec<Effect>,
    ) -> Option<(u8, bool)> {
        let (cycle, sender_is_predecessor, far_neighbor, nonce) = match payload {
            GroupPayload::LinkProbe {
                cycle,
                sender_is_predecessor,
                far_neighbor,
                nonce,
            } => (cycle, sender_is_predecessor, far_neighbor, nonce),
            GroupPayload::LinkConfirm {
                cycle,
                sender_is_predecessor,
                ..
            } => {
                self.reset_probe(cycle, sender_is_predecessor);
                return None;
            }
            _ => return None,
        };
        let entry = view.neighbors.cycle(cycle as usize)?;
        let (ours, ours_comp) = if sender_is_predecessor {
            (entry.predecessor, &entry.predecessor_composition)
        } else {
            (entry.successor, &entry.successor_composition)
        };
        let confirm = GroupPayload::LinkConfirm {
            cycle,
            sender_is_predecessor,
            nonce,
        };
        if ours == source {
            view.send_group_message(source_comp, confirm, effects);
            return None;
        }
        if ours == far_neighbor || ours == view.vgroup {
            // Stale or self-looped entry superseded by the prober's view:
            // either we still point at the vgroup the prober knows as its
            // *other* neighbour (we missed the patch that should have
            // re-pointed us at the prober), or we point at ourselves (our
            // entry was never initialised for this link). Adopt the prober.
            self.reset_probe(cycle, !sender_is_predecessor);
            view.send_group_message(source_comp, confirm, effects);
            return Some((cycle, !sender_is_predecessor));
        }
        // Disagreement: our table holds someone else between us. Point the
        // prober at them; its next probe goes to that vgroup and the chain
        // re-links one pair at a time.
        let patch = GroupPayload::CyclePatch {
            cycle,
            // The prober probed towards its successor iff it claimed to be
            // our predecessor; that is the direction it must re-point.
            new_is_successor: sender_is_predecessor,
            group: ours,
            composition: ours_comp.clone(),
        };
        view.send_group_message(source_comp, patch, effects);
        None
    }
}
