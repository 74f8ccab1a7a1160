//! The [`stateright_mini::Model`] binding: adversarial choices are the
//! transition relation, and the paper's overlay/membership invariants are
//! judged on a deterministically *settled* copy of each explored state.
//!
//! The invariants are eventual, not per-step: mid-surgery a link is
//! legitimately one-directional for a few messages. So each explored state
//! is first run to quiescence ([`WorldState::settle`]) — all in-flight
//! messages delivered, timers fired up to a horizon — and the four
//! properties are evaluated there. A violation therefore means "from this
//! adversarial prefix, the protocol can never recover on its own".

use crate::scenario::ScenarioConfig;
use crate::world::{WorldAction, WorldState};
use atum_types::VgroupId;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Hard backstop on settle length, against protocol livelock.
const MAX_SETTLE_EVENTS: usize = 50_000;

/// The four checked properties, evaluated together on one settled copy.
#[derive(Debug, Clone, Copy)]
pub struct Verdicts {
    /// Every recorded overlay link is recorded on both sides.
    pub links_bidirectional: bool,
    /// No vgroup is detached from the cycle graph.
    pub cycles_connected: bool,
    /// Members of the same vgroup agree on epoch and composition.
    pub epoch_agreement: bool,
    /// A broadcast from one member eventually reaches every member.
    pub broadcast_reach: bool,
}

/// Model-checker binding for an Atum scenario.
#[derive(Debug)]
pub struct AtumModel {
    /// The scenario being explored.
    pub config: ScenarioConfig,
    // The four properties share one settle per state: the checker calls them
    // in sequence on the same state, so a single-entry cache keyed by the
    // state's fingerprint removes the 4× settle cost.
    cache: RefCell<Option<(u128, Verdicts)>>,
}

impl AtumModel {
    /// Creates the model for a scenario.
    pub fn new(config: ScenarioConfig) -> Self {
        AtumModel {
            config,
            cache: RefCell::new(None),
        }
    }

    /// Settles `state` and evaluates all four properties (cached).
    pub fn verdicts(&self, state: &WorldState) -> Verdicts {
        let key = stateright_mini::fingerprint(state.canonical().as_bytes());
        if let Some((cached_key, verdicts)) = *self.cache.borrow() {
            if cached_key == key {
                return verdicts;
            }
        }
        let settled = state.settle(self.config.settle_horizon(), MAX_SETTLE_EVENTS);
        let verdicts = Verdicts {
            links_bidirectional: links_bidirectional(&settled),
            cycles_connected: cycles_connected(&settled),
            epoch_agreement: epoch_agreement(&settled),
            broadcast_reach: broadcast_reach(&settled, self.config),
        };
        *self.cache.borrow_mut() = Some((key, verdicts));
        verdicts
    }
}

impl stateright_mini::Model for AtumModel {
    type State = WorldState;
    type Action = WorldAction;

    fn init_states(&self) -> Vec<WorldState> {
        vec![self.config.build()]
    }

    fn actions(&self, state: &WorldState, actions: &mut Vec<WorldAction>) {
        state.enabled_actions(actions);
    }

    fn next_state(&self, state: &WorldState, action: &WorldAction) -> Option<WorldState> {
        let mut next = state.clone();
        next.apply(action).then_some(next)
    }

    fn canonicalize(&self, state: &WorldState) -> String {
        state.canonical()
    }

    fn properties(&self) -> Vec<stateright_mini::Property<Self>> {
        vec![
            stateright_mini::Property::always("links_bidirectional", |model: &Self, state| {
                model.verdicts(state).links_bidirectional
            }),
            stateright_mini::Property::always("cycles_connected", |model: &Self, state| {
                model.verdicts(state).cycles_connected
            }),
            stateright_mini::Property::always("epoch_agreement", |model: &Self, state| {
                model.verdicts(state).epoch_agreement
            }),
            stateright_mini::Property::always("broadcast_reach", |model: &Self, state| {
                model.verdicts(state).broadcast_reach
            }),
        ]
    }
}

/// Live members grouped by their vgroup.
fn groups(world: &WorldState) -> BTreeMap<VgroupId, Vec<atum_types::NodeId>> {
    let mut out: BTreeMap<VgroupId, Vec<atum_types::NodeId>> = BTreeMap::new();
    for (&id, slot) in &world.nodes {
        if !slot.is_live() {
            continue;
        }
        if let Some(member) = slot.node.member() {
            out.entry(member.config().vgroup).or_default().push(id);
        }
    }
    out
}

/// H-graph link bidirectionality: if any member of group `g` records `p` as
/// its cycle-`c` predecessor, some member of `p` must record `g` as its
/// cycle-`c` successor (and symmetrically). A pointer to a vgroup with no
/// live members is equally a violation — that is the orphaned/stale pointer
/// the link surgery hole leaves behind.
fn links_bidirectional(world: &WorldState) -> bool {
    let by_group = groups(world);
    // (group, cycle) → (set of successors recorded by its members, set of
    // predecessors recorded by its members).
    let mut recorded: BTreeMap<(VgroupId, usize), (BTreeSet<VgroupId>, BTreeSet<VgroupId>)> =
        BTreeMap::new();
    for members in by_group.values() {
        for &id in members {
            let member = world.nodes[&id].node.member().expect("grouped member");
            let member = member.config();
            for cycle in 0..member.neighbors.cycle_count() {
                if let Some(entry) = member.neighbors.cycle(cycle) {
                    let slot = recorded.entry((member.vgroup, cycle)).or_default();
                    slot.0.insert(entry.successor);
                    slot.1.insert(entry.predecessor);
                }
            }
        }
    }
    for (&(group, cycle), (successors, predecessors)) in &recorded {
        for &succ in successors {
            if succ == group {
                continue;
            }
            let reciprocated = recorded
                .get(&(succ, cycle))
                .is_some_and(|(_, their_preds)| their_preds.contains(&group));
            if !reciprocated {
                return false;
            }
        }
        for &pred in predecessors {
            if pred == group {
                continue;
            }
            let reciprocated = recorded
                .get(&(pred, cycle))
                .is_some_and(|(their_succs, _)| their_succs.contains(&group));
            if !reciprocated {
                return false;
            }
        }
    }
    true
}

/// Cycle connectivity: treating recorded links as undirected edges between
/// vgroups that actually have live members, every vgroup must be reachable
/// from every other — no vgroup may be orphaned out of the overlay.
fn cycles_connected(world: &WorldState) -> bool {
    let by_group = groups(world);
    let vgroups: BTreeSet<VgroupId> = by_group.keys().copied().collect();
    if vgroups.len() <= 1 {
        return true;
    }
    let mut edges: BTreeMap<VgroupId, BTreeSet<VgroupId>> = BTreeMap::new();
    for (&group, members) in &by_group {
        for &id in members {
            let member = world.nodes[&id].node.member().expect("grouped member");
            let member = member.config();
            for cycle in 0..member.neighbors.cycle_count() {
                if let Some(entry) = member.neighbors.cycle(cycle) {
                    for other in [entry.predecessor, entry.successor] {
                        if other != group && vgroups.contains(&other) {
                            edges.entry(group).or_default().insert(other);
                            edges.entry(other).or_default().insert(group);
                        }
                    }
                }
            }
        }
    }
    let start = *vgroups.iter().next().expect("at least two vgroups");
    let mut seen = BTreeSet::from([start]);
    let mut frontier = vec![start];
    while let Some(group) = frontier.pop() {
        if let Some(next) = edges.get(&group) {
            for &other in next {
                if seen.insert(other) {
                    frontier.push(other);
                }
            }
        }
    }
    seen.len() == vgroups.len()
}

/// Epoch agreement at quiescence: all live members of the same vgroup agree
/// on its configuration epoch and its composition.
fn epoch_agreement(world: &WorldState) -> bool {
    for members in groups(world).values() {
        let mut reference: Option<(u64, &atum_types::Composition)> = None;
        for &id in members {
            let member = world.nodes[&id].node.member().expect("grouped member");
            let member = member.config();
            match reference {
                None => reference = Some((member.epoch, &member.composition)),
                Some((epoch, composition)) => {
                    if member.epoch != epoch || member.composition != *composition {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// No permanently starved vgroup: a broadcast started by the smallest live
/// member after quiescence reaches every live member once the world settles
/// again. This is the end-to-end consequence of overlay health — an
/// orphaned vgroup, or a one-directional link on the only path, starves
/// someone forever.
fn broadcast_reach(settled: &WorldState, config: ScenarioConfig) -> bool {
    let members = settled.live_members();
    let Some(&origin) = members.first() else {
        // Nobody is a member: vacuously unreachable, flagged by the other
        // properties (epoch agreement also sees no groups); treat as pass.
        return true;
    };
    // Only nodes that were members when the broadcast started owe us a
    // delivery: a node mid-rejoin at broadcast time (e.g. shuffled out and
    // re-admitted during the probe settle) legitimately never sees it.
    let eligible: BTreeSet<atum_types::NodeId> = members.into_iter().collect();
    let payload = b"mcheck-reach-probe".to_vec();
    let mut probe_world = settled.clone();
    probe_world.broadcast_from(origin, payload.clone());
    let probe_world = probe_world.settle(config.settle_horizon(), MAX_SETTLE_EVENTS);
    probe_world
        .live_members()
        .into_iter()
        .filter(|id| eligible.contains(id))
        .all(|id| {
            probe_world.nodes[&id]
                .node
                .app()
                .delivered_payloads()
                .contains(&payload)
        })
}
