//! The model checker's world: a small cluster of *real* [`AtumNode`] state
//! machines, the in-flight messages between them, and their pending timers.
//!
//! The world is driven through the same runtime-neutral surface the simulator
//! and the TCP runtime use ([`Context::for_runtime`] + [`ContextEffects`]),
//! so the protocol code being checked is byte-for-byte the code that ships,
//! and applies a callback's effects in the same order: sends, then timers.
//! Unlike the discrete-event simulator — which imposes one latency-ordered
//! schedule per seed — the checker treats delivery order, timer firing order
//! and a bounded budget of message drops/duplications as *nondeterministic
//! choices* and explores their interleavings.

use atum_core::message::AtumMessage;
use atum_core::{AtumNode, CollectingApp, Configuration};
use atum_simnet::{Context, ContextEffects, Node};
use atum_types::{Duration, Instant, NodeId, Params};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One hosted node plus the per-node runtime bookkeeping the simulator would
/// normally keep (RNG stream, timer table).
#[derive(Clone, Debug)]
pub struct NodeSlot {
    /// The real protocol state machine under test.
    pub node: AtumNode<CollectingApp>,
    rng: ChaCha8Rng,
    /// Timers this node has armed so far: the next timer's arming sequence.
    timers_armed: u64,
    /// Armed timers: (fire time, arming sequence) → tag. The first entry
    /// fires next; timers due at one instant fire in the order they were
    /// armed.
    timers: BTreeMap<(Instant, u64), u64>,
    /// Fault injection: a crashed node receives nothing and fires nothing.
    crashed: bool,
}

impl NodeSlot {
    fn new(node: AtumNode<CollectingApp>, seed: u64) -> Self {
        let id = node.id();
        NodeSlot {
            node,
            // Same per-node stream derivation for every run of a scenario:
            // determinism is what makes traces replayable.
            rng: ChaCha8Rng::seed_from_u64(seed ^ id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            timers_armed: 0,
            timers: BTreeMap::new(),
            crashed: false,
        }
    }

    /// `true` while the node participates in the protocol.
    pub fn is_live(&self) -> bool {
        !self.crashed
    }

    /// Deadline of the timer that fires next.
    fn next_deadline(&self) -> Option<Instant> {
        self.timers.first_key_value().map(|(&(at, _), _)| at)
    }
}

/// One adversarial choice the checker can make in a state. This is the unit
/// of counterexample traces: a sequence of actions replayed from a scenario's
/// initial state deterministically reproduces a violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorldAction {
    /// Deliver the head-of-line message of the `from → to` channel.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Drop the head-of-line message of the `from → to` channel (consumes
    /// one unit of the drop budget).
    Drop {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Duplicate the head-of-line message of the `from → to` channel: a
    /// second copy is appended to the channel (consumes one unit of the
    /// duplication budget).
    Duplicate {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Fire `node`'s earliest armed timer, advancing the global clock to its
    /// deadline. Only enabled for nodes whose earliest deadline equals the
    /// global minimum, so simulated time advances fairly.
    FireTimer {
        /// The node whose timer fires.
        node: NodeId,
    },
}

/// The global state the checker explores: nodes, channels, clock, budgets.
#[derive(Clone, Debug)]
pub struct WorldState {
    /// Simulated clock, advanced by timer firings.
    pub now: Instant,
    /// All hosted nodes.
    pub nodes: BTreeMap<NodeId, NodeSlot>,
    /// FIFO per ordered node pair. Per-channel order is preserved (TCP-like);
    /// cross-channel order is the nondeterminism being explored. A channel
    /// leaves the map when its last message is taken, so every queue here
    /// holds at least one.
    pub channels: BTreeMap<(NodeId, NodeId), VecDeque<AtumMessage>>,
    /// Remaining message drops the adversary may inject.
    pub drops_left: u32,
    /// Remaining message duplications the adversary may inject.
    pub dups_left: u32,
}

impl WorldState {
    /// Creates an empty world starting at time zero.
    pub fn new(drop_budget: u32, dup_budget: u32) -> Self {
        WorldState {
            now: Instant::ZERO,
            nodes: BTreeMap::new(),
            channels: BTreeMap::new(),
            drops_left: drop_budget,
            dups_left: dup_budget,
        }
    }

    /// Adds a node and runs its `on_start` callback (arming its maintenance
    /// timer) — the same sequence the simulator performs on `add_node`.
    pub fn add_node(&mut self, node: AtumNode<CollectingApp>, seed: u64) {
        let id = node.id();
        self.nodes.insert(id, NodeSlot::new(node, seed));
        self.with_node(id, |n, ctx| n.on_start(ctx));
    }

    /// Marks a node as crashed: its queued and future messages are discarded
    /// and its timers never fire.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(&id) {
            slot.crashed = true;
            slot.timers.clear();
        }
        self.channels.retain(|&(_, to), _| to != id);
    }

    /// Runs one callback on a node through the runtime-neutral context and
    /// applies the effects it buffered (sends → channels, timers → the
    /// node's timer table), in the order the `atum-simnet` contract
    /// specifies.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut AtumNode<CollectingApp>, &mut Context<'_, AtumMessage>) -> R,
    ) -> Option<R> {
        let now = self.now;
        let slot = self.nodes.get_mut(&id)?;
        if !slot.is_live() {
            return None;
        }
        let mut ctx = Context::for_runtime(id, now, &mut slot.rng, ContextEffects::new());
        let result = f(&mut slot.node, &mut ctx);
        let effects = ctx.into_effects();
        // Sends, then timers. They land in different places (the channels,
        // the node's timer table), so their order changes nothing explored.
        for out in effects.outbox {
            let deliverable = self
                .nodes
                .get(&out.to)
                .is_some_and(|target| target.is_live());
            if deliverable {
                self.channels
                    .entry((id, out.to))
                    .or_default()
                    .push_back(out.msg);
            }
        }
        let slot = self.nodes.get_mut(&id).expect("slot exists");
        for request in &effects.new_timers {
            let armed = (now + request.delay, slot.timers_armed);
            slot.timers.insert(armed, request.tag);
            slot.timers_armed += 1;
        }
        Some(result)
    }

    /// Enqueues a message as if `from` had sent it (used by scenarios to
    /// seed in-flight traffic, e.g. the CyclePatch copies of a surgery in
    /// progress).
    pub fn enqueue(&mut self, from: NodeId, to: NodeId, msg: AtumMessage) {
        let deliverable = self.nodes.get(&to).is_some_and(|t| t.is_live());
        if deliverable {
            self.channels.entry((from, to)).or_default().push_back(msg);
        }
    }

    /// The globally earliest timer deadline among live nodes.
    fn min_timer_deadline(&self) -> Option<Instant> {
        self.nodes
            .values()
            .filter(|slot| slot.is_live())
            .filter_map(NodeSlot::next_deadline)
            .min()
    }

    /// Appends every enabled action to `actions`, in deterministic order:
    /// deliveries (by channel key), then drops, then duplications, then
    /// timer firings (by node id).
    pub fn enabled_actions(&self, actions: &mut Vec<WorldAction>) {
        for &(from, to) in self.channels.keys() {
            actions.push(WorldAction::Deliver { from, to });
        }
        if self.drops_left > 0 {
            for &(from, to) in self.channels.keys() {
                actions.push(WorldAction::Drop { from, to });
            }
        }
        if self.dups_left > 0 {
            for &(from, to) in self.channels.keys() {
                actions.push(WorldAction::Duplicate { from, to });
            }
        }
        if let Some(min_deadline) = self.min_timer_deadline() {
            for (&id, slot) in &self.nodes {
                if slot.is_live() && slot.next_deadline() == Some(min_deadline) {
                    actions.push(WorldAction::FireTimer { node: id });
                }
            }
        }
    }

    /// Applies one action in place. Returns `false` when the action was not
    /// enabled (empty channel, exhausted budget, no timer): callers treat
    /// that as a pruned branch.
    pub fn apply(&mut self, action: &WorldAction) -> bool {
        match *action {
            WorldAction::Deliver { from, to } => {
                let Some(msg) = self.take_head(from, to) else {
                    return false;
                };
                self.with_node(to, |n, ctx| n.on_message(from, msg, ctx));
                true
            }
            WorldAction::Drop { from, to } => {
                if self.drops_left == 0 {
                    return false;
                }
                let dropped = self.take_head(from, to).is_some();
                if dropped {
                    self.drops_left -= 1;
                }
                dropped
            }
            WorldAction::Duplicate { from, to } => {
                if self.dups_left == 0 {
                    return false;
                }
                let Some(queue) = self.channels.get_mut(&(from, to)) else {
                    return false;
                };
                let Some(front) = queue.front().cloned() else {
                    return false;
                };
                queue.push_back(front);
                self.dups_left -= 1;
                true
            }
            WorldAction::FireTimer { node } => {
                let Some(((fire_at, _), tag)) = self
                    .nodes
                    .get_mut(&node)
                    .filter(|slot| slot.is_live())
                    .and_then(|slot| slot.timers.pop_first())
                else {
                    return false;
                };
                if fire_at > self.now {
                    self.now = fire_at;
                }
                self.with_node(node, |n, ctx| n.on_timer(tag, ctx));
                true
            }
        }
    }

    /// Takes the head-of-line message of the `from → to` channel, removing
    /// the channel once it is empty.
    fn take_head(&mut self, from: NodeId, to: NodeId) -> Option<AtumMessage> {
        let queue = self.channels.get_mut(&(from, to))?;
        let msg = queue.pop_front();
        if queue.is_empty() {
            self.channels.remove(&(from, to));
        }
        msg
    }

    /// Runs the world *deterministically* to quiescence: deliver every
    /// in-flight message (smallest channel first), then fire the earliest
    /// timer, until no message is in flight and the clock would pass
    /// `now + horizon`. `max_events` is a hard backstop against livelock.
    ///
    /// This is how properties are evaluated: the adversarial prefix the
    /// checker explored leaves the world mid-protocol, and the invariants
    /// of the paper (bidirectional links, connectivity, epoch agreement)
    /// are *eventual* — they must hold once the protocol has been allowed
    /// to finish reacting, not in every transient state.
    pub fn settle(&self, horizon: Duration, max_events: usize) -> WorldState {
        let mut world = self.clone();
        let deadline = world.now + horizon;
        for _ in 0..max_events {
            if let Some(&(from, to)) = world.channels.keys().next() {
                world.apply(&WorldAction::Deliver { from, to });
                continue;
            }
            match world.min_timer_deadline() {
                Some(at) if at <= deadline => {
                    let node = world
                        .nodes
                        .iter()
                        .find(|(_, slot)| slot.is_live() && slot.next_deadline() == Some(at))
                        .map(|(&id, _)| id)
                        .expect("a node owns the minimum deadline");
                    world.apply(&WorldAction::FireTimer { node });
                }
                _ => break,
            }
        }
        world
    }

    /// Canonical text rendering of the whole world, fingerprinted by the
    /// checker for visited-state deduplication. Covers everything that can
    /// influence future behaviour: clock, budgets, every node's protocol
    /// state, armed timers, and in-flight messages.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "now:{:?} drops:{} dups:{}",
            self.now, self.drops_left, self.dups_left
        )
        .expect("writing to a String cannot fail");
        for (id, slot) in &self.nodes {
            write!(
                out,
                "\nnode {id}: crashed:{} timers:{:?} armed:{} {}",
                slot.crashed,
                slot.timers,
                slot.timers_armed,
                slot.node.canonical_state()
            )
            .expect("writing to a String cannot fail");
        }
        for (&(from, to), queue) in &self.channels {
            write!(out, "\nchan {from}->{to}: {queue:?}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Ids of nodes that are live, full members of some vgroup.
    pub fn live_members(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, slot)| slot.is_live() && slot.node.is_member())
            .map(|(&id, _)| id)
            .collect()
    }

    /// Instructs `id` to broadcast `payload` (API call, like a test driver
    /// would through the simulator).
    pub fn broadcast_from(&mut self, id: NodeId, payload: Vec<u8>) {
        self.with_node(id, |n, ctx| {
            let _ = n.broadcast(payload, ctx);
        });
    }

    /// Parameters-independent sanity hook used by scenarios: runs `join` on
    /// an idle node against `contact`.
    pub fn join_via(&mut self, id: NodeId, contact: NodeId) {
        self.with_node(id, |n, ctx| {
            let _ = n.join(contact, ctx);
        });
    }
}

/// Shared helper: deterministic key registry covering `ids`.
pub fn registry_for(ids: &[NodeId]) -> std::sync::Arc<atum_crypto::KeyRegistry> {
    let mut registry = atum_crypto::KeyRegistry::new();
    for &id in ids {
        registry.register(id, 9);
    }
    registry.shared()
}

/// Shared helper: a fresh member-mode node.
#[allow(clippy::too_many_arguments)]
pub fn member_node(
    id: NodeId,
    params: &Params,
    registry: &std::sync::Arc<atum_crypto::KeyRegistry>,
    vgroup: atum_types::VgroupId,
    composition: atum_types::Composition,
    neighbors: atum_overlay::NeighborTable,
    epoch: u64,
) -> AtumNode<CollectingApp> {
    let config = Configuration {
        vgroup,
        composition,
        neighbors,
        epoch,
    };
    let app = CollectingApp::new();
    AtumNode::with_membership(id, params.clone(), registry.clone(), app, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};

    /// The tags of `id`'s armed timers, sorted by tag: what is still to fire.
    fn armed_tags(world: &WorldState, id: NodeId) -> Vec<u64> {
        let mut tags: Vec<u64> = world.nodes[&id].timers.values().copied().collect();
        tags.sort_unstable();
        tags
    }

    /// `FireTimer` fires a node's earliest timer, and of timers due at one
    /// instant the one armed first — whatever their tags.
    #[test]
    fn fire_timer_takes_the_earliest_then_the_first_armed() {
        let mut world = ScenarioConfig::new(Scenario::MergeCollapse).build();
        let start = world.now;
        let (&id, _) = world
            .nodes
            .iter()
            .find(|(_, slot)| slot.is_live())
            .expect("a live node");
        // `on_start` armed the node's maintenance timer (tag 1), due long
        // after these; `AtumNode` ignores every other tag.
        world.with_node(id, |_n, ctx| {
            ctx.set_timer(Duration::from_micros(2), 11);
            ctx.set_timer(Duration::from_micros(2), 10);
            ctx.set_timer(Duration::from_micros(1), 12);
        });
        assert_eq!(armed_tags(&world, id), vec![1, 10, 11, 12]);
        let fire = WorldAction::FireTimer { node: id };

        assert!(world.apply(&fire));
        assert_eq!(world.now, start + Duration::from_micros(1));
        assert_eq!(armed_tags(&world, id), vec![1, 10, 11]);

        assert!(world.apply(&fire));
        assert_eq!(world.now, start + Duration::from_micros(2));
        assert_eq!(armed_tags(&world, id), vec![1, 10]);

        assert!(world.apply(&fire));
        assert_eq!(world.now, start + Duration::from_micros(2));
        assert_eq!(armed_tags(&world, id), vec![1]);
    }
}
