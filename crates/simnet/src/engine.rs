//! The discrete-event simulation engine.
//!
//! Events run in `(at, push order)` order: earliest simulated time first,
//! and among events due at the same time, the one queued first. That order
//! is the engine's whole determinism contract; the `queue` module keeps it
//! without a sequence number. Time never runs backwards: nothing is queued
//! before `now`, and running up to a limit never advances the queue past it.

use crate::latency::NetConfig;
use crate::node::{Context, ContextEffects, Node, OutboundMessage, TimerRequest};
use crate::queue::EventQueue;
use crate::stats::NetStats;
use atum_types::{Duration, Instant, NodeId, WireSize};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Boxed external call executed against a node by the harness.
type NodeCall<M, N> = Box<dyn FnOnce(&mut N, &mut Context<'_, M>) + Send>;

/// Type of a queued event.
enum EventKind<M, N> {
    /// Deliver a message.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        size: usize,
    },
    /// Fire a timer at a node.
    Timer { node: NodeId, tag: u64 },
    /// Run an external call against a node (harness-driven API invocation).
    Call { node: NodeId, f: NodeCall<M, N> },
    /// Start a node (runs `on_start`).
    Start { node: NodeId },
}

/// One queued event, alone on a 64-byte cache line: a pop reads one line
/// and a push writes one. With a message of at most 40 bytes that has a
/// spare tag value (a niche), `Deliver` fills the line exactly and both
/// enum tags live in the message's; a larger message, or one without a
/// niche, makes the slot two lines.
#[repr(align(64))]
struct EventSlot<M, N>(Option<EventKind<M, N>>);

struct NodeSlot<N> {
    node: N,
    rng: ChaCha8Rng,
    crashed: bool,
}

/// The discrete-event simulator.
///
/// `M` is the message type exchanged between nodes, `N` the node (actor)
/// type. The engine is generic so that protocol crates can run their own
/// small actors in unit tests and the full Atum node in system tests, all on
/// the same substrate.
pub struct Simulation<M, N> {
    config: NetConfig,
    nodes: HashMap<NodeId, NodeSlot<N>>,
    /// `(at, slot)` in firing order; the event itself stays put in
    /// `events[slot]`, so the queue moves 8-byte entries, not whole messages.
    queue: EventQueue,
    /// The queued events, one cache line each (see [`EventSlot`]), indexed
    /// by their queue entry's slot. `free` lists the vacant slots, last
    /// vacated first, so a push reuses the line the last pop just read.
    events: Vec<EventSlot<M, N>>,
    free: Vec<usize>,
    now: Instant,
    partitions: Vec<(HashSet<NodeId>, HashSet<NodeId>)>,
    stats: NetStats,
    rng: ChaCha8Rng,
    seed: u64,
    /// Effect buffers recycled across `with_context` calls so the per-event
    /// hot loop allocates nothing in steady state.
    scratch_effects: ContextEffects<M>,
}

// Manual so `M`/`N` need no `Debug` bounds: a simulation hosting thousands
// of nodes is summarized by its counters, not dumped wholesale.
impl<M, N> std::fmt::Debug for Simulation<M, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("seed", &self.seed)
            .field("nodes", &self.nodes.len())
            .field("queued_events", &self.queue.len())
            .field("event_slot_bytes", &std::mem::size_of::<EventSlot<M, N>>())
            .field("partitions", &self.partitions.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<M, N> Simulation<M, N>
where
    M: WireSize,
    N: Node<M>,
{
    /// Creates a new simulation with the given network configuration and
    /// random seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        config.validate().expect("invalid network configuration");
        Simulation {
            config,
            nodes: HashMap::new(),
            queue: EventQueue::default(),
            events: Vec::new(),
            free: Vec::new(),
            now: Instant::ZERO,
            partitions: Vec::new(),
            stats: NetStats::default(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            scratch_effects: ContextEffects::new(),
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Network/traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to the statistics (e.g. to reset between phases).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// All node identifiers currently known to the simulation.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Adds a node and schedules its `on_start`. Returns the node's
    /// identifier for convenience.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same identifier already exists.
    pub fn add_node(&mut self, id: NodeId, node: N) -> NodeId {
        assert!(
            !self.nodes.contains_key(&id),
            "node {id} already exists in the simulation"
        );
        let node_seed = self.rng.next_u64() ^ id.raw().wrapping_mul(0x9E3779B97F4A7C15);
        self.nodes.insert(
            id,
            NodeSlot {
                node,
                rng: ChaCha8Rng::seed_from_u64(node_seed),
                crashed: false,
            },
        );
        self.push(Instant::ZERO.max(self.now), EventKind::Start { node: id });
        id
    }

    /// Immutable access to a node's state.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(&id).map(|s| &s.node)
    }

    /// Returns `true` if the node exists and has not crashed.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|s| !s.crashed)
    }

    /// Crashes a node: it stops receiving messages and timers. The node's
    /// state remains inspectable.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(&id) {
            slot.crashed = true;
        }
    }

    /// Removes a node entirely, dropping its state.
    pub fn remove_node(&mut self, id: NodeId) -> Option<N> {
        self.nodes.remove(&id).map(|s| s.node)
    }

    /// Installs a bidirectional partition between the two sets: messages
    /// crossing from one side to the other are dropped until [`heal`] is
    /// called.
    ///
    /// [`heal`]: Simulation::heal
    pub fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        self.partitions.push((
            side_a.iter().copied().collect(),
            side_b.iter().copied().collect(),
        ));
    }

    /// Removes all partitions.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Schedules an external call against a node at the current simulated
    /// time (plus an infinitesimal ordering step). Used by the harness to
    /// invoke API operations such as `join` or `broadcast`.
    pub fn call<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, M>) + Send + 'static,
    {
        self.call_at(self.now, node, f);
    }

    /// Schedules an external call at an absolute simulated time.
    pub fn call_at<F>(&mut self, at: Instant, node: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, M>) + Send + 'static,
    {
        let at = at.max(self.now);
        self.push(
            at,
            EventKind::Call {
                node,
                f: Box::new(f),
            },
        );
    }

    /// Runs events until the queue is empty or `max` simulated time has
    /// elapsed (measured from the current time). Returns the simulated time
    /// at which the run stopped.
    pub fn run_until_idle(&mut self, max: Duration) -> Instant {
        let deadline = self.now + max;
        while self.step_until(deadline) {}
        if !self.is_idle() {
            // Stopped by the deadline, not by drain: advance to it.
            self.now = deadline;
        }
        // Queue drained: the clock stays at the last processed event.
        self.now
    }

    /// Runs events until the given absolute simulated time (inclusive).
    pub fn run_until(&mut self, t: Instant) {
        while self.step_until(t) {}
        self.now = self.now.max(t);
    }

    /// Runs events for `d` simulated time from now.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Returns `true` when no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Processes a single event, if any. Returns `false` when the queue was
    /// empty.
    pub fn step(&mut self) -> bool {
        self.step_until(Instant::from_micros(u64::MAX))
    }

    /// Processes the next event if it is due at or before `limit`. Returns
    /// `false`, leaving the queue as it was, when none is.
    fn step_until(&mut self, limit: Instant) -> bool {
        let Some((at, slot)) = self.queue.pop_until(limit.as_micros()) else {
            return false;
        };
        let kind = self.events[slot]
            .0
            .take()
            .expect("a queued key's slot is occupied");
        self.free.push(slot);
        self.now = self.now.max(Instant::from_micros(at));
        self.stats.events_processed += 1;
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => self.do_deliver(from, to, msg, size),
            EventKind::Timer { node, tag } => self.do_timer(node, tag),
            EventKind::Call { node, f } => self.do_call(node, f),
            EventKind::Start { node } => self.do_start(node),
        }
        true
    }

    fn push(&mut self, at: Instant, kind: EventKind<M, N>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot] = EventSlot(Some(kind));
                slot
            }
            None => {
                self.events.push(EventSlot(Some(kind)));
                self.events.len() - 1
            }
        };
        self.queue.push(at.as_micros(), slot);
    }

    fn blocked_by_partition(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|(sa, sb)| {
            (sa.contains(&a) && sb.contains(&b)) || (sa.contains(&b) && sb.contains(&a))
        })
    }

    fn do_deliver(&mut self, from: NodeId, to: NodeId, msg: M, size: usize) {
        if self.with_context(to, true, |node, ctx| node.on_message(from, msg, ctx)) {
            self.stats.messages_delivered += 1;
            self.stats.bytes_delivered += size as u64;
        } else {
            self.stats.messages_dropped += 1;
        }
    }

    fn do_timer(&mut self, node: NodeId, tag: u64) {
        if self.with_context(node, true, |n, ctx| n.on_timer(tag, ctx)) {
            self.stats.timers_fired += 1;
        }
    }

    fn do_call(&mut self, node: NodeId, f: NodeCall<M, N>) {
        if self.with_context(node, false, f) {
            self.stats.calls_executed += 1;
        }
    }

    fn do_start(&mut self, node: NodeId) {
        self.with_context(node, false, |n, ctx| n.on_start(ctx));
    }

    /// Builds a context for `id`, runs `f`, then queues the context's
    /// effects: its timers, then its sends, each in the order the callback
    /// recorded them. The `node` module docs give the contract as sends,
    /// then timers; in this one queue the two orders differ only when a
    /// timer and a delivery from one callback fall due in the same
    /// microsecond, and the pinned trajectories were recorded with timers
    /// first. Returns whether `f` ran: not when `id` is unknown, nor, with
    /// `live_only`, when it has crashed. The liveness check rides on the
    /// one node lookup the context needs anyway.
    ///
    /// This is the innermost frame of the event loop, so it is kept
    /// allocation- and copy-free: the context borrows the node's RNG in
    /// place (cloning a `ChaCha8Rng` per event was measurable at millions
    /// of events per second) and the effect buffers are recycled scratch
    /// vectors whose capacity survives across events.
    fn with_context<F>(&mut self, id: NodeId, live_only: bool, f: F) -> bool
    where
        F: FnOnce(&mut N, &mut Context<'_, M>),
    {
        let Some(slot) = self.nodes.get_mut(&id) else {
            return false;
        };
        if live_only && slot.crashed {
            return false;
        }
        let effects = std::mem::take(&mut self.scratch_effects);
        let mut ctx = Context::for_runtime(id, self.now, &mut slot.rng, effects);
        f(&mut slot.node, &mut ctx);

        let mut effects = ctx.into_effects();
        for &TimerRequest { delay, tag } in &effects.new_timers {
            self.push(self.now + delay, EventKind::Timer { node: id, tag });
        }
        for OutboundMessage { to, msg, size } in effects.outbox.drain(..) {
            self.route(id, to, msg, size);
        }
        effects.clear();
        self.scratch_effects = effects;
        true
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: M, size: usize) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += size as u64;

        // `partitions` is empty in the vast majority of runs; skip the
        // per-message scan entirely then.
        if !self.partitions.is_empty() && self.blocked_by_partition(from, to) {
            self.stats.messages_dropped += 1;
            atum_obs::trace_event!(
                FaultInjected,
                at = self.now.as_micros(),
                node = from.raw(),
                slots = [to.raw(), 1, 0],
                "partition dropped {from} -> {to}"
            );
            return;
        }
        let loss = self.config.loss_probability;
        if loss > 0.0 && self.rng.gen_bool(loss) {
            self.stats.messages_lost += 1;
            atum_obs::trace_event!(
                FaultInjected,
                at = self.now.as_micros(),
                node = from.raw(),
                slots = [to.raw(), 2, 0],
                "loss dropped {from} -> {to}"
            );
            return;
        }
        let propagation = self.config.latency.sample(&mut self.rng);
        let serialization = self.config.serialization_delay(size);
        let overhead = self.config.processing_overhead;
        let at = self.now + propagation + serialization + overhead;
        self.push(
            at,
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::Duration;

    /// A node that records everything it sees and can ping-pong.
    #[derive(Default)]
    struct Recorder {
        started: bool,
        messages: Vec<(NodeId, u64)>,
        timers: Vec<u64>,
    }

    impl Node<u64> for Recorder {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {
            self.started = true;
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            self.messages.push((from, msg));
            if msg < 3 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, u64>) {
            self.timers.push(tag);
        }
    }

    fn two_node_sim() -> (Simulation<u64, Recorder>, NodeId, NodeId) {
        let mut sim = Simulation::new(NetConfig::lan(), 1);
        let a = sim.add_node(NodeId::new(0), Recorder::default());
        let b = sim.add_node(NodeId::new(1), Recorder::default());
        (sim, a, b)
    }

    #[test]
    fn on_start_runs_for_every_node() {
        let (mut sim, a, b) = two_node_sim();
        sim.run_until_idle(Duration::from_secs(1));
        assert!(sim.node(a).unwrap().started);
        assert!(sim.node(b).unwrap().started);
    }

    #[test]
    fn ping_pong_exchanges_messages_with_increasing_time() {
        let (mut sim, a, b) = two_node_sim();
        sim.call(a, move |_n, ctx| ctx.send(b, 0));
        sim.run_until_idle(Duration::from_secs(10));
        // b saw 0 and 2; a saw 1 and 3.
        let b_msgs: Vec<u64> = sim.node(b).unwrap().messages.iter().map(|m| m.1).collect();
        let a_msgs: Vec<u64> = sim.node(a).unwrap().messages.iter().map(|m| m.1).collect();
        assert_eq!(b_msgs, vec![0, 2]);
        assert_eq!(a_msgs, vec![1, 3]);
        assert!(sim.now() > Instant::ZERO);
        assert_eq!(sim.stats().messages_sent, 4);
        assert_eq!(sim.stats().messages_delivered, 4);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lan(), 3);
        let a = sim.add_node(NodeId::new(0), Recorder::default());
        sim.call(a, |_n, ctx| {
            ctx.set_timer(Duration::from_secs(3), 33);
            ctx.set_timer(Duration::from_secs(1), 11);
            ctx.set_timer(Duration::from_secs(2), 22);
        });
        sim.run_until_idle(Duration::from_secs(10));
        assert_eq!(sim.node(a).unwrap().timers, vec![11, 22, 33]);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    /// The liveness check rides on `with_context`'s node lookup: a crashed
    /// node gets no delivery and no timer, and each is counted as such,
    /// while a harness call still runs on it.
    #[test]
    fn crashed_nodes_drop_deliveries_and_timers_but_run_calls() {
        let (mut sim, a, b) = two_node_sim();
        sim.run_until_idle(Duration::from_secs(1));
        sim.call(b, |_n, ctx| {
            ctx.set_timer(Duration::from_millis(10), 7);
        });
        sim.run_until(sim.now());
        sim.crash(b);
        assert!(!sim.is_live(b));
        let before = sim.stats().clone();
        // 9 asks for no reply.
        sim.call(a, move |_n, ctx| ctx.send(b, 9));
        sim.run_until_idle(Duration::from_secs(5));
        let after = sim.stats().clone();
        assert_eq!(after.messages_dropped, before.messages_dropped + 1);
        assert_eq!(after.messages_delivered, before.messages_delivered);
        assert_eq!(after.bytes_delivered, before.bytes_delivered);
        assert_eq!(after.timers_fired, before.timers_fired);
        let node = sim.node(b).unwrap();
        assert!(node.messages.is_empty() && node.timers.is_empty());

        sim.call(b, |n, _ctx| n.timers.push(1));
        sim.run_until_idle(Duration::from_secs(1));
        assert_eq!(sim.node(b).unwrap().timers, vec![1]);
        assert_eq!(sim.stats().calls_executed, after.calls_executed + 1);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (mut sim, a, b) = two_node_sim();
        sim.partition(&[a], &[b]);
        sim.call(a, move |_n, ctx| ctx.send(b, 7));
        sim.run_until_idle(Duration::from_secs(5));
        assert!(sim.node(b).unwrap().messages.is_empty());

        sim.heal();
        sim.call(a, move |_n, ctx| ctx.send(b, 7));
        sim.run_until_idle(Duration::from_secs(5));
        assert_eq!(sim.node(b).unwrap().messages.len(), 1);
    }

    #[test]
    fn lossy_network_drops_roughly_the_configured_fraction() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lossy(0.3), 5);
        let a = sim.add_node(NodeId::new(0), Recorder::default());
        let b = sim.add_node(NodeId::new(1), Recorder::default());
        for i in 0..1000u64 {
            // Send value >= 3 so the receiver does not reply.
            sim.call(a, move |_n, ctx| ctx.send(b, 100 + i));
        }
        sim.run_until_idle(Duration::from_secs(60));
        let delivered = sim.node(b).unwrap().messages.len();
        assert!(delivered > 550 && delivered < 850, "delivered {delivered}");
        assert_eq!(sim.stats().messages_lost as usize, 1000 - delivered);
    }

    #[test]
    fn larger_messages_take_longer() {
        #[derive(Default)]
        struct Sink {
            at: Vec<Instant>,
        }
        impl Node<Vec<u8>> for Sink {
            fn on_message(&mut self, _f: NodeId, _m: Vec<u8>, ctx: &mut Context<'_, Vec<u8>>) {
                self.at.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, Vec<u8>>) {}
        }
        // Zero-jitter config isolates the serialisation component.
        let cfg = NetConfig {
            latency: crate::latency::LatencyModel {
                min: Duration::from_micros(100),
                max: Duration::from_micros(101),
            },
            ..NetConfig::lan()
        };
        let mut sim: Simulation<Vec<u8>, Sink> = Simulation::new(cfg, 9);
        let a = sim.add_node(NodeId::new(0), Sink::default());
        let b = sim.add_node(NodeId::new(1), Sink::default());
        sim.call(a, move |_n, ctx| ctx.send(b, vec![0u8; 10]));
        sim.run_until_idle(Duration::from_secs(1));
        let t_small = sim.node(b).unwrap().at[0];
        let start = sim.now();
        sim.call(a, move |_n, ctx| ctx.send(b, vec![0u8; 1_000_000]));
        sim.run_until_idle(Duration::from_secs(10));
        let t_big = sim.node(b).unwrap().at[1];
        assert!(
            (t_big - start).as_micros() > (t_small - Instant::ZERO).as_micros() * 5,
            "big transfer should be much slower"
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        fn run(seed: u64) -> (u64, u64, Vec<(NodeId, u64)>) {
            let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::wan(), seed);
            let a = sim.add_node(NodeId::new(0), Recorder::default());
            let b = sim.add_node(NodeId::new(1), Recorder::default());
            sim.call(a, move |_n, ctx| ctx.send(b, 0));
            sim.call(b, move |_n, ctx| ctx.send(a, 0));
            sim.run_until_idle(Duration::from_secs(30));
            (
                sim.now().as_micros(),
                sim.stats().messages_delivered,
                sim.node(a).unwrap().messages.clone(),
            )
        }
        assert_eq!(run(42), run(42));
        // Different seeds give different latencies (overwhelmingly likely).
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn remove_node_returns_state_and_stops_delivery() {
        let (mut sim, a, b) = two_node_sim();
        sim.run_until_idle(Duration::from_secs(1));
        let removed = sim.remove_node(b).unwrap();
        assert!(removed.started);
        assert!(sim.node(b).is_none() && !sim.is_live(b));
        sim.call(a, move |_n, ctx| ctx.send(b, 5));
        sim.run_until_idle(Duration::from_secs(5));
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn node_ids_are_sorted() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lan(), 2);
        let b = sim.add_node(NodeId::new(5), Recorder::default());
        let a = sim.add_node(NodeId::new(1), Recorder::default());
        assert_eq!(sim.node_ids(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_node_ids_are_rejected() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lan(), 1);
        sim.add_node(NodeId::new(0), Recorder::default());
        sim.add_node(NodeId::new(0), Recorder::default());
    }

    #[test]
    fn call_at_runs_at_requested_time() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lan(), 1);
        let a = sim.add_node(NodeId::new(0), Recorder::default());
        sim.call_at(Instant::from_micros(5_000_000), a, |_n, ctx| {
            ctx.set_timer(Duration::ZERO, 99);
        });
        sim.run_until_idle(Duration::from_secs(20));
        assert!(sim.now() >= Instant::from_micros(5_000_000));
        assert_eq!(sim.node(a).unwrap().timers, vec![99]);
    }

    #[test]
    fn a_call_at_now_runs_before_an_event_past_the_last_run_limit() {
        let mut sim: Simulation<u64, Recorder> = Simulation::new(NetConfig::lan(), 1);
        let a = sim.add_node(NodeId::new(0), Recorder::default());
        let t = Instant::from_micros(1_000_000);
        sim.call_at(t + Duration::from_millis(5), a, |_n, ctx| {
            ctx.set_timer(Duration::ZERO, 2);
        });
        // Stops with the call above still queued: the queue must not have
        // moved past `t` just by looking at it.
        sim.run_until(t);
        assert_eq!(sim.now(), t);
        sim.call(a, |_n, ctx| {
            ctx.set_timer(Duration::ZERO, 1);
        });
        sim.run_until_idle(Duration::from_secs(1));
        assert_eq!(sim.node(a).unwrap().timers, vec![1, 2]);
        assert_eq!(sim.now(), t + Duration::from_millis(5));
    }
    /// The queue against its contract in the plainest form there is: a list
    /// searched for its smallest `(at, seq)`.
    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use std::sync::{Arc, Mutex};

        const NODES: u64 = 4;
        /// Constant and in whole milliseconds, like every time the script
        /// draws, so that most events tie on `at` and FIFO decides.
        const LATENCY_US: u64 = 1_000;

        /// One thing that happened at a node: `(at µs, node, what, value)`.
        type Fired = (u64, u64, char, u64);
        type Log = Arc<Mutex<Vec<Fired>>>;

        /// What a scripted call does inside its node's context.
        #[derive(Clone, Copy)]
        enum Act {
            Send { to: u64, token: u64 },
            Arm { delay_ms: u64, tag: u64 },
        }

        /// Logs what it is handed; a timer with an odd tag sends it on.
        struct Logger(Log);

        impl Node<u64> for Logger {
            fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
                let fired = (ctx.now().as_micros(), ctx.id().raw(), 'm', msg);
                self.0.lock().unwrap().push(fired);
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, u64>) {
                let fired = (ctx.now().as_micros(), ctx.id().raw(), 't', tag);
                self.0.lock().unwrap().push(fired);
                if tag % 2 == 1 {
                    ctx.send(NodeId::new(tag % NODES), tag);
                }
            }
        }

        enum Ev {
            Call { node: u64, step: u64, act: Act },
            Timer { node: u64, tag: u64 },
            Msg { to: u64, token: u64 },
        }

        #[derive(Default)]
        struct Reference {
            now: u64,
            seq: u64,
            pending: Vec<(u64, u64, Ev)>,
            most_pending: usize,
            gone: BTreeSet<u64>,
            fired: Vec<Fired>,
        }

        impl Reference {
            fn push(&mut self, at: u64, ev: Ev) {
                self.pending.push((at.max(self.now), self.seq, ev));
                self.seq += 1;
                self.most_pending = self.most_pending.max(self.pending.len());
            }

            fn run_until(&mut self, t: u64) {
                let key = |pending: &[(u64, u64, Ev)], i: usize| (pending[i].0, pending[i].1);
                while let Some(first) = (0..self.pending.len())
                    .min_by_key(|&i| key(&self.pending, i))
                    .filter(|&i| self.pending[i].0 <= t)
                {
                    let (at, _, ev) = self.pending.swap_remove(first);
                    self.now = self.now.max(at);
                    self.fire(ev);
                }
                self.now = self.now.max(t);
            }

            fn fire(&mut self, ev: Ev) {
                let now = self.now;
                match ev {
                    Ev::Call { node, step, act } if !self.gone.contains(&node) => {
                        self.fired.push((now, node, 'c', step));
                        match act {
                            Act::Send { to, token } => {
                                self.push(now + LATENCY_US, Ev::Msg { to, token })
                            }
                            Act::Arm { delay_ms, tag } => {
                                self.push(now + delay_ms * 1_000, Ev::Timer { node, tag })
                            }
                        }
                    }
                    Ev::Timer { node, tag } if !self.gone.contains(&node) => {
                        self.fired.push((now, node, 't', tag));
                        if tag % 2 == 1 {
                            let (to, token) = (tag % NODES, tag);
                            self.push(now + LATENCY_US, Ev::Msg { to, token });
                        }
                    }
                    Ev::Msg { to, token } if !self.gone.contains(&to) => {
                        self.fired.push((now, to, 'm', token));
                    }
                    _ => {}
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Sends, timers, `call_at`s and node removals in
            /// random order: what fires, where and when is what the
            /// reference fires — a reused slot neither reorders nor
            /// resurrects an event — and the slab never outgrows the most
            /// events that were queued at once.
            #[test]
            fn fired_sequence_matches_a_sorted_list(
                steps in proptest::collection::vec(0u64..1_000_000, 1..80),
            ) {
                let config = NetConfig {
                    latency: crate::latency::LatencyModel {
                        min: Duration::from_micros(LATENCY_US),
                        max: Duration::from_micros(LATENCY_US),
                    },
                    bandwidth_bytes_per_sec: u64::MAX,
                    processing_overhead: Duration::ZERO,
                    ..NetConfig::lan()
                };
                let log = Log::default();
                let mut sim: Simulation<u64, Logger> = Simulation::new(config, 11);
                for n in 0..NODES {
                    sim.add_node(NodeId::new(n), Logger(log.clone()));
                }
                let mut reference = Reference::default();
                for (step, s) in steps.into_iter().enumerate() {
                    let step = step as u64;
                    let (kind, node, ms, rest) = (s % 6, s / 6 % NODES, s / 24 % 4, s / 96);
                    let at = sim.now().as_micros() + ms * 1_000;
                    if kind >= 4 {
                        sim.run_until(Instant::from_micros(at));
                        reference.run_until(at);
                        if kind == 5 {
                            sim.remove_node(NodeId::new(node));
                            reference.gone.insert(node);
                        }
                        continue;
                    }
                    let act = match kind {
                        0 | 1 => Act::Send { to: rest % NODES, token: step },
                        _ => Act::Arm { delay_ms: rest % 4, tag: step },
                    };
                    reference.push(at, Ev::Call { node, step, act });
                    let log = log.clone();
                    sim.call_at(Instant::from_micros(at), NodeId::new(node), move |_n, ctx| {
                        let fired = (ctx.now().as_micros(), ctx.id().raw(), 'c', step);
                        log.lock().unwrap().push(fired);
                        match act {
                            Act::Send { to, token } => ctx.send(NodeId::new(to), token),
                            Act::Arm { delay_ms, tag } => {
                                ctx.set_timer(Duration::from_millis(delay_ms), tag)
                            }
                        }
                    });
                }
                sim.run_until_idle(Duration::from_secs(1));
                reference.run_until(u64::MAX);
                prop_assert_eq!(&*log.lock().unwrap(), &reference.fired);
                prop_assert!(sim.is_idle());
                prop_assert_eq!(sim.free.len(), sim.events.len());
                // The nodes' `Start` events are queued beside the first calls.
                prop_assert!(sim.events.len() <= reference.most_pending + NODES as usize);
            }
        }
    }
}
