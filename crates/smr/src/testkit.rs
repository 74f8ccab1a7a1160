//! A lockstep test harness for running SMR engines in-memory.
//!
//! The harness drives a group of [`Engine`]s over an idealised network with a
//! small fixed latency, ticking every engine on a regular grid. It is used by
//! the unit tests of both engines, by the integration tests, and by the
//! benchmark's SMR micro-timings. It is intentionally simpler than
//! `atum-simnet`: no bandwidth modelling, no loss — those aspects are covered
//! by the full-system simulations.

use crate::protocol::{Action, ByzantineMode, Decision, Replication, SmrConfig, SmrMessage};
use crate::Engine;
use atum_crypto::KeyRegistry;
use atum_types::{Composition, Duration, Instant, NodeId, SmrMode};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Test operation type: raw bytes.
pub type TestOp = Vec<u8>;

struct InFlight {
    deliver_at: Instant,
    from: NodeId,
    to: NodeId,
    msg: SmrMessage<TestOp>,
}

/// An in-memory cluster of SMR replicas advancing in lockstep.
pub struct LockstepCluster {
    engines: BTreeMap<NodeId, Engine<TestOp>>,
    decided: BTreeMap<NodeId, Vec<Decision<TestOp>>>,
    inflight: Vec<InFlight>,
    now: Instant,
    tick_step: Duration,
    config: SmrConfig,
    rng: ChaCha8Rng,
    /// Simulated one-way latency bounds for messages.
    latency: (Duration, Duration),
    last_activity: Instant,
}

// Manual: summarize by counters, skip the RNG stream and message bodies.
impl std::fmt::Debug for LockstepCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockstepCluster")
            .field("now", &self.now)
            .field("engines", &self.engines.len())
            .field("inflight", &self.inflight.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl LockstepCluster {
    /// Creates a cluster of `n` replicas running the engine selected by
    /// `mode`.
    pub fn new(n: usize, mode: SmrMode, config: SmrConfig, seed: u64) -> Self {
        assert!(n >= 1);
        let mut registry = KeyRegistry::new();
        for i in 0..n as u64 {
            registry.register(NodeId::new(i), seed);
        }
        let registry = registry.shared();
        let members: Composition = (0..n as u64).map(NodeId::new).collect();
        let mut engines = BTreeMap::new();
        let mut decided = BTreeMap::new();
        for i in 0..n as u64 {
            let id = NodeId::new(i);
            engines.insert(
                id,
                Engine::new(
                    mode,
                    id,
                    members.clone(),
                    config.clone(),
                    registry.clone(),
                    Instant::ZERO,
                ),
            );
            decided.insert(id, Vec::new());
        }
        let tick_step = Duration::from_micros(config.round.as_micros().max(2) / 2);
        LockstepCluster {
            engines,
            decided,
            inflight: Vec::new(),
            now: Instant::ZERO,
            tick_step,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            latency: (Duration::from_millis(5), Duration::from_millis(25)),
            last_activity: Instant::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Replica identifiers, in order.
    pub fn replica_ids(&self) -> Vec<NodeId> {
        self.engines.keys().copied().collect()
    }

    /// Marks a replica as Byzantine with the given behaviour.
    pub fn set_byzantine(&mut self, node: NodeId, mode: ByzantineMode) {
        if let Some(engine) = self.engines.get_mut(&node) {
            engine.set_byzantine(mode);
        }
    }

    /// Submits an operation at replica `node`.
    pub fn propose(&mut self, node: NodeId, op: TestOp) {
        let now = self.now;
        let actions = self
            .engines
            .get_mut(&node)
            .expect("unknown replica")
            .propose(op, now);
        self.apply_actions(node, actions);
    }

    /// The operations delivered so far at `node`, in delivery order.
    pub fn decided(&self, node: NodeId) -> &[Decision<TestOp>] {
        self.decided.get(&node).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total messages currently in flight (test introspection).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Returns the current view of an asynchronous replica.
    ///
    /// # Panics
    ///
    /// Panics if the replica runs the synchronous engine.
    pub fn async_view(&self, node: NodeId) -> u64 {
        match self.engines.get(&node) {
            Some(Engine::Async(e)) => e.view(),
            _ => panic!("replica {node} is not running the asynchronous engine"),
        }
    }

    fn sample_latency(&mut self) -> Duration {
        let lo = self.latency.0.as_micros();
        let hi = self.latency.1.as_micros().max(lo + 1);
        Duration::from_micros(self.rng.gen_range(lo..hi))
    }

    fn apply_actions(&mut self, node: NodeId, actions: Vec<Action<TestOp>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let latency = self.sample_latency();
                    self.inflight.push(InFlight {
                        deliver_at: self.now + latency,
                        from: node,
                        to,
                        msg,
                    });
                    self.last_activity = self.now;
                }
                Action::Deliver(decision) => {
                    self.decided
                        .get_mut(&node)
                        .expect("known node")
                        .push(decision);
                    self.last_activity = self.now;
                }
            }
        }
    }

    /// Advances simulated time by one tick step, delivering due messages and
    /// ticking every replica.
    pub fn step(&mut self) {
        self.now += self.tick_step;
        // Deliver all messages due by now, in deterministic order.
        let mut due: Vec<InFlight> = Vec::new();
        let mut remaining: Vec<InFlight> = Vec::new();
        for m in self.inflight.drain(..) {
            if m.deliver_at <= self.now {
                due.push(m);
            } else {
                remaining.push(m);
            }
        }
        self.inflight = remaining;
        due.sort_by_key(|m| (m.deliver_at, m.from, m.to));
        for m in due {
            let now = self.now;
            if let Some(engine) = self.engines.get_mut(&m.to) {
                let actions = engine.handle(m.from, m.msg, now);
                self.apply_actions(m.to, actions);
            }
        }
        // Tick every replica.
        let ids: Vec<NodeId> = self.engines.keys().copied().collect();
        for id in ids {
            let now = self.now;
            let actions = self.engines.get_mut(&id).expect("known").tick(now);
            self.apply_actions(id, actions);
        }
    }

    /// Runs for the given number of simulated seconds.
    pub fn run_for_secs(&mut self, secs: u64) {
        let target = self.now + Duration::from_secs(secs);
        while self.now < target {
            self.step();
        }
    }

    /// Runs until no messages are in flight and no activity (send or
    /// delivery) has occurred for a grace period long enough to cover a full
    /// synchronous slot or an asynchronous view-change timeout, capped at 20
    /// simulated minutes.
    pub fn run_to_quiescence(&mut self) {
        let n = self.engines.len();
        let f = n.saturating_sub(1) / 2;
        let slot = self.config.round.saturating_mul(2 * (f as u64 + 3));
        let grace = slot.max(self.config.view_change_timeout().saturating_mul(2));
        let cap = self.now + Duration::from_secs(1200);
        loop {
            self.step();
            let quiet =
                self.inflight.is_empty() && self.now.saturating_since(self.last_activity) > grace;
            if quiet || self.now >= cap {
                break;
            }
        }
    }

    /// Asserts that every replica delivered a consistent prefix (same
    /// operations in the same order).
    pub fn assert_agreement(&self) {
        let ids = self.replica_ids();
        self.assert_agreement_among(&ids);
    }

    /// Asserts prefix-consistency of delivery order among the given replicas.
    pub fn assert_agreement_among(&self, nodes: &[NodeId]) {
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                let da = self.decided(*a);
                let db = self.decided(*b);
                let common = da.len().min(db.len());
                for k in 0..common {
                    assert_eq!(
                        da[k].op, db[k].op,
                        "divergence between {a} and {b} at position {k}: {:?} vs {:?}",
                        da[k], db[k]
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_construction() {
        let c = LockstepCluster::new(4, SmrMode::Synchronous, SmrConfig::default(), 1);
        assert_eq!(c.replica_ids().len(), 4);
        assert_eq!(c.now(), Instant::ZERO);
        assert_eq!(c.inflight_len(), 0);
        assert!(c.decided(NodeId::new(0)).is_empty());
    }

    #[test]
    fn agreement_assertion_passes_trivially_when_nothing_decided() {
        let c = LockstepCluster::new(3, SmrMode::Asynchronous, SmrConfig::default(), 2);
        c.assert_agreement();
    }

    #[test]
    fn step_advances_time() {
        let mut c = LockstepCluster::new(3, SmrMode::Synchronous, SmrConfig::default(), 3);
        let t0 = c.now();
        c.step();
        assert!(c.now() > t0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        fn run(seed: u64) -> Vec<u64> {
            let mut c = LockstepCluster::new(4, SmrMode::Asynchronous, SmrConfig::default(), seed);
            c.propose(NodeId::new(1), b"x".to_vec());
            c.propose(NodeId::new(2), b"y".to_vec());
            c.run_to_quiescence();
            c.decided(NodeId::new(0)).iter().map(|d| d.seq).collect()
        }
        assert_eq!(run(11), run(11));
    }
}
