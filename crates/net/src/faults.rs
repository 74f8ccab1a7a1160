//! Deterministic fault injection at the frame boundary.
//!
//! The TCP runtime's benign path is exercised to death by the benchmark's
//! socket workloads and the scale scenario; the interesting adversary sits
//! *on the links*. This module is the runtime's fault plane: a
//! [`FaultPlane`] handle shared by a runtime's reactor (and, through a
//! harness, by every runtime of a cluster) that decides, per outbound
//! frame, whether the frame is delivered, dropped, delayed or corrupted —
//! plus a connection-kill trigger that severs every live socket. Those are
//! the faults the fault-scenario drivers and tests inject: partitions (cut
//! and healed), loss on every route, a uniform delay, corruption and
//! connection kills.
//!
//! # Placement
//!
//! Decisions are taken in `Links::send`, after the frame is encoded and
//! *before* the address lookup: an injected drop is indistinguishable, to
//! the rest of the runtime, from a frame the kernel lost. Delayed frames re-enter through
//! the reactor's timer heap (`LinkTimer::FaultRelease`) and re-resolve
//! their destination at release time, so a peer that re-registered
//! mid-delay still receives the frame at its new address. Corruption
//! always flips bytes on a *copy*: message frames are `Arc`-shared across
//! fan-out recipients and must never be mutated in place.
//!
//! # Determinism
//!
//! Every random decision is drawn from the runtime's one [`ChaCha8Rng`]
//! stream derived from `RuntimeConfig::seed`. For a fixed rule set, the
//! decision sequence is a pure function of the seed and the sequence of
//! `(from, to)` sends the reactor performs — replaying a scenario with the
//! same seed replays the same injected faults (`decider_determinism_is_exact`
//! and `decision_stream_is_pinned_for_a_fixed_seed` pin this). No clock
//! enters a decision, so the decider is fully testable without sockets.
//!
//! # Vocabulary parity with the simulator
//!
//! `partition` and `heal` take the same arguments as
//! `atum_simnet::Simulation`'s, and the delay is the simulator's
//! [`LatencyModel`], so a partition-then-heal script reads the same
//! against either runtime. Loss differs in where it is set: the
//! simulator's is part of its `NetConfig`, the plane's is
//! [`FaultPlane::set_default_loss`].

use atum_simnet::LatencyModel;
use atum_types::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Mixing constant shared with the runtime's per-node RNG derivation.
const SEED_MIX: u64 = 0x9E3779B97F4A7C15;

/// How many bytes a corruption flips in the copied frame.
const CORRUPT_FLIPS: usize = 3;

/// The active fault rules. A plain data snapshot: reactors copy it out of
/// the shared handle whenever the generation counter moves, then decide
/// lock-free against their local copy.
#[derive(Debug, Clone, Default)]
struct FaultRules {
    /// Bidirectional partitions: frames crossing between the two sides (in
    /// either direction) are dropped.
    partitions: Vec<(BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// Loss probability applied to every route.
    default_loss: f64,
    /// Injected propagation delay, sampled per frame. `None` delivers
    /// immediately.
    delay: Option<LatencyModel>,
    /// Probability a frame's bytes are corrupted (on a copy) before
    /// queueing — exercises the receiver's decode-hardening path.
    corrupt: f64,
}

impl FaultRules {
    fn is_active(&self) -> bool {
        !self.partitions.is_empty()
            || self.default_loss > 0.0
            || self.delay.is_some()
            || self.corrupt > 0.0
    }

    fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|(a, b)| {
            (a.contains(&from) && b.contains(&to)) || (a.contains(&to) && b.contains(&from))
        })
    }
}

#[derive(Debug, Default)]
struct FaultShared {
    /// Fast-path gate: one relaxed load on the benign send path.
    active: AtomicBool,
    /// Bumped on every rule mutation; deciders re-snapshot when it moves.
    generation: AtomicU64,
    /// Bumped by [`FaultPlane::kill_connections`]; reactors sever every
    /// live socket when they observe a new value.
    kills: AtomicU64,
    rules: RwLock<FaultRules>,
}

/// Shared control handle over a runtime's injected faults.
///
/// Cheap to clone (clones share state, like `AddressBook`): a harness
/// passes clones of one plane to several runtimes so a single
/// `partition()` call cuts the whole cluster. All methods take `&self`;
/// rule changes are picked up by the reactors on their next send.
///
/// See the [module docs](self) for placement, determinism and the
/// scenario vocabulary.
#[derive(Debug, Clone, Default)]
pub struct FaultPlane {
    inner: Arc<FaultShared>,
}

impl FaultPlane {
    /// A plane with no faults configured. Costs one atomic load per send
    /// until rules are installed.
    pub fn new() -> Self {
        FaultPlane::default()
    }

    /// `true` when any fault rule is installed (the reactors' fast-path
    /// check).
    pub fn is_active(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Current rule snapshot.
    fn rules(&self) -> FaultRules {
        self.inner.rules.read().expect("fault rules lock").clone()
    }

    fn mutate<F: FnOnce(&mut FaultRules)>(&self, f: F) {
        let mut rules = self.inner.rules.write().expect("fault rules lock");
        f(&mut rules);
        self.inner
            .active
            .store(rules.is_active(), Ordering::Relaxed);
        self.inner.generation.fetch_add(1, Ordering::Release);
    }

    /// Installs a bidirectional partition between the two sides: frames
    /// crossing between them (either direction) are dropped until
    /// [`FaultPlane::heal`]. Mirrors `Simulation::partition`.
    pub fn partition(&self, side_a: &[NodeId], side_b: &[NodeId]) {
        self.mutate(|r| {
            r.partitions.push((
                side_a.iter().copied().collect(),
                side_b.iter().copied().collect(),
            ));
        });
    }

    /// Removes all partitions. Loss, delay and corruption stay as
    /// configured, exactly like the simulator's `heal`.
    pub fn heal(&self) {
        self.mutate(|r| r.partitions.clear());
    }

    /// Sets the loss probability applied to every route.
    pub fn set_default_loss(&self, p: f64) {
        self.mutate(|r| r.default_loss = p);
    }

    /// Installs an injected propagation delay, sampled per frame from the
    /// simulator's latency model (`None` disables).
    pub fn set_delay(&self, model: Option<LatencyModel>) {
        self.mutate(|r| r.delay = model);
    }

    /// Sets the probability that a frame's bytes are flipped (on a copy)
    /// before queueing.
    pub fn set_corruption(&self, p: f64) {
        self.mutate(|r| r.corrupt = p);
    }

    /// Severs every live connection of every runtime sharing this plane.
    /// Outbound connections with queued frames reconnect (through the
    /// jittered backoff ladder); the effect is a cluster-wide TCP reset.
    pub fn kill_connections(&self) {
        self.inner.kills.fetch_add(1, Ordering::Release);
    }

    /// Removes every rule; the plane goes back to the benign fast path.
    pub fn clear(&self) {
        self.mutate(|r| *r = FaultRules::default());
    }

    pub(crate) fn kill_count(&self) -> u64 {
        self.inner.kills.load(Ordering::Acquire)
    }

    /// A runtime's decision stream. `seed` is the runtime's configured
    /// seed: two runtimes with different seeds draw from distinct streams,
    /// and the same seed always replays the same stream.
    pub(crate) fn decider(&self, seed: u64) -> FaultDecider {
        FaultDecider {
            plane: self.clone(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ SEED_MIX),
            rules: self.rules(),
            rules_gen: self.inner.generation.load(Ordering::Acquire),
        }
    }
}

/// What the fault plane decided for one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// Deliver unharmed, now.
    Deliver,
    /// Drop silently (partition or loss).
    Drop,
    /// Deliver after `delay_us` microseconds (0 = now), corrupting the
    /// frame bytes first when `corrupt` is set.
    Forward {
        /// Injected delay before the frame is queued, in microseconds.
        delay_us: u64,
        /// Whether to flip bytes on a copy of the frame.
        corrupt: bool,
    },
}

/// One reactor's deterministic decision stream against the shared rules.
#[derive(Debug)]
pub(crate) struct FaultDecider {
    plane: FaultPlane,
    rng: ChaCha8Rng,
    rules: FaultRules,
    rules_gen: u64,
}

impl FaultDecider {
    /// Decides the fate of one frame.
    ///
    /// Draw order is fixed (loss → corrupt → delay) so a given seed and
    /// send sequence always replays the same decisions.
    pub(crate) fn decide(&mut self, from: NodeId, to: NodeId) -> FaultDecision {
        let gen = self.plane.inner.generation.load(Ordering::Acquire);
        if gen != self.rules_gen {
            self.rules = self.plane.rules();
            self.rules_gen = gen;
        }
        let rules = &self.rules;
        if !rules.is_active() {
            return FaultDecision::Deliver;
        }
        if rules.blocked(from, to) {
            return FaultDecision::Drop;
        }
        if rules.default_loss > 0.0 && self.rng.gen_bool(rules.default_loss.min(1.0)) {
            return FaultDecision::Drop;
        }
        let corrupt = rules.corrupt > 0.0 && self.rng.gen_bool(rules.corrupt.min(1.0));
        let delay_us = rules
            .delay
            .map_or(0, |model| model.sample(&mut self.rng).as_micros());
        if delay_us == 0 && !corrupt {
            return FaultDecision::Deliver;
        }
        FaultDecision::Forward { delay_us, corrupt }
    }

    /// Returns a corrupted *copy* of `frame` (the original is `Arc`-shared
    /// across fan-out recipients and must never be mutated). Flips a few
    /// bytes at random offsets — the 8-byte header and length prefix are
    /// in range, so receivers see the whole rejection matrix: bad magic,
    /// bad version, bad kind, absurd lengths and undecodable bodies.
    pub(crate) fn corrupt_copy(&mut self, frame: &[u8]) -> Arc<[u8]> {
        let mut bytes = frame.to_vec();
        if !bytes.is_empty() {
            for _ in 0..CORRUPT_FLIPS {
                let idx = self.rng.gen_range(0..bytes.len());
                bytes[idx] ^= 1 << self.rng.gen_range(0..8u8);
            }
        }
        bytes.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::Duration;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn inactive_plane_always_delivers() {
        let plane = FaultPlane::new();
        assert!(!plane.is_active());
        let mut d = plane.decider(7);
        for _ in 0..100 {
            assert_eq!(d.decide(n(1), n(2)), FaultDecision::Deliver);
        }
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let plane = FaultPlane::new();
        plane.partition(&[n(1), n(2)], &[n(3)]);
        let mut d = plane.decider(7);
        assert_eq!(d.decide(n(1), n(3)), FaultDecision::Drop);
        assert_eq!(d.decide(n(3), n(2)), FaultDecision::Drop);
        assert_eq!(d.decide(n(1), n(2)), FaultDecision::Deliver);
        plane.heal();
        assert_eq!(d.decide(n(1), n(3)), FaultDecision::Deliver);
        assert!(!plane.is_active());
    }

    #[test]
    fn decider_determinism_is_exact() {
        // Identical seed + identical send sequence ⇒ identical injected
        // fault sequence — the replayability contract of the issue.
        let mk = || {
            let plane = FaultPlane::new();
            plane.set_default_loss(0.3);
            plane.set_corruption(0.2);
            plane.set_delay(Some(LatencyModel {
                min: Duration::from_micros(100),
                max: Duration::from_micros(900),
            }));
            plane
        };
        let (pa, pb) = (mk(), mk());
        let mut da = pa.decider(1234);
        let mut db = pb.decider(1234);
        let seq_a: Vec<FaultDecision> = (0..500)
            .map(|i| da.decide(n(i % 7), n(i % 5 + 7)))
            .collect();
        let seq_b: Vec<FaultDecision> = (0..500)
            .map(|i| db.decide(n(i % 7), n(i % 5 + 7)))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.contains(&FaultDecision::Drop));
        assert!(seq_a
            .iter()
            .any(|d| matches!(d, FaultDecision::Forward { corrupt: true, .. })));

        // A different seed diverges.
        let mut dc = mk().decider(1235);
        let seq_c: Vec<FaultDecision> = (0..500)
            .map(|i| dc.decide(n(i % 7), n(i % 5 + 7)))
            .collect();
        assert_ne!(seq_a, seq_c);
    }

    /// The literal decision stream of one seed under default loss,
    /// corruption and a uniform delay: `-` a drop, a number the delay in
    /// µs, `c` a corrupted copy. Any change to which draws the decider
    /// makes, or in what order, moves it.
    #[test]
    fn decision_stream_is_pinned_for_a_fixed_seed() {
        let plane = FaultPlane::new();
        plane.set_default_loss(0.2);
        plane.set_corruption(0.1);
        plane.set_delay(Some(atum_simnet::NetConfig::lan().latency));
        let mut d = plane.decider(47);
        let stream: Vec<String> = (0..64u64)
            .map(|i| {
                let decision = d.decide(n(i % 3), n(3 + i % 4));
                match decision {
                    FaultDecision::Drop => "-".to_string(),
                    FaultDecision::Forward { delay_us, corrupt } => {
                        format!("{delay_us}{}", if corrupt { "c" } else { "" })
                    }
                    FaultDecision::Deliver => "0".to_string(),
                }
            })
            .collect();
        assert_eq!(
            stream.join(" "),
            concat!(
                "361 985 978 651 1098 766c 862 1186 520 1134 889 682 765 590 1075 - ",
                "1046 247 - 829 - - - 783 - 239 - 613 - 771 417 - 1153 - 914 - ",
                "661 702 - 1152 - 407 292 - 1011 211 500c 1044 - 1104 689 720 1150 450c - ",
                "581 475 - 283 - 911 772 564 -"
            )
        );
    }

    #[test]
    fn corrupt_copy_never_mutates_the_shared_frame() {
        let plane = FaultPlane::new();
        let mut d = plane.decider(7);
        let original: Arc<[u8]> = vec![0xAAu8; 64].into();
        for _ in 0..32 {
            let copy = d.corrupt_copy(&original);
            assert_eq!(copy.len(), original.len());
            assert_ne!(&copy[..], &original[..], "corruption must change bytes");
            assert!(original.iter().all(|&b| b == 0xAA), "original untouched");
        }
    }

    #[test]
    fn kill_counter_is_monotonic() {
        let plane = FaultPlane::new();
        assert_eq!(plane.kill_count(), 0);
        plane.kill_connections();
        plane.kill_connections();
        assert_eq!(plane.kill_count(), 2);
        // Kills do not flip the rules fast path: they are edge-triggered.
        assert!(!plane.is_active());
    }
}
