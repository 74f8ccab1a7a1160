//! Deterministic fault injection at the frame boundary.
//!
//! The TCP runtime's benign path is exercised to death by the benchmark's
//! socket workloads and the scale scenario; the interesting adversary sits
//! *on the links*. This module is the runtime's fault plane: a
//! [`FaultPlane`] handle shared by a runtime's reactor (and, through a
//! harness, by every runtime of a cluster) that decides, per outbound
//! frame, whether the frame is delivered, dropped, delayed, reordered,
//! corrupted or shaped — plus a connection-kill trigger that severs every
//! live socket.
//!
//! # Placement
//!
//! Decisions are taken in `Links::send`, after the frame is encoded
//! (the byte length feeds the bandwidth shaper) and *before* the address
//! lookup: an injected drop is indistinguishable, to the rest of the
//! runtime, from a frame the kernel lost. Delayed frames re-enter through
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
//! `(from, to, len)` sends the reactor performs — replaying a
//! scenario with the same seed replays the same injected faults
//! (`decider_determinism_is_exact` pins this). The wall clock only enters
//! through the bandwidth shaper's busy cursor, which is itself fed the
//! caller's clock, so the decider is fully testable without sockets.
//!
//! # Vocabulary parity with the simulator
//!
//! The control surface (`partition` / `heal` / `set_loss`) deliberately
//! mirrors `atum_simnet::Simulation` and both implement
//! [`atum_simnet::FaultInjector`], so one scenario script drives either
//! runtime — the quid pro quo of the "unmodified state machines on both
//! substrates" invariant, extended to the faults those substrates inject.

use atum_simnet::{FaultInjector, LatencyModel, Region};
use atum_types::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Mixing constant shared with the runtime's per-node RNG derivation.
const SEED_MIX: u64 = 0x9E3779B97F4A7C15;

/// Upper bound of the extra delay a reorder hit adds (microseconds). Small
/// on purpose: just enough to land a frame behind ones sent after it.
const REORDER_WINDOW_US: u64 = 2_000;

/// How many bytes a corruption flips in the copied frame.
const CORRUPT_FLIPS: usize = 3;

/// The active fault rules. A plain data snapshot: reactors copy it out of
/// the shared handle whenever the generation counter moves, then decide
/// lock-free against their local copy.
#[derive(Debug, Clone, Default)]
pub struct FaultRules {
    /// Bidirectional partitions: frames crossing between the two sides (in
    /// either direction) are dropped.
    pub partitions: Vec<(BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// One-directional partitions: frames from the first side to the
    /// second are dropped, the reverse direction flows.
    pub oneway: Vec<(BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// Loss probability applied to every route without a per-peer entry.
    pub default_loss: f64,
    /// Per-destination loss probability (overrides `default_loss`).
    pub peer_loss: BTreeMap<NodeId, f64>,
    /// Injected propagation delay, sampled per frame. `None` delivers
    /// immediately. Ported verbatim from the simulator's latency models.
    pub delay: Option<LatencyModel>,
    /// Region of each node, for `LatencyModel::Regional` (absent nodes are
    /// in [`Region::DEFAULT`]).
    pub regions: BTreeMap<NodeId, Region>,
    /// Probability a frame is re-queued with a small extra delay so frames
    /// sent after it overtake it.
    pub reorder: f64,
    /// Probability a frame's bytes are corrupted (on a copy) before
    /// queueing — exercises the receiver's decode-hardening path.
    pub corrupt: f64,
    /// Per-destination bandwidth cap in bytes/second, applied as a
    /// virtual-clock serialisation delay. `None` means unshaped.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl FaultRules {
    fn is_active(&self) -> bool {
        !self.partitions.is_empty()
            || !self.oneway.is_empty()
            || self.default_loss > 0.0
            || !self.peer_loss.is_empty()
            || self.delay.is_some()
            || self.reorder > 0.0
            || self.corrupt > 0.0
            || self.bandwidth_bytes_per_sec.is_some()
    }

    fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|(a, b)| {
            (a.contains(&from) && b.contains(&to)) || (a.contains(&to) && b.contains(&from))
        }) || self
            .oneway
            .iter()
            .any(|(a, b)| a.contains(&from) && b.contains(&to))
    }

    fn loss_for(&self, to: NodeId) -> f64 {
        self.peer_loss
            .get(&to)
            .copied()
            .unwrap_or(self.default_loss)
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
    pub fn rules(&self) -> FaultRules {
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

    /// Installs an asymmetric partition: frames *from* the first side *to*
    /// the second are dropped; the reverse direction still flows.
    pub fn partition_oneway(&self, from_side: &[NodeId], to_side: &[NodeId]) {
        self.mutate(|r| {
            r.oneway.push((
                from_side.iter().copied().collect(),
                to_side.iter().copied().collect(),
            ));
        });
    }

    /// Removes all partitions (bidirectional and asymmetric). Loss, delay
    /// and the other knobs stay as configured, exactly like the
    /// simulator's `heal`.
    pub fn heal(&self) {
        self.mutate(|r| {
            r.partitions.clear();
            r.oneway.clear();
        });
    }

    /// Sets the loss probability of frames *towards* `peer` (overrides the
    /// default loss for that destination).
    pub fn set_loss(&self, peer: NodeId, p: f64) {
        self.mutate(|r| {
            if p > 0.0 {
                r.peer_loss.insert(peer, p);
            } else {
                r.peer_loss.remove(&peer);
            }
        });
    }

    /// Sets the loss probability applied to every route without a per-peer
    /// override.
    pub fn set_default_loss(&self, p: f64) {
        self.mutate(|r| r.default_loss = p);
    }

    /// Installs an injected propagation delay, sampled per frame from the
    /// simulator's latency model (`None` disables). Combined with
    /// `set_region`, this ports the simnet WAN profiles onto real sockets.
    pub fn set_delay(&self, model: Option<LatencyModel>) {
        self.mutate(|r| r.delay = model);
    }

    /// Places a node in a region for `LatencyModel::Regional` sampling.
    pub fn set_region(&self, node: NodeId, region: Region) {
        self.mutate(|r| {
            r.regions.insert(node, region);
        });
    }

    /// Sets the probability that a frame is re-queued with a small extra
    /// delay, letting later frames overtake it.
    pub fn set_reorder(&self, p: f64) {
        self.mutate(|r| r.reorder = p);
    }

    /// Sets the probability that a frame's bytes are flipped (on a copy)
    /// before queueing.
    pub fn set_corruption(&self, p: f64) {
        self.mutate(|r| r.corrupt = p);
    }

    /// Caps per-destination throughput, modelled as a virtual-clock
    /// serialisation delay (`None` removes the cap).
    pub fn set_bandwidth(&self, bytes_per_sec: Option<u64>) {
        self.mutate(|r| r.bandwidth_bytes_per_sec = bytes_per_sec);
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
            busy_until_us: BTreeMap::new(),
        }
    }
}

impl FaultInjector for FaultPlane {
    fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        FaultPlane::partition(self, side_a, side_b);
    }

    fn heal(&mut self) {
        FaultPlane::heal(self);
    }

    fn set_loss(&mut self, peer: NodeId, p: f64) {
        FaultPlane::set_loss(self, peer, p);
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
    /// Virtual-clock cursor of the bandwidth shaper, per destination:
    /// the time (µs since the runtime epoch) at which the destination's
    /// shaped link next becomes free.
    busy_until_us: BTreeMap<NodeId, u64>,
}

impl FaultDecider {
    /// Decides the fate of one frame. `now_us` is the caller's clock in
    /// microseconds since its epoch; it feeds only the bandwidth shaper.
    ///
    /// Draw order is fixed (loss → corrupt → delay → reorder) so a given
    /// seed and send sequence always replays the same decisions.
    pub(crate) fn decide(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame_len: usize,
        now_us: u64,
    ) -> FaultDecision {
        let gen = self.plane.inner.generation.load(Ordering::Acquire);
        if gen != self.rules_gen {
            self.rules = self.plane.rules();
            self.rules_gen = gen;
            if self.rules.bandwidth_bytes_per_sec.is_none() {
                self.busy_until_us.clear();
            }
        }
        let rules = &self.rules;
        if !rules.is_active() {
            return FaultDecision::Deliver;
        }
        if rules.blocked(from, to) {
            return FaultDecision::Drop;
        }
        let loss = rules.loss_for(to);
        if loss > 0.0 && self.rng.gen_bool(loss.min(1.0)) {
            return FaultDecision::Drop;
        }
        let corrupt = rules.corrupt > 0.0 && self.rng.gen_bool(rules.corrupt.min(1.0));
        let mut delay_us = 0u64;
        if let Some(model) = rules.delay.as_ref() {
            let from_region = rules.regions.get(&from).copied().unwrap_or(Region::DEFAULT);
            let to_region = rules.regions.get(&to).copied().unwrap_or(Region::DEFAULT);
            delay_us += model
                .sample(from_region, to_region, &mut self.rng)
                .as_micros();
        }
        if rules.reorder > 0.0 && self.rng.gen_bool(rules.reorder.min(1.0)) {
            delay_us += self.rng.gen_range(1..=REORDER_WINDOW_US);
        }
        if let Some(bw) = rules.bandwidth_bytes_per_sec {
            if let Some(ser_us) = (frame_len as u64).saturating_mul(1_000_000).checked_div(bw) {
                let cursor = self.busy_until_us.entry(to).or_insert(0);
                let start = (*cursor).max(now_us);
                *cursor = start.saturating_add(ser_us);
                delay_us += (*cursor).saturating_sub(now_us);
            }
        }
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

    /// The delay to wait (µs) before re-checking a shaped destination, for
    /// tests.
    #[cfg(test)]
    fn busy_cursor(&self, to: NodeId) -> Option<u64> {
        self.busy_until_us.get(&to).copied()
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
        for i in 0..100 {
            assert_eq!(d.decide(n(1), n(2), 64 + i, 0), FaultDecision::Deliver);
        }
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let plane = FaultPlane::new();
        plane.partition(&[n(1), n(2)], &[n(3)]);
        let mut d = plane.decider(7);
        assert_eq!(d.decide(n(1), n(3), 64, 0), FaultDecision::Drop);
        assert_eq!(d.decide(n(3), n(2), 64, 0), FaultDecision::Drop);
        assert_eq!(d.decide(n(1), n(2), 64, 0), FaultDecision::Deliver);
        plane.heal();
        assert_eq!(d.decide(n(1), n(3), 64, 0), FaultDecision::Deliver);
        assert!(!plane.is_active());
    }

    #[test]
    fn oneway_partition_blocks_one_direction_only() {
        let plane = FaultPlane::new();
        plane.partition_oneway(&[n(1)], &[n(2)]);
        let mut d = plane.decider(7);
        assert_eq!(d.decide(n(1), n(2), 64, 0), FaultDecision::Drop);
        assert_eq!(d.decide(n(2), n(1), 64, 0), FaultDecision::Deliver);
    }

    #[test]
    fn peer_loss_overrides_default_and_certain_loss_drops_all() {
        let plane = FaultPlane::new();
        plane.set_default_loss(1.0);
        plane.set_loss(n(9), 0.0);
        // A zero per-peer entry is an override, not a removal: loss 0.0
        // removes the entry, falling back to the default.
        plane.set_loss(n(8), 1e-12);
        let mut d = plane.decider(7);
        assert_eq!(d.decide(n(1), n(2), 64, 0), FaultDecision::Drop);
        // Destination 8 has a ~0 per-peer loss: delivered.
        assert_eq!(d.decide(n(1), n(8), 64, 0), FaultDecision::Deliver);
    }

    #[test]
    fn decider_determinism_is_exact() {
        // Identical seed + identical send sequence ⇒ identical injected
        // fault sequence — the replayability contract of the issue.
        let mk = || {
            let plane = FaultPlane::new();
            plane.set_default_loss(0.3);
            plane.set_corruption(0.2);
            plane.set_reorder(0.1);
            plane.set_delay(Some(LatencyModel::Uniform {
                min: Duration::from_micros(100),
                max: Duration::from_micros(900),
            }));
            plane
        };
        let (pa, pb) = (mk(), mk());
        let mut da = pa.decider(1234);
        let mut db = pb.decider(1234);
        let seq_a: Vec<FaultDecision> = (0..500)
            .map(|i| da.decide(n(i % 7), n(i % 5 + 7), 64 + i as usize, i * 10))
            .collect();
        let seq_b: Vec<FaultDecision> = (0..500)
            .map(|i| db.decide(n(i % 7), n(i % 5 + 7), 64 + i as usize, i * 10))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.contains(&FaultDecision::Drop));
        assert!(seq_a
            .iter()
            .any(|d| matches!(d, FaultDecision::Forward { corrupt: true, .. })));

        // A different seed diverges.
        let mut dc = mk().decider(1235);
        let seq_c: Vec<FaultDecision> = (0..500)
            .map(|i| dc.decide(n(i % 7), n(i % 5 + 7), 64 + i as usize, i * 10))
            .collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn bandwidth_shaper_accumulates_serialisation_delay() {
        let plane = FaultPlane::new();
        plane.set_bandwidth(Some(1_000_000)); // 1 MB/s → 1 µs per byte
        let mut d = plane.decider(7);
        // First frame: link free, pays only its own serialisation.
        match d.decide(n(1), n(2), 1000, 0) {
            FaultDecision::Forward { delay_us, .. } => assert_eq!(delay_us, 1000),
            other => panic!("expected shaped forward, got {other:?}"),
        }
        // Second frame queues behind the first.
        match d.decide(n(1), n(2), 1000, 0) {
            FaultDecision::Forward { delay_us, .. } => assert_eq!(delay_us, 2000),
            other => panic!("expected shaped forward, got {other:?}"),
        }
        assert_eq!(d.busy_cursor(n(2)), Some(2000));
        // A different destination has its own cursor.
        match d.decide(n(1), n(3), 500, 0) {
            FaultDecision::Forward { delay_us, .. } => assert_eq!(delay_us, 500),
            other => panic!("expected shaped forward, got {other:?}"),
        }
        // Once the wall clock passes the cursor, the link is free again.
        match d.decide(n(1), n(2), 1000, 10_000) {
            FaultDecision::Forward { delay_us, .. } => assert_eq!(delay_us, 1000),
            other => panic!("expected shaped forward, got {other:?}"),
        }
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

    #[test]
    fn fault_injector_trait_drives_the_plane() {
        // The shared simnet vocabulary: partition/heal/set_loss through the
        // trait object surface.
        let plane = FaultPlane::new();
        {
            let mut inj: Box<dyn FaultInjector> = Box::new(plane.clone());
            inj.partition(&[n(1)], &[n(2)]);
            inj.set_loss(n(5), 1.0);
        }
        let mut d = plane.decider(7);
        assert_eq!(d.decide(n(1), n(2), 64, 0), FaultDecision::Drop);
        assert_eq!(d.decide(n(4), n(5), 64, 0), FaultDecision::Drop);
        {
            let mut inj: Box<dyn FaultInjector> = Box::new(plane.clone());
            inj.heal();
        }
        assert_eq!(d.decide(n(1), n(2), 64, 0), FaultDecision::Deliver);
    }
}
