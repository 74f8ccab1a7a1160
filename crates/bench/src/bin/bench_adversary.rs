//! Adversarial scenario suite for the `atum-net` TCP runtime: the fault
//! plane's headline demonstrations. Where `bench_net` measures the happy
//! path, this binary measures *degradation and recovery* — what the
//! middleware does while the network is actively hostile — and emits the
//! `degradation_*` metric family CI gates its floors on.
//!
//! Four scenarios, selectable with `--scenario <name>` (default `all`):
//!
//! - `partition-heal`: a cluster is split 50/50 *through every vgroup*
//!   (each group loses half its members to the far side — the cut that
//!   hurts quorums most) mid-broadcast-storm, then healed. Measures how
//!   long re-convergence takes and whether every broadcast — including the
//!   ones issued into the partition — eventually blankets the membership
//!   (the broadcast anti-entropy path closes the holes).
//! - `lossy-wan`: sustained random frame loss plus WAN-ish delay jitter on
//!   every link while a broadcast sequence runs. The delivery floor
//!   (≥ 0.95) is only reachable because dropped gossip copies are
//!   re-pulled: this scenario is the regression gate for the retransmit
//!   path.
//! - `byzantine`: a malicious node on its *own* runtime — speaking the
//!   real wire codec over real sockets — floods the cluster with
//!   equivocating gossip, forged composition updates and bogus
//!   anti-entropy digests. Membership, epoch agreement and memory must
//!   hold.
//! - `join-storm`: every joiner aims its join at the same vgroup, in
//!   waves. The placement walk + split machinery must absorb the eclipse
//!   attempt without violating the group-size invariant.
//!
//! Records are stamped `runtime: "tcp"` (wall-clock, not simulated time).
//! Run with `--json BENCH_adversary.json`; `ATUM_FULL=1` selects paper-ish
//! scale. A panic anywhere in the process (reactor threads included) is
//! counted by a hook and reported as the `panics` metric — the suite's
//! first gate is simply "nothing panicked".

#![forbid(unsafe_code)]

use atum_bench::{count_panics, panics, print_header, rss_mib, scaled, BenchRecord};
use atum_core::{AtumMessage, CollectingApp, GroupEnvelope, GroupPayload};
use atum_net::{NetCluster, NetClusterBuilder, NetRuntime, RuntimeConfig};
use atum_simnet::{Context, LatencyModel, Node};
use atum_types::{BroadcastId, Composition, Duration, NodeId, Params, VgroupId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

fn main() {
    atum_bench::init_obs();
    count_panics();

    let args: Vec<String> = std::env::args().collect();
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    match scenario.as_str() {
        "partition-heal" => run_partition_heal(),
        "lossy-wan" => run_lossy_wan(),
        "byzantine" => run_byzantine_flood(),
        "join-storm" => run_join_storm(),
        "all" => {
            run_partition_heal();
            run_lossy_wan();
            run_byzantine_flood();
            run_join_storm();
        }
        other => {
            eprintln!(
                "unknown --scenario {other}; expected partition-heal, lossy-wan, byzantine, join-storm or all"
            );
            std::process::exit(2);
        }
    }
}

/// The wall-clock-safe tuning the net tests use, with failure detection
/// lazy enough that the injected fault windows below (all shorter than the
/// eviction horizon) degrade delivery without triggering eviction storms.
fn adversary_params() -> Params {
    Params::default()
        .with_round(Duration::from_millis(200))
        .with_group_bounds(3, 6)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(12), 3)
}

/// Fraction of `(broadcast, member)` pairs delivered, over every member.
fn delivery_ratio(cluster: &NetCluster<CollectingApp>, ids: &[BroadcastId]) -> f64 {
    let want = ids.to_vec();
    let mut observed = 0usize;
    let mut members = 0usize;
    for (_, delivered) in cluster.map_nodes(move |n| {
        n.is_member().then(|| {
            want.iter()
                .filter(|id| n.app().delivered().iter().any(|d| d.id == **id))
                .count()
        })
    }) {
        if let Some(count) = delivered {
            members += 1;
            observed += count;
        }
    }
    let expected = ids.len() * members;
    if expected == 0 {
        0.0
    } else {
        observed as f64 / expected as f64
    }
}

/// Polls until every member delivered every id (or the deadline passes);
/// returns the final ratio and how long the poll took.
fn settle_broadcasts(
    cluster: &NetCluster<CollectingApp>,
    ids: &[BroadcastId],
    deadline: StdDuration,
) -> (f64, f64) {
    let start = StdInstant::now();
    let until = start + deadline;
    loop {
        let ratio = delivery_ratio(cluster, ids);
        if ratio >= 1.0 || StdInstant::now() >= until {
            return (ratio, start.elapsed().as_secs_f64());
        }
        std::thread::sleep(StdDuration::from_millis(200));
    }
}

// ------------------------------------------------------------ partition-heal

/// Attributes the post-heal window to degradation phases by sampling the
/// repair-plane counters in the global metrics registry
/// (`core.anti_entropy_pulls` / `core.anti_entropy_reproposals`):
///
/// - *stuck*: heal until the first anti-entropy pull fires — the holes are
///   known but no repair traffic has moved yet;
/// - *re-propose*: first pull until the last observed SMR re-proposal — the
///   pulled broadcasts are being driven back through agreement.
///
/// Counter deltas are measured from the heal instant, so pre-heal repair
/// traffic (within-side pulls during the split) does not pollute the phases.
struct RepairPhases {
    pulls: Arc<atum_obs::Counter>,
    reproposals: Arc<atum_obs::Counter>,
    pulls_base: u64,
    reprops_seen: u64,
    first_pull_at: Option<StdInstant>,
    last_repropose_at: Option<StdInstant>,
}

impl RepairPhases {
    /// Snapshots the counters; call at the heal instant.
    fn at_heal() -> Self {
        let pulls = atum_obs::global().counter("core.anti_entropy_pulls");
        let reproposals = atum_obs::global().counter("core.anti_entropy_reproposals");
        let pulls_base = pulls.get();
        let reprops_seen = reproposals.get();
        RepairPhases {
            pulls,
            reproposals,
            pulls_base,
            reprops_seen,
            first_pull_at: None,
            last_repropose_at: None,
        }
    }

    /// Polls the counters; call from every settle iteration.
    fn sample(&mut self) {
        if self.first_pull_at.is_none() && self.pulls.get() > self.pulls_base {
            self.first_pull_at = Some(StdInstant::now());
        }
        let reprops = self.reproposals.get();
        if reprops > self.reprops_seen {
            self.reprops_seen = reprops;
            self.last_repropose_at = Some(StdInstant::now());
        }
    }

    /// Seconds from heal to the first pull (the full window when no pull
    /// ever fired — the cluster never even started repairing).
    fn stuck_secs(&self, heal_at: StdInstant) -> f64 {
        self.first_pull_at
            .unwrap_or_else(StdInstant::now)
            .saturating_duration_since(heal_at)
            .as_secs_f64()
    }

    /// Seconds from the first pull to the last observed re-proposal (0.0
    /// when the repair never needed to re-drive agreement).
    fn repropose_secs(&self) -> f64 {
        match (self.first_pull_at, self.last_repropose_at) {
            (Some(first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn run_partition_heal() {
    print_header(
        "Adversary: partition-heal",
        "50/50 split through every vgroup mid-storm, then heal; measure re-convergence",
    );
    let n = scaled(16usize, 32);
    let seed = 71u64;
    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(n, 0)
        .params(adversary_params())
        .seed(seed)
        .runtime(RuntimeConfig {
            queue_capacity: 16384,
            ..RuntimeConfig::default()
        })
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), n);
    std::thread::sleep(StdDuration::from_secs(2));

    // Split every vgroup down the middle: alternate each composition's
    // members between the sides, so no group retains a full quorum locally.
    let mut by_group: BTreeMap<VgroupId, Vec<NodeId>> = BTreeMap::new();
    for (id, group) in cluster.map_nodes(|node| node.member().map(|m| m.config().vgroup)) {
        if let Some(group) = group {
            by_group.entry(group).or_default().push(id);
        }
    }
    let (mut side_a, mut side_b) = (Vec::new(), Vec::new());
    for members in by_group.values() {
        for (i, &id) in members.iter().enumerate() {
            if i % 2 == 0 {
                side_a.push(id);
            } else {
                side_b.push(id);
            }
        }
    }

    let broadcasts = scaled(12usize, 24);
    let mut sent: Vec<BroadcastId> = Vec::new();
    let send = |i: usize, sent: &mut Vec<BroadcastId>| {
        let origin = NodeId::new((i * 7 % n) as u64);
        if let Some(id) = cluster.broadcast_tracked(origin, format!("storm-{i}").into_bytes()) {
            sent.push(id);
        }
    };

    // A third of the storm lands before the split, a third into the
    // partition, a third after the heal.
    for i in 0..broadcasts / 3 {
        send(i, &mut sent);
        std::thread::sleep(StdDuration::from_millis(250));
    }
    cluster.faults().partition(&side_a, &side_b);
    let partition_at = StdInstant::now();
    for i in broadcasts / 3..2 * broadcasts / 3 {
        send(i, &mut sent);
        std::thread::sleep(StdDuration::from_millis(250));
    }
    // Hold the split for a few heartbeat windows — long enough that every
    // cross-side gossip copy of the mid-partition broadcasts is gone for
    // good, short enough that nobody reaches the eviction horizon.
    std::thread::sleep(StdDuration::from_secs(4));
    let ratio_at_heal = delivery_ratio(&cluster, &sent);
    cluster.faults().heal();
    let heal_at = StdInstant::now();
    let mut phases = RepairPhases::at_heal();
    let held = partition_at.elapsed();
    for i in 2 * broadcasts / 3..broadcasts {
        send(i, &mut sent);
        phases.sample();
        std::thread::sleep(StdDuration::from_millis(250));
    }

    // Re-convergence: every member delivers every broadcast, including the
    // ones whose cross-side copies were dropped into the void — only the
    // anti-entropy pull path can close those holes. The settle loop doubles
    // as the phase sampler, so the `degradation_phase_*` split falls out of
    // the same poll.
    let settle_start = StdInstant::now();
    let settle_until = settle_start + StdDuration::from_secs(scaled(120, 300));
    let final_ratio = loop {
        phases.sample();
        let ratio = delivery_ratio(&cluster, &sent);
        if ratio >= 1.0 || StdInstant::now() >= settle_until {
            break ratio;
        }
        std::thread::sleep(StdDuration::from_millis(200));
    };
    let reconverge_secs = settle_start.elapsed().as_secs_f64();
    phases.sample();
    // The gate wants 1.0: a run that missed it says which broadcasts are short.
    if final_ratio < 1.0 {
        for (i, &bid) in sent.iter().enumerate() {
            let mut holders = 0usize;
            for (_, d) in cluster.map_nodes(move |n| {
                n.is_member()
                    .then(|| n.app().delivered().iter().any(|d| d.id == bid))
            }) {
                if d == Some(true) {
                    holders += 1;
                }
            }
            eprintln!("  storm-{i}: {holders}/{n} members delivered");
        }
    }
    let members_after = cluster.member_count();
    let stats = cluster.stats();
    println!(
        "partition: held {:.1}s, delivery {:.1}% at heal -> {:.1}% after {:.1}s; members {members_after}/{n}, {} frames dropped by the plane",
        held.as_secs_f64(),
        ratio_at_heal * 100.0,
        final_ratio * 100.0,
        reconverge_secs,
        stats.frames_dropped_injected,
    );
    println!(
        "phases: split {:.1}s -> stuck {:.2}s -> re-propose {:.2}s -> reconverge {:.1}s",
        held.as_secs_f64(),
        phases.stuck_secs(heal_at),
        phases.repropose_secs(),
        reconverge_secs,
    );

    let record = BenchRecord::new("adversary_partition_heal", seed)
        .runtime("tcp")
        .param("nodes", n)
        .param("broadcasts", sent.len())
        .param("partition_hold_secs", held.as_secs_f64())
        .metric("members_after_heal", members_after)
        .metric("reconverged", final_ratio >= 1.0)
        .metric("reconverge_secs", reconverge_secs)
        .metric("degradation_phase_split_secs", held.as_secs_f64())
        .metric("degradation_phase_stuck_secs", phases.stuck_secs(heal_at))
        .metric("degradation_phase_repropose_secs", phases.repropose_secs())
        .metric("degradation_phase_reconverge_secs", reconverge_secs)
        .metric("degradation_delivery_at_heal", ratio_at_heal)
        .metric("degradation_delivery_final", final_ratio)
        .metric("frames_dropped_injected", stats.frames_dropped_injected)
        .metric("decode_errors", stats.decode_errors)
        .metric("panics", panics())
        .perf(wall_start.elapsed(), Some(stats.events_processed));
    atum_bench::emit(&record);
    cluster.shutdown();
}

// ---------------------------------------------------------------- lossy-wan

fn run_lossy_wan() {
    print_header(
        "Adversary: lossy-WAN",
        "sustained frame loss + delay jitter on every link; the retransmit path carries the floor",
    );
    let n = scaled(10usize, 16);
    let seed = 73u64;
    let loss = 0.02f64;
    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(n, 0)
        .params(adversary_params())
        .seed(seed)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), n);
    std::thread::sleep(StdDuration::from_secs(2));

    // The WAN profile: every frame risks the loss draw and rides a jittered
    // one-way delay. The faults stay active through settling, so the repair
    // traffic itself crosses the same hostile links.
    cluster.faults().set_default_loss(loss);
    cluster.faults().set_delay(Some(LatencyModel {
        min: Duration::from_millis(2),
        max: Duration::from_millis(20),
    }));

    let broadcasts = scaled(20usize, 60);
    let mut sent: Vec<BroadcastId> = Vec::new();
    for i in 0..broadcasts {
        let origin = NodeId::new((i * 3 % n) as u64);
        if let Some(id) = cluster.broadcast_tracked(origin, format!("wan-{i}").into_bytes()) {
            sent.push(id);
        }
        std::thread::sleep(StdDuration::from_millis(250));
    }
    let (ratio, settle_secs) =
        settle_broadcasts(&cluster, &sent, StdDuration::from_secs(scaled(120, 300)));
    let stats = cluster.stats();
    println!(
        "lossy-wan: {:.0}% loss, delivery {:.1}% after {:.1}s; {} dropped / {} delayed by the plane",
        loss * 100.0,
        ratio * 100.0,
        settle_secs,
        stats.frames_dropped_injected,
        stats.frames_delayed_injected,
    );

    let record = BenchRecord::new("adversary_lossy_wan", seed)
        .runtime("tcp")
        .param("nodes", n)
        .param("broadcasts", sent.len())
        .param("loss", loss)
        .param("delay_max_ms", 20u64)
        .metric("degradation_delivery_final", ratio)
        .metric("settle_secs", settle_secs)
        .metric("frames_dropped_injected", stats.frames_dropped_injected)
        .metric("frames_delayed_injected", stats.frames_delayed_injected)
        .metric("decode_errors", stats.decode_errors)
        .metric("final_members", cluster.member_count())
        .metric("panics", panics())
        .perf(wall_start.elapsed(), Some(stats.events_processed));
    atum_bench::emit(&record);
    cluster.shutdown();
}

// ---------------------------------------------------------------- byzantine

/// A malicious node speaking the real wire codec from its own runtime: it
/// floods every victim with (a) pairs of equivocating gossip copies — one
/// broadcast id, two payloads — under a forged source composition, (b)
/// composition updates claiming the victim's *real* vgroup has been taken
/// over, and (c) anti-entropy digests advertising broadcasts that do not
/// exist. None of it carries a quorum, so none of it may move state.
struct MalNode {
    /// Victim node -> the vgroup it actually belongs to (so forgeries name
    /// real groups, the sharpest version of the attack).
    victims: Vec<(NodeId, VgroupId)>,
    forged_comp: Composition,
    sent: Arc<AtomicU64>,
    seq: u64,
}

impl Node<AtumMessage> for MalNode {
    fn on_start(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        ctx.set_timer(Duration::from_millis(5), 1);
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        _msg: AtumMessage,
        _ctx: &mut Context<'_, AtumMessage>,
    ) {
        // A flooder does not listen.
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, AtumMessage>) {
        self.seq += 1;
        let me = ctx.id();
        let id = BroadcastId::new(me, self.seq);
        for &(victim, vgroup) in &self.victims {
            // Equivocation: the same broadcast id with two payloads. The
            // copies have different digests, so neither ever assembles a
            // majority — the collector must shrug both off, boundedly.
            for payload in [&b"equivocation-a"[..], &b"equivocation-b"[..]] {
                let envelope = GroupEnvelope::new(
                    vgroup,
                    self.forged_comp.clone(),
                    GroupPayload::Gossip {
                        id,
                        payload: Arc::from(payload),
                        hops: 1,
                    },
                );
                ctx.send(victim, AtumMessage::Group(Arc::new(envelope)));
            }
            // A forged takeover of the victim's own vgroup.
            let takeover = GroupEnvelope::new(
                vgroup,
                self.forged_comp.clone(),
                GroupPayload::CompositionUpdate {
                    group: vgroup,
                    composition: self.forged_comp.clone(),
                },
            );
            ctx.send(victim, AtumMessage::Group(Arc::new(takeover)));
            // Bogus anti-entropy digest: advertised broadcasts that do not
            // exist. The receiver must at worst issue bounded pulls to a
            // non-member — and the guard drops it outright.
            let keys: Vec<BroadcastId> = (0..32)
                .map(|k| BroadcastId::new(me, self.seq * 100 + k))
                .collect();
            ctx.send(
                victim,
                AtumMessage::BroadcastKeys {
                    group: vgroup,
                    keys,
                },
            );
            self.sent.fetch_add(4, Ordering::Relaxed);
        }
        ctx.set_timer(Duration::from_millis(5), 1);
    }
}

fn run_byzantine_flood() {
    print_header(
        "Adversary: Byzantine flood",
        "a wire-speaking malicious node floods equivocating gossip and forged updates",
    );
    let n = scaled(10usize, 16);
    let seed = 79u64;
    let flood_secs = scaled(8u64, 20);
    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(n, 0)
        .params(adversary_params())
        .seed(seed)
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), n);
    std::thread::sleep(StdDuration::from_secs(2));

    let victims: Vec<(NodeId, VgroupId)> = cluster
        .map_nodes(|node| node.member().map(|m| m.config().vgroup))
        .into_iter()
        .filter_map(|(id, group)| group.map(|g| (id, g)))
        .collect();
    let rss_before = rss_mib();

    // The attacker gets its own runtime — its own listener, reactor and
    // socket — but shares the address book, so its frames arrive exactly
    // like any peer's. The forged composition claims two phantom accomplices
    // so a single attacker can never be its own majority.
    let attacker = NodeId::new(9001);
    let forged_comp = Composition::from_members([attacker, NodeId::new(9002), NodeId::new(9003)]);
    let sent = Arc::new(AtomicU64::new(0));
    let mal_rt: NetRuntime<AtumMessage, MalNode> = NetRuntime::bind(RuntimeConfig {
        listen: "127.0.0.1:0".parse().expect("loopback bind address"),
        book: cluster.book.clone(),
        ..RuntimeConfig::default()
    })
    .expect("bind attacker runtime");
    mal_rt.host(
        attacker,
        MalNode {
            victims,
            forged_comp,
            sent: sent.clone(),
            seq: 0,
        },
    );

    // Honest traffic under fire.
    let broadcasts = scaled(10usize, 20);
    let mut honest: Vec<BroadcastId> = Vec::new();
    let flood_deadline = StdInstant::now() + StdDuration::from_secs(flood_secs);
    for i in 0..broadcasts {
        let origin = NodeId::new((i * 3 % n) as u64);
        if let Some(id) = cluster.broadcast_tracked(origin, format!("honest-{i}").into_bytes()) {
            honest.push(id);
        }
        std::thread::sleep(StdDuration::from_millis(250));
    }
    while StdInstant::now() < flood_deadline {
        std::thread::sleep(StdDuration::from_millis(100));
    }
    let flood_msgs = sent.load(Ordering::Relaxed);
    mal_rt.shutdown();

    let (ratio, _) = settle_broadcasts(&cluster, &honest, StdDuration::from_secs(scaled(60, 180)));
    let rss_after = rss_mib();

    // Agreement must have held: full membership, and within every vgroup
    // one epoch and one composition.
    let members_after = cluster.member_count();
    let mut groups: BTreeMap<VgroupId, Vec<(u64, Vec<NodeId>)>> = BTreeMap::new();
    for (_, info) in cluster.map_nodes(|node| {
        let c = node.member()?.config();
        Some((c.vgroup, c.epoch, c.composition.iter().collect::<Vec<_>>()))
    }) {
        if let Some((group, epoch, comp)) = info {
            groups.entry(group).or_default().push((epoch, comp));
        }
    }
    let agreement = groups
        .values()
        .all(|views| views.windows(2).all(|w| w[0] == w[1]));
    let no_takeover = groups
        .values()
        .flatten()
        .all(|(_, comp)| !comp.contains(&attacker));
    let stats = cluster.stats();
    println!(
        "byzantine: {flood_msgs} forged messages over {flood_secs}s; members {members_after}/{n}, agreement {agreement}, honest delivery {:.1}%, RSS {rss_before:.0} -> {rss_after:.0} MiB",
        ratio * 100.0,
    );

    let record = BenchRecord::new("adversary_byzantine_flood", seed)
        .runtime("tcp")
        .param("nodes", n)
        .param("flood_secs", flood_secs)
        .param("broadcasts", honest.len())
        .metric("flood_msgs", flood_msgs)
        .metric("membership_intact", members_after == n)
        .metric("epoch_agreement", agreement)
        .metric("attacker_excluded", no_takeover)
        .metric("degradation_delivery_final", ratio)
        .metric("rss_growth_mib", (rss_after - rss_before).max(0.0))
        .metric("decode_errors", stats.decode_errors)
        .metric("panics", panics())
        .perf(wall_start.elapsed(), Some(stats.events_processed));
    atum_bench::emit(&record);
    cluster.shutdown();
}

// --------------------------------------------------------------- join-storm

fn run_join_storm() {
    print_header(
        "Adversary: join-storm eclipse",
        "every joiner aims at one vgroup; placement + splits must absorb the wave",
    );
    let seeded = scaled(9usize, 12);
    let joiners = scaled(6usize, 12);
    let total = seeded + joiners;
    let seed = 83u64;
    let wall_start = StdInstant::now();
    let cluster = NetClusterBuilder::new(seeded, joiners)
        .params(adversary_params())
        .group_size(3)
        .seed(seed)
        .build(|_| CollectingApp::new());
    std::thread::sleep(StdDuration::from_secs(1));

    // Every join aims at the members of ONE vgroup — the eclipse shape. The
    // placement walk must spread the joiners out anyway, and splits must
    // keep every composition within the bound.
    let target_group = cluster
        .map_nodes(|node| node.member().map(|m| m.config().vgroup))
        .into_iter()
        .find_map(|(_, g)| g)
        .expect("seeded cluster has members");
    let contacts: Vec<NodeId> = cluster
        .map_nodes(|node| node.member().map(|m| m.config().vgroup))
        .into_iter()
        .filter_map(|(id, g)| (g == Some(target_group)).then_some(id))
        .collect();
    let growth_start = StdInstant::now();
    let joiner_ids = cluster.joiners.clone();
    for (wave_idx, wave) in joiner_ids.chunks(3).enumerate() {
        for (i, &joiner) in wave.iter().enumerate() {
            cluster.join(joiner, contacts[(wave_idx * 3 + i) % contacts.len()]);
        }
        cluster.wait_for_members(
            (seeded + (wave_idx + 1) * 3).min(total),
            StdDuration::from_secs(90),
        );
    }
    let members = cluster.wait_for_members(total, StdDuration::from_secs(scaled(120, 300)));
    let growth_wall = growth_start.elapsed();
    let reached = members * 100 >= total * 95;

    // The invariant the eclipse tries to break: no composition beyond gmax.
    let gmax = cluster.params.gmax;
    let max_group_size = cluster
        .map_nodes(|node| node.member().map_or(0, |m| m.config().composition.len()))
        .into_iter()
        .map(|(_, len)| len)
        .max()
        .unwrap_or(0);

    // And the system still works: one tracked broadcast blankets whoever
    // made it in.
    let mut probe = Vec::new();
    if let Some(id) = cluster.broadcast_tracked(NodeId::new(0), b"post-storm".to_vec()) {
        probe.push(id);
    }
    let (coverage, _) =
        settle_broadcasts(&cluster, &probe, StdDuration::from_secs(scaled(60, 180)));
    let stats = cluster.stats();
    println!(
        "join-storm: {members}/{total} members in {:.1}s (reached {reached}), max group {max_group_size}/{gmax}, post-storm coverage {:.1}%",
        growth_wall.as_secs_f64(),
        coverage * 100.0,
    );

    let record = BenchRecord::new("adversary_join_storm", seed)
        .runtime("tcp")
        .param("seeded", seeded)
        .param("joiners", joiners)
        .param("target_contacts", contacts.len())
        .metric("final_members", members)
        .metric("reached", reached)
        .metric("growth_wall_secs", growth_wall.as_secs_f64())
        .metric("max_group_size", max_group_size)
        .metric("gmax", gmax)
        .metric("group_bound_held", max_group_size <= gmax)
        .metric("degradation_delivery_final", coverage)
        .metric("decode_errors", stats.decode_errors)
        .metric("panics", panics())
        .perf(wall_start.elapsed(), Some(stats.events_processed));
    atum_bench::emit(&record);
    cluster.shutdown();
}
