//! Workload drivers for the paper's experiments: growth (Fig. 6), churn
//! (Fig. 7), broadcast latency (Fig. 8) and exchange completion (Fig. 13).

use crate::cluster::Cluster;
use crate::metrics::LatencySeries;
use atum_core::{AtumMessage, AtumNode, CollectingApp, NodePhase};
use atum_crypto::KeyRegistry;
use atum_simnet::{NetConfig, Simulation};
use atum_types::{BroadcastId, Duration, Instant, NodeId, Params};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// --------------------------------------------------------------- broadcasts

/// Result of a broadcast-latency workload (Figure 8).
#[derive(Debug, Clone, Default)]
pub struct BroadcastWorkloadReport {
    /// Delivery latencies across all (correct node, broadcast) pairs.
    pub latencies: LatencySeries,
    /// Deliveries that should have happened (correct nodes × broadcasts).
    pub expected_deliveries: usize,
    /// Deliveries observed.
    pub observed_deliveries: usize,
    /// Mean number of overlay hops per delivery.
    pub mean_hops: f64,
}

impl BroadcastWorkloadReport {
    /// Fraction of expected deliveries that occurred.
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected_deliveries == 0 {
            1.0
        } else {
            self.observed_deliveries as f64 / self.expected_deliveries as f64
        }
    }
}

/// Publishes `broadcasts` messages of `payload_size` bytes from random
/// correct nodes, one every `gap`, then lets the system settle and collects
/// the delivery latency of every (node, broadcast) pair.
pub fn run_broadcast_workload(
    cluster: &mut Cluster<CollectingApp>,
    broadcasts: usize,
    payload_size: usize,
    gap: Duration,
    settle: Duration,
    seed: u64,
) -> BroadcastWorkloadReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let correct = cluster.correct_nodes();
    assert!(!correct.is_empty(), "need at least one correct node");
    let start = cluster.sim.now() + Duration::from_secs(1);

    // Assign publishers; each call records the id its origin issued and
    // when.
    let issued: Arc<Mutex<HashMap<BroadcastId, Instant>>> = Arc::default();
    for i in 0..broadcasts {
        let publisher = *correct.choose(&mut rng).expect("non-empty");
        let at = start + Duration::from_micros(gap.as_micros() * i as u64);
        let payload = vec![0x5au8; payload_size];
        let issued = Arc::clone(&issued);
        cluster.sim.call_at(at, publisher, move |node, ctx| {
            if let Ok(id) = node.broadcast(payload, ctx) {
                issued.lock().expect("no panic holds it").insert(id, at);
            }
        });
    }

    let total = Duration::from_micros(gap.as_micros() * broadcasts as u64) + settle;
    cluster.sim.run_for(Duration::from_secs(1) + total);

    let send_times = std::mem::take(&mut *issued.lock().expect("no panic holds it"));
    let mut report = BroadcastWorkloadReport {
        expected_deliveries: correct.len() * send_times.len(),
        ..BroadcastWorkloadReport::default()
    };
    let mut hops_total = 0u64;
    for node_id in &correct {
        let Some(node) = cluster.sim.node(*node_id) else {
            continue;
        };
        for d in node.app().delivered() {
            if let Some(sent) = send_times.get(&d.id) {
                report.observed_deliveries += 1;
                report.latencies.push(d.at.saturating_since(*sent));
                hops_total += u64::from(d.hops);
            }
        }
    }
    report.mean_hops = if report.observed_deliveries == 0 {
        0.0
    } else {
        hops_total as f64 / report.observed_deliveries as f64
    };
    report
}

// ------------------------------------------------------------------- growth

/// Result of a growth run (Figures 6 and 13).
#[derive(Debug, Clone, Default)]
pub struct GrowthReport {
    /// (simulated seconds, number of nodes that are members) samples.
    pub size_over_time: Vec<(f64, usize)>,
    /// Shuffle exchanges completed across all vgroups.
    pub exchanges_completed: u64,
    /// Shuffle exchanges suppressed (partner unavailable).
    pub exchanges_suppressed: u64,
    /// Whether the target size was reached within the time budget.
    pub reached_target: bool,
    /// Simulated time at the end of the run.
    pub elapsed_secs: f64,
    /// Simulator events processed over the run (perf-trajectory numerator).
    pub events_processed: u64,
}

impl GrowthReport {
    /// Fraction of completed exchanges among all that finished either way
    /// (the y-axis of Figure 13).
    pub fn exchange_completion_rate(&self) -> f64 {
        let finished = self.exchanges_completed + self.exchanges_suppressed;
        if finished == 0 {
            1.0
        } else {
            self.exchanges_completed as f64 / finished as f64
        }
    }
}

/// Grows a system from a single bootstrap node to `target` nodes by joining
/// `join_rate_fraction` of the current system size per simulated minute
/// (8 % in §6.1.1; 20 % and 24 % in Figure 13).
pub fn run_growth(
    params: Params,
    net: NetConfig,
    seed: u64,
    target: usize,
    join_rate_fraction: f64,
    max_sim: Duration,
) -> GrowthReport {
    assert!(target >= 1);
    let mut registry = KeyRegistry::new();
    for i in 0..target as u64 {
        registry.register(NodeId::new(i), seed);
    }
    let registry = registry.shared();
    let mut sim: Simulation<AtumMessage, AtumNode<CollectingApp>> = Simulation::new(net, seed);
    for i in 0..target as u64 {
        let node = AtumNode::new(
            NodeId::new(i),
            params.clone(),
            registry.clone(),
            CollectingApp::new(),
        );
        sim.add_node(NodeId::new(i), node);
    }
    sim.call(NodeId::new(0), |n, ctx| {
        n.bootstrap(ctx).expect("bootstrap succeeds")
    });
    sim.run_for(Duration::from_secs(1));

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
    let check_interval = Duration::from_secs(10);
    let mut report = GrowthReport::default();
    let mut next_to_join: u64 = 1;
    let deadline = sim.now() + max_sim;

    loop {
        // Count members and record the growth curve.
        let members: Vec<NodeId> = (0..target as u64)
            .map(NodeId::new)
            .filter(|&id| sim.node(id).map(|n| n.is_member()).unwrap_or(false))
            .collect();
        report
            .size_over_time
            .push((sim.now().as_secs_f64(), members.len()));
        if members.len() >= target || sim.now() >= deadline {
            report.reached_target = members.len() >= target;
            break;
        }
        // Launch joins for this interval: rate × size × interval / 60.
        let per_interval =
            (join_rate_fraction * members.len() as f64 * check_interval.as_secs_f64() / 60.0)
                .ceil()
                .max(1.0) as u64;
        for _ in 0..per_interval {
            if next_to_join >= target as u64 {
                break;
            }
            let joiner = NodeId::new(next_to_join);
            next_to_join += 1;
            let contact = *members
                .choose(&mut rng)
                .expect("at least the bootstrap node");
            sim.call(joiner, move |n, ctx| {
                let _ = n.join(contact, ctx);
            });
        }
        sim.run_for(check_interval);
    }

    // Collect exchange statistics across every member.
    for i in 0..target as u64 {
        if let Some(member) = sim.node(NodeId::new(i)).and_then(|n| n.member()) {
            let stats = member.session().stats().exchanges;
            report.exchanges_completed += stats.completed;
            report.exchanges_suppressed += stats.suppressed;
        }
    }
    // End-of-run diagnosis (`ATUM_TRACE=growth`): one `growth` event per
    // non-member and one per distinct vgroup. The single armed check keeps
    // the whole sweep off the disabled path.
    if atum_obs::trace::armed(atum_obs::EventKind::Growth) {
        let mut seen_groups = std::collections::BTreeSet::new();
        for i in 0..target as u64 {
            let Some(node) = sim.node(NodeId::new(i)) else {
                continue;
            };
            match node.member() {
                None => {
                    atum_obs::trace_event!(
                        Growth,
                        at = sim.now().as_micros(),
                        node = i,
                        slots = [0, 0, 0],
                        "non-member n{i}: phase {:?}",
                        node.phase()
                    );
                }
                Some(member) => {
                    let config = member.config();
                    if seen_groups.insert(config.vgroup) {
                        let live = member.presumed_live(sim.now());
                        atum_obs::trace_event!(
                            Growth,
                            at = sim.now().as_micros(),
                            node = i,
                            slots = [
                                config.vgroup.raw(),
                                config.composition.len() as u64,
                                live.len() as u64
                            ],
                            "vgroup {:?} (per n{i}): size {} presumed_live {} epoch {} fenced {}",
                            config.vgroup,
                            config.composition.len(),
                            live.len(),
                            config.epoch,
                            member.fenced(),
                        );
                    }
                }
            }
        }
    }
    report.elapsed_secs = sim.now().as_secs_f64();
    report.events_processed = sim.stats().events_processed;
    report
}

// -------------------------------------------------------------------- churn

/// One leave/re-join cycle of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnCycle {
    /// The node that left and re-joined.
    pub victim: NodeId,
    /// Simulated time (seconds) the leave was requested.
    pub left_at_secs: f64,
    /// Simulated time (seconds) of the first re-join attempt.
    pub rejoin_at_secs: f64,
    /// Simulated time (seconds) the victim was a full member again, if it
    /// made it back before the end of the run.
    pub completed_at_secs: Option<f64>,
}

/// Phase breakdown of the churn cycles that did not complete: where the
/// victim was stuck when the run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Out of the system entirely (abandoned with no live contact, or its
    /// re-join attempts were all refused).
    pub left: usize,
    /// A join attempt was still in flight.
    pub joining: usize,
    /// Waiting for the welcome of a shuffle-transfer target vgroup.
    pub awaiting_transfer: usize,
}

impl StallBreakdown {
    /// Total stalled cycles.
    pub fn total(&self) -> usize {
        self.left + self.joining + self.awaiting_transfer
    }
}

/// Classification of the ghost entries left at the end of a churn run.
///
/// A ghost is a composition entry (at one representative member per vgroup)
/// whose node is not actually a member of that vgroup. Ghosts in a vgroup
/// that still has at least two live correct members are *healable*: the
/// eviction machinery (which requires corroboration from at least two
/// distinct accusers before the suspected-entry discount applies) can still
/// decide the evictions, so any such residue is a liveness bug. Ghosts in a
/// vgroup with fewer than two live correct members are **unhealable by
/// construction** — one correct member can never corroborate an accusation,
/// so the composition is wedged by the fault model, not by the protocol
/// (e.g. PR 3's residual case: 1 correct + 2 Byzantine + 2 dead in a
/// 5-entry composition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostAudit {
    /// Total ghost entries across the audited vgroups.
    pub entries: usize,
    /// Ghost entries in vgroups that cannot heal by construction (< 2 live
    /// correct members remain).
    pub unhealable: usize,
    /// Number of vgroups carrying at least one ghost entry.
    pub vgroups_with_ghosts: usize,
}

impl GhostAudit {
    /// Ghost entries the protocol could still have healed — the quantity
    /// that must be zero after a recovered churn run.
    pub fn healable(&self) -> usize {
        self.entries - self.unhealable
    }
}

/// Result of a churn run (Figure 7).
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Leave/rejoin cycles attempted.
    pub attempted: usize,
    /// Nodes that were members again by the end of the run.
    pub completed: usize,
    /// Members at the end of the run.
    pub final_members: usize,
    /// The churn rate that was applied (re-joins per minute).
    pub rate_per_minute: f64,
    /// Per-cycle records (victim, leave/rejoin/completion times).
    pub cycles: Vec<ChurnCycle>,
    /// Leave-to-member-again latency of every completed cycle.
    pub rejoin_latencies: LatencySeries,
    /// Where the uncompleted cycles were stuck at the end of the run.
    pub stalls: StallBreakdown,
    /// Composition entries (across one representative member per vgroup)
    /// whose node is not actually a member of that vgroup at the end of the
    /// run. A healthy recovery leaves zero *healable* ones (see
    /// [`ChurnReport::ghost_audit`]).
    pub ghost_entries: usize,
    /// The same entries classified by whether their vgroup could still have
    /// healed them.
    pub ghost_audit: GhostAudit,
    /// Simulator events processed over the run (perf-trajectory numerator).
    pub events_processed: u64,
}

impl ChurnReport {
    /// Fraction of churn cycles that completed.
    pub fn completion_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.completed as f64 / self.attempted as f64
        }
    }

    /// Whether the system sustained the churn (≥ 90 % of cycles completed and
    /// the population did not collapse).
    pub fn sustained(&self, initial: usize) -> bool {
        self.completion_ratio() >= 0.9 && self.final_members * 10 >= initial * 9
    }
}

/// Continuously removes and re-joins nodes of a standing cluster at
/// `rate_per_minute` re-joins per minute for `duration`, then reports how
/// many cycles completed (the paper's §6.1.2 methodology: nodes have session
/// times of a few minutes and re-join after leaving).
pub fn run_churn(
    cluster: &mut Cluster<CollectingApp>,
    rate_per_minute: f64,
    duration: Duration,
    rejoin_pause: Duration,
    seed: u64,
) -> ChurnReport {
    assert!(rate_per_minute > 0.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc0ffee);
    let interval = Duration::from_secs_f64(60.0 / rate_per_minute);
    let start = cluster.sim.now();
    let mut report = ChurnReport {
        rate_per_minute,
        ..ChurnReport::default()
    };

    let correct = cluster.correct_nodes();
    let mut churned: Vec<(NodeId, Instant, Instant)> = Vec::new();
    let deadline = start + duration;
    cluster.sim.run_for(Duration::from_secs(2));
    // Advance the simulation one churn interval at a time so every victim
    // and contact can be chosen among the nodes that are members *now* (a
    // re-joining node in a deployment contacts a node that is actually
    // reachable, e.g. out of a directory of current members).
    while cluster.sim.now() < deadline {
        let members: Vec<NodeId> = correct
            .iter()
            .copied()
            .filter(|&n| {
                cluster
                    .sim
                    .node(n)
                    .map(|node| node.is_member())
                    .unwrap_or(false)
            })
            .collect();
        let candidates: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|n| !churned.iter().any(|(v, _, _)| v == n))
            .collect();
        if let Some(&victim) = candidates.choose(&mut rng) {
            let contacts: Vec<NodeId> = members.iter().copied().filter(|&n| n != victim).collect();
            if let Some(&contact) = contacts.choose(&mut rng) {
                churned.push((victim, cluster.sim.now(), cluster.sim.now() + rejoin_pause));
                report.attempted += 1;
                cluster.sim.call(victim, |n, ctx| {
                    let _ = n.leave(ctx);
                });
                // The rejoin is attempted a few times with distinct contacts:
                // the first attempt can race the (asynchronous) leave — the
                // `Leave` op may not have been decided yet, in which case
                // `join` refuses with `AlreadyJoined` — and a single contact
                // can sit in a degraded vgroup. Extra attempts are no-ops
                // once the node is back in (`join` only acts from
                // `Idle`/`Left`), so retrying models a user that simply
                // tries again.
                let rejoin_at = cluster.sim.now() + rejoin_pause;
                for attempt in 0..3u64 {
                    let contact = *contacts.choose(&mut rng).unwrap_or(&contact);
                    let at = rejoin_at + Duration::from_secs(20 * attempt);
                    cluster.sim.call_at(at, victim, move |n, ctx| {
                        let _ = n.join(contact, ctx);
                    });
                }
            }
        }
        cluster.sim.run_for(interval);
    }

    // Drain long enough for the *last* cycles to finish their whole
    // recovery pipeline: a victim's final rejoin attempt fires up to 40 s
    // after its leave, and the stale entry it leaves behind needs a full
    // failure-detection window plus agreement to be evicted. On top of
    // that, the lone survivor of a wedged vgroup closes its fence only after
    // a window without a live peer, gives the membership up 20 rounds later,
    // then re-joins and its stale entries need their own eviction round — so
    // the full recovery chain spans several windows. Auditing before
    // quiescence would report in-flight recoveries as ghosts. The drain is
    // longer than that chain needs, so that churn runs stay comparable with
    // those made when the survivor waited two more windows to give up.
    let eviction_window = cluster
        .params
        .heartbeat_period
        .saturating_mul(cluster.params.eviction_threshold as u64);
    let drain = Duration::from_secs(60) + eviction_window.saturating_mul(16);
    cluster.sim.run_until(deadline + drain);

    // Per-cycle outcomes: a cycle completed if the victim is a member now;
    // its completion time is the moment it last became one (`joined_at` is
    // refreshed on every non-member-to-member transition).
    for &(victim, left_at, rejoin_at) in &churned {
        let node = cluster.sim.node(victim);
        let is_member = node.map(|n| n.is_member()).unwrap_or(false);
        let completed_at = node
            .and_then(|n| n.stats.joined_at)
            .filter(|&t| is_member && t >= left_at);
        let cycle = ChurnCycle {
            victim,
            left_at_secs: left_at.as_secs_f64(),
            rejoin_at_secs: rejoin_at.as_secs_f64(),
            completed_at_secs: completed_at.map(|t| t.as_secs_f64()),
        };
        if let Some(t) = completed_at {
            report.completed += 1;
            let latency = t.saturating_since(left_at);
            report.rejoin_latencies.push(latency);
        } else {
            match node.map(|n| n.phase()) {
                Some(NodePhase::Joining { .. }) => report.stalls.joining += 1,
                Some(NodePhase::AwaitingTransfer) => report.stalls.awaiting_transfer += 1,
                _ => report.stalls.left += 1,
            }
        }
        report.cycles.push(cycle);
    }
    report.ghost_audit = ghost_audit(cluster, &correct, &churned);
    report.ghost_entries = report.ghost_audit.entries;
    report.final_members = cluster.member_count();
    report.events_processed = cluster.sim.stats().events_processed;
    report
}

/// Audits composition entries (one representative member per vgroup) whose
/// node is not actually a member of that vgroup, classifying each ghost by
/// whether its vgroup could still have healed it (see [`GhostAudit`]);
/// optionally dumps the diagnosis as `churn` trace events
/// (`ATUM_TRACE=churn`).
fn ghost_audit(
    cluster: &Cluster<CollectingApp>,
    correct: &[NodeId],
    churned: &[(NodeId, Instant, Instant)],
) -> GhostAudit {
    let debug = atum_obs::trace::armed(atum_obs::EventKind::Churn);
    let now_us = cluster.sim.now().as_micros();
    if debug {
        for &n in correct {
            if let Some(node) = cluster.sim.node(n) {
                if !node.is_member() {
                    atum_obs::trace_event!(
                        Churn,
                        at = now_us,
                        node = n.raw(),
                        slots = [0, 0, 0],
                        "non-member {n}: churned={} phase {:?}",
                        churned.iter().any(|(v, _, _)| *v == n),
                        node.phase()
                    );
                }
            }
        }
    }
    let mut seen_groups = std::collections::BTreeSet::new();
    let mut audit = GhostAudit::default();
    for &n in correct {
        let Some(member) = cluster.sim.node(n).and_then(|node| node.member()) else {
            continue;
        };
        let config = member.config();
        if !seen_groups.insert(config.vgroup) {
            continue;
        }
        let ghosts: Vec<NodeId> = config
            .composition
            .iter()
            .filter(|&p| {
                cluster
                    .sim
                    .node(p)
                    .map(|other| other.member().map(|m| m.config().vgroup) != Some(config.vgroup))
                    .unwrap_or(true)
            })
            .collect();
        audit.entries += ghosts.len();
        if !ghosts.is_empty() {
            audit.vgroups_with_ghosts += 1;
            // Eviction corroboration needs at least two distinct live
            // correct accusers; with fewer, the residue is unhealable by
            // construction (Byzantine heartbeat-only entries never accuse,
            // ghosts cannot).
            let live_correct = config
                .composition
                .iter()
                .filter(|&p| !ghosts.contains(&p) && !cluster.byzantine.contains(&p))
                .count();
            if live_correct < 2 {
                audit.unhealable += ghosts.len();
            }
        }
        if debug {
            atum_obs::trace_event!(
                Churn,
                at = now_us,
                node = n.raw(),
                slots = [
                    config.vgroup.raw(),
                    config.composition.len() as u64,
                    ghosts.len() as u64
                ],
                "vgroup {:?} (per {n}): size {} ghosts {:?} epoch {} fenced {}",
                config.vgroup,
                config.composition.len(),
                ghosts,
                config.epoch,
                member.fenced(),
            );
            if !ghosts.is_empty() {
                for (peer, silence, activated, accusations) in
                    member.liveness_snapshot(cluster.sim.now())
                {
                    atum_obs::trace_event!(
                        Churn,
                        at = now_us,
                        node = peer.raw(),
                        slots = [config.vgroup.raw(), accusations as u64, 0],
                        "    peer {peer}: silent {silence:.1}s activated {activated} accusations {accusations}"
                    );
                }
                for f in config.composition.iter().filter(|p| !ghosts.contains(p)) {
                    if let Some(fm) = cluster.sim.node(f).and_then(|node| node.member()) {
                        let fc = fm.config();
                        atum_obs::trace_event!(
                            Churn,
                            at = now_us,
                            node = f.raw(),
                            slots = [fc.vgroup.raw(), fc.composition.len() as u64, fc.epoch],
                            "    live member {f}: vgroup {:?} epoch {} fenced {} comp {}",
                            fc.vgroup,
                            fc.epoch,
                            fm.fenced(),
                            fc.composition
                        );
                    }
                }
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    fn fast_params() -> Params {
        Params::default()
            .with_round(Duration::from_millis(250))
            .with_group_bounds(2, 8)
            .with_overlay(2, 4)
    }

    #[test]
    fn broadcast_workload_measures_latencies() {
        let mut cluster = ClusterBuilder::new(20)
            .params(fast_params())
            .seed(5)
            .build(|_| CollectingApp::new());
        let report = run_broadcast_workload(
            &mut cluster,
            4,
            100,
            Duration::from_secs(2),
            Duration::from_secs(30),
            9,
        );
        assert_eq!(report.expected_deliveries, 20 * 4);
        assert_eq!(report.observed_deliveries, report.expected_deliveries);
        assert!((report.delivery_ratio() - 1.0).abs() < 1e-9);
        assert!(report.latencies.mean() > 0.0);
        assert!(report.mean_hops > 0.0);
    }

    #[test]
    fn growth_from_bootstrap_reaches_small_target() {
        let report = run_growth(
            fast_params().with_group_bounds(1, 8),
            NetConfig::lan(),
            11,
            6,
            0.5,
            Duration::from_secs(900),
        );
        assert!(report.reached_target, "curve: {:?}", report.size_over_time);
        assert!(report.size_over_time.last().unwrap().1 >= 6);
        // Size is non-decreasing over time.
        for w in report.size_over_time.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // A single-vgroup system can only self-exchange, which is always
        // suppressed; the rate must simply be well defined.
        let rate = report.exchange_completion_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn growth_past_gmax_splits_and_completes_exchanges() {
        // Growing past gmax forces a split; with several vgroups in the
        // overlay, shuffle exchanges are between distinct vgroups and can
        // genuinely complete (the Fig. 13 quantity).
        //
        // A sweep, not one seed: this used to run seed 19 alone, which
        // passed only by luck — over seeds 11–26 exchanges completed on
        // 3 of 16 seeds before the pipelined sync engine and on 2 of 16
        // after it. Every seed must reach the target; completions are
        // rare, so only their total must be positive.
        let mut completed = 0;
        let mut suppressed = 0;
        for seed in 11..=26 {
            let report = run_growth(
                fast_params().with_group_bounds(1, 6),
                NetConfig::lan(),
                seed,
                14,
                0.5,
                Duration::from_secs(1800),
            );
            assert!(
                report.reached_target,
                "seed {seed}: {:?}",
                report.size_over_time
            );
            completed += report.exchanges_completed;
            suppressed += report.exchanges_suppressed;
        }
        assert!(
            completed > 0,
            "no exchange completed (suppressed: {suppressed})"
        );
    }

    #[test]
    fn churn_cycles_complete_at_modest_rate() {
        let mut cluster = ClusterBuilder::new(16)
            .params(fast_params())
            .seed(13)
            .spare_identities(4)
            .build(|_| CollectingApp::new());
        let initial = cluster.member_count();
        let report = run_churn(
            &mut cluster,
            2.0,
            Duration::from_secs(120),
            Duration::from_secs(5),
            3,
        );
        assert!(report.attempted >= 3, "attempted {}", report.attempted);
        // Sustained concurrent churn is the hardest regime for the
        // reproduction (see DESIGN.md §5): require progress, not perfection.
        assert!(
            report.completed >= 1,
            "completed {}/{}",
            report.completed,
            report.attempted
        );
        assert!(report.final_members >= initial / 2);
        let _ = report.sustained(initial);
    }
}
