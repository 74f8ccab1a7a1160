//! The two simulated workloads, `sim_fanout` and `sim_churn`: no sockets,
//! no gateway, no real timers — `core`, `overlay`, `smr`, `crypto` and the
//! `simnet` engine are the whole cost, and under one seed every count and
//! every simulated latency of the fixed window repeats exactly.

use crate::util::{check_payload, make_payload, median, now_ns, percentile, process_cpu_ms};
use crate::{Run, Scale, CLUSTER_SEED, FAILED_RATIO_BOUND};
use atum_core::{AppCtx, Application, AtumMessage, AtumNode, CollectingApp, Delivered};
use atum_sim::{run_churn, Cluster, ClusterBuilder};
use atum_simnet::{NetConfig, NetStats, Simulation};
use atum_types::{Duration, Instant, NodeId, Params};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One delivery as an application saw it: operation, simulated time, hops.
type Entry = (u64, Instant, u32);

/// The benchmark-owned application of `sim_fanout`: checks each payload and
/// keeps `(operation, time, hops)`, not the kilobyte.
struct SimApp {
    payload_bytes: usize,
    log: Vec<Entry>,
    corrupted: u64,
}

impl Application for SimApp {
    fn deliver(&mut self, msg: &Delivered, _ctx: &mut AppCtx) {
        match check_payload(&msg.payload, self.payload_bytes) {
            Some(seq) => self.log.push((seq, msg.at, msg.hops)),
            None => self.corrupted += 1,
        }
    }
}

/// A broadcast the workload scheduled.
struct Sent {
    at: Instant,
    /// Written by the scheduled closure: 1 = the origin accepted it.
    accepted: Arc<AtomicU64>,
}

/// Schedules broadcast `seq` from `origin` at simulated time `at`, timing
/// the call into `AtumNode::broadcast` on the wall clock.
fn schedule<A: Application + 'static>(
    sim: &mut Simulation<AtumMessage, AtumNode<A>>,
    at: Instant,
    origin: NodeId,
    payload: Vec<u8>,
    call_ns: &Arc<AtomicU64>,
) -> Sent {
    let accepted = Arc::new(AtomicU64::new(0));
    let (flag, call_ns) = (Arc::clone(&accepted), Arc::clone(call_ns));
    sim.call_at(at, origin, move |node, ctx| {
        let begin = now_ns();
        let ok = node.broadcast(payload, ctx).is_ok();
        call_ns.fetch_add(now_ns() - begin, Relaxed);
        flag.store(u64::from(ok), Relaxed);
    });
    Sent { at, accepted }
}

/// What a set of nodes' delivery logs say about the scheduled broadcasts.
#[derive(Default)]
struct Outcome {
    /// Send → first delivery, over every (node, broadcast) pair delivered.
    latencies_ms: Vec<f64>,
    /// Accepted broadcasts that some node of the set never delivered.
    incomplete: u64,
    /// Deliveries of a broadcast a node had already delivered (or that
    /// nobody scheduled).
    duplicates: u64,
    hops_total: u64,
    decide_us: Vec<f64>,
    spread_us: Vec<f64>,
    gossip_us: Vec<f64>,
}

/// Folds delivery logs into per-broadcast outcomes. `sent[seq]` is the
/// schedule; only broadcasts in `ops` that their origin accepted count.
fn outcome(logs: &[Vec<Entry>], sent: &[Sent], ops: std::ops::Range<usize>) -> Outcome {
    let mut per_op: Vec<Vec<(Instant, u32)>> = vec![Vec::new(); sent.len()];
    let mut out = Outcome::default();
    for log in logs {
        let mut seen = vec![false; sent.len()];
        for &(seq, at, hops) in log {
            let first_time = seen
                .get_mut(seq as usize)
                .is_some_and(|slot| !std::mem::replace(slot, true));
            if first_time {
                per_op[seq as usize].push((at, hops));
            } else {
                out.duplicates += 1;
            }
        }
    }
    for seq in ops {
        let deliveries = &per_op[seq];
        if sent[seq].accepted.load(Relaxed) != 1 {
            continue;
        }
        out.incomplete += u64::from(deliveries.len() != logs.len());
        if deliveries.is_empty() {
            continue;
        }
        let since = |t: Instant| t.saturating_since(sent[seq].at).as_micros() as f64;
        let origin_group = || deliveries.iter().filter(|d| d.1 == 0).map(|d| d.0);
        let first0 = origin_group().min().map(since).unwrap_or(0.0);
        let last0 = origin_group().max().map(since).unwrap_or(0.0);
        let last = deliveries
            .iter()
            .map(|d| d.0)
            .max()
            .map(since)
            .unwrap_or(0.0);
        out.decide_us.push(first0);
        out.spread_us.push(last0 - first0);
        out.gossip_us.push(last - last0);
        for &(at, hops) in deliveries {
            out.latencies_ms.push(since(at) / 1e3);
            out.hops_total += u64::from(hops);
        }
    }
    out.latencies_ms.sort_by(f64::total_cmp);
    out
}

fn delta(window: &(NetStats, NetStats), field: fn(&NetStats) -> u64) -> f64 {
    (field(&window.1) - field(&window.0)) as f64
}

/// What both simulated workloads measure the same way.
struct Measured {
    /// Process start → the measured simulated time begins, seconds.
    setup_s: f64,
    /// Outcome of the broadcasts, over the members compared.
    out: Outcome,
    /// Operations the per-operation metrics divide by.
    ops_done: f64,
    cpu_ms: f64,
    /// Wall-clock nanoseconds inside `AtumNode::broadcast`, and its calls.
    call_ns: u64,
    calls: f64,
    /// Simulator counters before and after the measured simulated time.
    window: (NetStats, NetStats),
    /// Events per wall-clock second, one sample per slice of the run.
    rates: Vec<f64>,
}

fn report(run: &mut Run, mut m: Measured) {
    run.put("setup_s", m.setup_s);
    run.put("deliver_p50_ms", percentile(&m.out.latencies_ms, 50.0));
    run.put("deliver_p90_ms", percentile(&m.out.latencies_ms, 90.0));
    run.put("deliver_p99_ms", percentile(&m.out.latencies_ms, 99.0));
    run.put("cpu_ms_per_op", m.cpu_ms / m.ops_done.max(1.0));
    run.put(
        "wire_bytes_per_op",
        delta(&m.window, |s| s.bytes_sent) / m.ops_done.max(1.0),
    );
    run.note("samples", m.out.latencies_ms.len() as f64);
    run.put("sim_events_per_s", median(&mut m.rates));
    run.put(
        "simnet.msgs_dropped",
        delta(&m.window, |s| s.messages_dropped),
    );
    run.put(
        "overlay.mean_hops",
        m.out.hops_total as f64 / m.out.latencies_ms.len().max(1) as f64,
    );
    run.put("core.duplicate_deliveries", m.out.duplicates as f64);
    // The same stages as on the socket workloads, on the simulated clock;
    // `core_broadcast` is the mean wall-clock cost of the call itself.
    run.put(
        "stage.core_broadcast_us",
        m.call_ns as f64 / 1e3 / m.calls.max(1.0),
    );
    run.put("stage.smr_decide_us", median(&mut m.out.decide_us));
    run.put("stage.vgroup_spread_us", median(&mut m.out.spread_us));
    run.put("stage.gossip_us", median(&mut m.out.gossip_us));
    // Nothing is stamped on the simulated workloads that is not always on.
    run.put("bench.trace_overhead_ratio", 1.0);
    if m.out.duplicates > 0 {
        run.errors
            .push(format!("{} duplicate deliveries", m.out.duplicates));
    }
}

// ---------------------------------------------------------------- sim_fanout

const FANOUT_NODES: usize = 120;
const FANOUT_PAYLOAD: usize = 1024;
/// One broadcast every 50 simulated ms.
const PER_SIM_SECOND: usize = 20;
/// Simulated seconds of load per requested wall-clock second: a run's
/// inputs depend on `(seed, seconds)` alone, so its counts and simulated
/// latencies repeat exactly; the factor makes a run last about `seconds`
/// on the two cores this was sized on.
const FANOUT_SIM_S_PER_S: f64 = 4.0;
/// Simulated seconds of load before the measured ones: two delivery
/// latencies (p99 is 4 simulated s), so the measured window opens with as
/// many broadcasts in flight as it closes with. It also makes set-up a
/// second of real work, not twenty milliseconds of allocation.
const FANOUT_WARM_S: usize = 8;
const SETTLE: Duration = Duration::from_secs(30);

fn fanout_cluster() -> Cluster<SimApp> {
    let params = Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5);
    let mut cluster = ClusterBuilder::new(FANOUT_NODES)
        .params(params)
        .net(NetConfig::lan())
        .seed(CLUSTER_SEED)
        .build(|_| SimApp {
            payload_bytes: FANOUT_PAYLOAD,
            log: Vec::new(),
            corrupted: 0,
        });
    cluster.sim.run_for(Duration::from_secs(2));
    cluster
}

/// One run of `sim_fanout`.
pub fn run_fanout(name: &str, seed: u64, scale: &Scale) -> Run {
    let mut cluster = fanout_cluster();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let origins = cluster.correct_nodes();
    let call_ns = Arc::new(AtomicU64::new(0));
    let mut sent: Vec<Sent> = Vec::new();
    // One simulated second of load; returns events per wall-clock second.
    let mut second = |cluster: &mut Cluster<SimApp>, sent: &mut Vec<Sent>| {
        let start = cluster.sim.now();
        for i in 0..PER_SIM_SECOND {
            let at = start + Duration::from_millis((1000 / PER_SIM_SECOND * i) as u64);
            let origin = *origins.choose(&mut rng).expect("120 origins");
            let payload = make_payload(sent.len() as u64, FANOUT_PAYLOAD, &mut rng);
            sent.push(schedule(&mut cluster.sim, at, origin, payload, &call_ns));
        }
        let (wall, events) = (now_ns(), cluster.sim.stats().events_processed);
        cluster.sim.run_for(Duration::from_secs(1));
        (cluster.sim.stats().events_processed - events) as f64 * 1e9 / (now_ns() - wall) as f64
    };

    for _ in 0..FANOUT_WARM_S {
        second(&mut cluster, &mut sent);
    }
    let first = sent.len();
    let before = cluster.sim.stats().clone();
    let setup_s = now_ns() as f64 / 1e9;
    let cpu_begin = process_cpu_ms();
    let load_s = (scale.seconds * FANOUT_SIM_S_PER_S).round().max(2.0) as usize;
    let rates: Vec<f64> = (0..load_s)
        .map(|_| second(&mut cluster, &mut sent))
        .collect();
    cluster.sim.run_for(SETTLE);
    let cpu_ms = process_cpu_ms() - cpu_begin;
    let window = (before, cluster.sim.stats().clone());

    let mut corrupted = 0;
    let logs: Vec<Vec<Entry>> = origins
        .iter()
        .map(|&id| {
            let app = cluster.sim.node(id).expect("hosted").app();
            corrupted += app.corrupted;
            app.log.clone()
        })
        .collect();
    let out = outcome(&logs, &sent, first..sent.len());
    let measured = &sent[first..];
    let refused = measured
        .iter()
        .filter(|s| s.accepted.load(Relaxed) != 1)
        .count() as u64;

    let mut run = Run::new(name);
    run.attempted = measured.len() as u64;
    run.failed = refused + out.incomplete;
    run.put("failed_ratio", run.failed as f64 / run.attempted as f64);
    if corrupted > 0 {
        run.errors.push(format!("{corrupted} corrupted payloads"));
    }
    if run.failed as f64 > FAILED_RATIO_BOUND * run.attempted as f64 {
        // With every member correct and present throughout, a missing
        // delivery is also a difference between members' delivered sets.
        run.errors.push(format!(
            "{refused} broadcasts refused, {} missing on some member after {} simulated s",
            out.incomplete,
            SETTLE.as_secs_f64()
        ));
    }
    let count = measured.len() as f64;
    run.put(
        "simnet.events_per_broadcast",
        delta(&window, |s| s.events_processed) / count,
    );
    run.put(
        "simnet.msgs_per_broadcast",
        delta(&window, |s| s.messages_sent) / count,
    );
    run.put(
        "simnet.bytes_per_broadcast",
        delta(&window, |s| s.bytes_sent) / count,
    );
    let ops_done = (run.attempted - run.failed) as f64;
    report(
        &mut run,
        Measured {
            setup_s,
            out,
            ops_done,
            cpu_ms,
            call_ns: call_ns.load(Relaxed),
            calls: sent.len() as f64,
            window,
            rates,
        },
    );
    run
}

// ----------------------------------------------------------------- sim_churn

const CHURN_NODES: usize = 200;
const CHURN_BYZANTINE: usize = 10;
const CHURN_PAYLOAD: usize = 256;
const CHURN_RATE_PER_MINUTE: f64 = 20.0;
const REJOIN_PAUSE: Duration = Duration::from_secs(5);
/// Simulated seconds of churn per requested wall-clock second (see
/// [`FANOUT_SIM_S_PER_S`]); `run_churn` then drains for 300 simulated s.
const CHURN_SIM_S_PER_S: f64 = 40.0;

fn churn_cluster() -> Cluster<CollectingApp> {
    let params = Params::default()
        .with_round(Duration::from_millis(500))
        .with_group_bounds(3, 10)
        .with_overlay(3, 5)
        .with_failure_detection(Duration::from_secs(5), 3);
    let mut cluster = ClusterBuilder::new(CHURN_NODES)
        .params(params)
        .net(NetConfig::lan())
        .seed(CLUSTER_SEED)
        .byzantine(CHURN_BYZANTINE)
        .build(|_| CollectingApp::new());
    cluster.sim.run_for(Duration::from_secs(2));
    cluster
}

/// One run of `sim_churn`: leave/re-join cycles are the operations; the
/// background broadcasts show what churn does to the broadcast path.
pub fn run_churn_workload(name: &str, seed: u64, scale: &Scale) -> Run {
    let mut cluster = churn_cluster();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let correct = cluster.correct_nodes();
    let call_ns = Arc::new(AtomicU64::new(0));
    // `run_churn` takes each node as a victim once, and 190 correct nodes
    // at a cycle every three simulated seconds last 570 of them.
    let churn_s = (scale.seconds * CHURN_SIM_S_PER_S)
        .round()
        .clamp(30.0, 540.0) as u64;
    let before = cluster.sim.stats().clone();
    let churn_begin = cluster.sim.now();
    // `run_churn` starts cycling after two simulated seconds.
    let sent: Vec<Sent> = (0..churn_s)
        .map(|i| {
            let at = churn_begin + Duration::from_secs(2 + i);
            let origin = *correct.choose(&mut rng).expect("correct nodes");
            let payload = make_payload(i, CHURN_PAYLOAD, &mut rng);
            schedule(&mut cluster.sim, at, origin, payload, &call_ns)
        })
        .collect();
    let (wall, cpu_begin) = (now_ns(), process_cpu_ms());
    let setup_s = wall as f64 / 1e9;
    let churn = run_churn(
        &mut cluster,
        CHURN_RATE_PER_MINUTE,
        Duration::from_secs(churn_s),
        REJOIN_PAUSE,
        seed,
    );
    let wall_s = (now_ns() - wall) as f64 / 1e9;
    let cpu_ms = process_cpu_ms() - cpu_begin;
    let window = (before, cluster.sim.stats().clone());

    // Delivered-id sets are compared over the correct nodes that stayed
    // members throughout: never a victim, and never moved between vgroups
    // (`joined_at` is refreshed on every non-member → member transition).
    let stayed: Vec<NodeId> = correct
        .iter()
        .copied()
        .filter(|id| !churn.cycles.iter().any(|c| c.victim == *id))
        .filter(|&id| {
            cluster.sim.node(id).is_some_and(|n| {
                n.is_member() && n.stats.joined_at.is_none_or(|t| t <= churn_begin)
            })
        })
        .collect();
    let mut corrupted = 0u64;
    let mut logs_of = |nodes: &[NodeId]| -> Vec<Vec<Entry>> {
        nodes
            .iter()
            .map(|&id| {
                let app = cluster.sim.node(id).expect("hosted").app();
                app.delivered()
                    .iter()
                    .filter_map(|d| match check_payload(&d.payload, CHURN_PAYLOAD) {
                        Some(seq) => Some((seq, d.at, d.hops)),
                        None => {
                            corrupted += 1;
                            None
                        }
                    })
                    .collect()
            })
            .collect()
    };
    // Latencies come from every correct node, wherever churn moved it;
    // completeness and duplicates only make sense on those that stayed.
    let mut out = outcome(&logs_of(&correct), &sent, 0..sent.len());
    let redelivered = std::mem::take(&mut out.duplicates);
    let among_stayed = outcome(&logs_of(&stayed), &sent, 0..sent.len());
    out.duplicates = among_stayed.duplicates;
    out.incomplete = among_stayed.incomplete;
    let accepted = sent
        .iter()
        .filter(|s| s.accepted.load(Relaxed) == 1)
        .count();

    let mut run = Run::new(name);
    run.attempted = churn.attempted as u64;
    run.failed = (churn.attempted - churn.completed) as u64;
    // Broadcasts that some member which stayed throughout never got are a
    // known cost of churn in this implementation (README, "Findings"), so
    // they are a layer metric here, not failed operations of the workload.
    run.put(
        "failed_ratio",
        (run.failed + out.incomplete) as f64 / (churn.attempted + accepted).max(1) as f64,
    );
    run.note("broadcasts_accepted", accepted as f64);
    run.note("broadcasts_incomplete", out.incomplete as f64);
    run.note("members_compared", stayed.len() as f64);
    run.note("redelivered_on_moved_nodes", redelivered as f64);
    if corrupted > 0 {
        run.errors.push(format!("{corrupted} corrupted payloads"));
    }
    let mut rejoin: Vec<f64> = churn
        .cycles
        .iter()
        .filter_map(|c| Some(c.completed_at_secs? - c.left_at_secs))
        .collect();
    rejoin.sort_by(f64::total_cmp);
    run.put("sim_rejoin_p50_s", percentile(&rejoin, 50.0));
    run.put("sim_rejoin_p90_s", percentile(&rejoin, 90.0));
    run.put(
        "simnet.events_per_cycle",
        delta(&window, |s| s.events_processed) / churn.attempted.max(1) as f64,
    );
    run.put(
        "core.ghost_entries_healable",
        churn.ghost_audit.healable() as f64,
    );
    run.put("core.stalled_cycles", run.failed as f64);
    let rates = vec![delta(&window, |s| s.events_processed) / wall_s];
    report(
        &mut run,
        Measured {
            setup_s,
            out,
            ops_done: churn.completed as f64,
            cpu_ms,
            call_ns: call_ns.load(Relaxed),
            calls: sent.len() as f64,
            window,
            rates,
        },
    );
    run
}
