//! `bench_edge`: heavy client traffic measured *at the service boundary*.
//!
//! Every other experiment in this suite measures the overlay from inside;
//! this one stands 1000+ simulated clients in front of an `atum-edge`
//! gateway backed by a 32-node `atum-net` cluster and measures what the
//! *clients* see while the PR 8 fault plane partitions and kills backends
//! underneath them. Three phases:
//!
//! 1. **Faults** — the client fleet runs publish traffic (a slice of it
//!    retrying writes under idempotency keys) while an injector cycles
//!    partition + backend-kill waves. Gates: success ratio ≥ 0.95, zero
//!    duplicate applies, and at least one breaker completing a full
//!    open → half-open → closed cycle after the faults heal.
//! 2. **Overload** — the backend is slowed and a pipelined burst exceeds
//!    the admission queue. Gate: the gateway *sheds* (machine-readable
//!    `Overloaded` replies, bounded wall clock) instead of collapsing,
//!    and still answers health probes afterwards.
//! 3. **Drain** — a request is in flight when the gateway shuts down.
//!    Gate: readiness flips first, the in-flight request completes, the
//!    listener refuses new connections.
//!
//! Emits one `figure: "edge_gateway"` BenchRecord (`runtime: "tcp"`).
//! Run with `--json BENCH_edge.json`; `ATUM_FULL=1` scales the fleet up.
//! A panic anywhere in the process fails the `panics == 0` gate.

#![forbid(unsafe_code)]

use atum_bench::{count_panics, panics, print_header, scaled, BenchRecord};
use atum_core::CollectingApp;
use atum_edge::{
    BreakerConfig, EdgeBackend, EdgeBackendError, EdgeClient, EdgeConfig, EdgeGateway, EdgeOp,
    EdgeRequest, EdgeStatus,
};
use atum_net::{NetCluster, NetClusterBuilder, RuntimeConfig};
use atum_types::{Duration, NodeId, Params};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as StdInstant};

const FIGURE: &str = "edge_gateway";

fn main() {
    atum_bench::init_obs();
    count_panics();
    print_header(
        FIGURE,
        "client goodput, shedding and recovery at the gateway under backend faults",
    );
    run_edge();
}

/// The gateway's bridge onto a live `NetCluster`: publishes become
/// broadcasts issued on the target backend node's reactor, fetches are
/// served from the node's delivered log. A shared "down" set models
/// killed backends (the gateway-visible symptom of a dead process), and
/// `slow_ms` models a saturated backend for the overload phase.
struct ClusterBackend {
    cluster: Arc<NetCluster<CollectingApp>>,
    down: Mutex<BTreeSet<NodeId>>,
    slow_ms: AtomicU64,
    /// op id → times the write actually applied (duplicate-apply audit).
    applies: Mutex<BTreeMap<u64, u64>>,
}

impl EdgeBackend for ClusterBackend {
    fn nodes(&self) -> Vec<NodeId> {
        self.cluster.node_ids()
    }

    fn execute(
        &self,
        node: NodeId,
        op: &EdgeOp,
        deadline: StdInstant,
    ) -> Result<Vec<u8>, EdgeBackendError> {
        let slow = self.slow_ms.load(Ordering::Relaxed);
        if slow > 0 {
            std::thread::sleep(StdDuration::from_millis(slow));
        }
        if self.down.lock().expect("down set").contains(&node) {
            return Err(EdgeBackendError::Unavailable);
        }
        match op {
            EdgeOp::Publish { topic, .. } | EdgeOp::Append { stream: topic, .. } => {
                let payload = atum_apps::edge::broadcast_payload(op)
                    .ok_or(EdgeBackendError::Rejected("not a write"))?;
                let handle = self
                    .cluster
                    .node(node)
                    .ok_or(EdgeBackendError::Unavailable)?;
                let (tx, rx) = std::sync::mpsc::channel();
                handle.call(move |n, ctx| {
                    let _ = tx.send(n.broadcast(payload, ctx).is_ok());
                });
                let wait = deadline
                    .saturating_duration_since(StdInstant::now())
                    .min(StdDuration::from_secs(1));
                match rx.recv_timeout(wait) {
                    Ok(true) => {
                        *self
                            .applies
                            .lock()
                            .expect("applies")
                            .entry(*topic)
                            .or_insert(0) += 1;
                        Ok(Vec::new())
                    }
                    Ok(false) => Err(EdgeBackendError::Unavailable),
                    Err(_) => Err(EdgeBackendError::Timeout),
                }
            }
            EdgeOp::Fetch { .. } => {
                let handle = self
                    .cluster
                    .node(node)
                    .ok_or(EdgeBackendError::Unavailable)?;
                handle
                    .with_node(|n| (n.app().delivered().len() as u64).to_le_bytes().to_vec())
                    .ok_or(EdgeBackendError::Timeout)
            }
            EdgeOp::Health | EdgeOp::Stats => Ok(Vec::new()),
        }
    }
}

/// Per-status reply tallies shared across driver threads.
#[derive(Default)]
struct Totals {
    ok: AtomicU64,
    duplicate: AtomicU64,
    overloaded: AtomicU64,
    unavailable: AtomicU64,
    deadline: AtomicU64,
    other: AtomicU64,
    io_errors: AtomicU64,
    sent: AtomicU64,
}

impl Totals {
    fn count(&self, status: EdgeStatus) {
        match status {
            EdgeStatus::Ok => &self.ok,
            EdgeStatus::Duplicate => &self.duplicate,
            EdgeStatus::Overloaded => &self.overloaded,
            EdgeStatus::Unavailable => &self.unavailable,
            EdgeStatus::DeadlineExceeded => &self.deadline,
            _ => &self.other,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1_000.0
}

fn run_edge() {
    let nodes_n = 32usize;
    let clients = scaled(1_000usize, 4_000);
    let driver_threads = 8usize;
    let fault_cycles = scaled(2u32, 4);
    let seed = 97u64;
    let wall_start = StdInstant::now();

    println!("building {nodes_n}-node backend cluster ...");
    let cluster = NetClusterBuilder::new(nodes_n, 0)
        .params(
            Params::default()
                .with_round(Duration::from_millis(200))
                .with_group_bounds(3, 6)
                .with_overlay(3, 5)
                .with_failure_detection(Duration::from_secs(12), 3),
        )
        .seed(seed)
        .runtime(RuntimeConfig {
            queue_capacity: 16384,
            ..RuntimeConfig::default()
        })
        .build(|_| CollectingApp::new());
    assert_eq!(cluster.member_count(), nodes_n);
    std::thread::sleep(StdDuration::from_secs(2));
    let cluster = Arc::new(cluster);

    let backend = Arc::new(ClusterBackend {
        cluster: Arc::clone(&cluster),
        down: Mutex::new(BTreeSet::new()),
        slow_ms: AtomicU64::new(0),
        applies: Mutex::new(BTreeMap::new()),
    });
    let gateway = EdgeGateway::start(
        EdgeConfig {
            workers: 4,
            queue_capacity: 64,
            max_attempts: 3,
            breaker: BreakerConfig {
                window: 16,
                failure_rate: 0.5,
                min_volume: 4,
                cooldown: StdDuration::from_millis(750),
                probe_quota: 2,
            },
            seed,
            ..EdgeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn EdgeBackend>,
    )
    .expect("gateway starts");
    let addr = gateway.local_addr();
    let probe = gateway.probe();

    // ---- Phase 1: client fleet vs. fault injector -----------------------
    println!("phase 1: {clients} clients under {fault_cycles} partition/kill cycles ...");
    let totals = Arc::new(Totals::default());
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let all_ids = cluster.node_ids();

    let injector = {
        let backend = Arc::clone(&backend);
        let cluster = Arc::clone(&cluster);
        let all_ids = all_ids.clone();
        std::thread::spawn(move || {
            for cycle in 0..fault_cycles {
                // A rotating 8-node wave goes dark: killed from the
                // gateway's point of view AND partitioned from the rest of
                // the cluster, with the live connections torn down.
                let offset = (cycle as usize * 8) % all_ids.len();
                let wave: Vec<NodeId> = (0..8)
                    .map(|i| all_ids[(offset + i) % all_ids.len()])
                    .collect();
                let rest: Vec<NodeId> = all_ids
                    .iter()
                    .copied()
                    .filter(|id| !wave.contains(id))
                    .collect();
                *backend.down.lock().expect("down set") = wave.iter().copied().collect();
                cluster.faults().partition(&wave, &rest);
                cluster.faults().kill_connections();
                std::thread::sleep(StdDuration::from_millis(2_500));
                backend.down.lock().expect("down set").clear();
                cluster.faults().heal();
                std::thread::sleep(StdDuration::from_millis(2_000));
            }
        })
    };

    let mut drivers = Vec::new();
    for t in 0..driver_threads {
        let totals = Arc::clone(&totals);
        let latencies = Arc::clone(&latencies);
        drivers.push(std::thread::spawn(move || {
            for c in (t..clients).step_by(driver_threads) {
                let Ok(mut client) = EdgeClient::connect(addr, StdDuration::from_secs(5)) else {
                    totals.io_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let op_id = c as u64;
                let keyed = c % 10 == 0;
                let req = EdgeRequest {
                    seq: 1,
                    idempotency_key: keyed.then_some(op_id),
                    deadline_ms: 1_500,
                    op: EdgeOp::Publish {
                        topic: op_id,
                        payload: vec![0xAB; 16],
                    },
                };
                let sends = if keyed { 2 } else { 1 };
                for attempt in 0..sends {
                    totals.sent.fetch_add(1, Ordering::Relaxed);
                    let t0 = StdInstant::now();
                    match client.request(&EdgeRequest {
                        seq: attempt as u64 + 1,
                        ..req.clone()
                    }) {
                        Ok(resp) => {
                            totals.count(resp.status);
                            if matches!(resp.status, EdgeStatus::Ok | EdgeStatus::Duplicate) {
                                latencies
                                    .lock()
                                    .expect("latencies")
                                    .push(t0.elapsed().as_micros() as u64);
                            }
                        }
                        Err(_) => {
                            totals.io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }));
    }
    for d in drivers {
        let _ = d.join();
    }
    let _ = injector.join();
    backend.down.lock().expect("down set").clear();
    cluster.faults().heal();

    // Keep modest traffic flowing until a recovered backend's breaker
    // completes its open → half-open → closed cycle (probes need requests
    // to ride on).
    let mut recovery_ops = 0u64;
    if let Ok(mut client) = EdgeClient::connect(addr, StdDuration::from_secs(5)) {
        let rec_start = StdInstant::now();
        while gateway.snapshot().breaker_full_cycles < 1
            && rec_start.elapsed() < StdDuration::from_secs(15)
        {
            recovery_ops += 1;
            let _ = client.request(&EdgeRequest {
                seq: recovery_ops,
                idempotency_key: None,
                deadline_ms: 1_500,
                op: EdgeOp::Publish {
                    topic: 1_000_000 + recovery_ops,
                    payload: vec![0xCD; 16],
                },
            });
            std::thread::sleep(StdDuration::from_millis(20));
        }
    }

    let phase1 = gateway.snapshot();
    let replied = totals.ok.load(Ordering::Relaxed)
        + totals.duplicate.load(Ordering::Relaxed)
        + totals.overloaded.load(Ordering::Relaxed)
        + totals.unavailable.load(Ordering::Relaxed)
        + totals.deadline.load(Ordering::Relaxed)
        + totals.other.load(Ordering::Relaxed);
    let good = totals.ok.load(Ordering::Relaxed) + totals.duplicate.load(Ordering::Relaxed);
    let sent = totals.sent.load(Ordering::Relaxed);
    let success_ratio = if sent == 0 {
        0.0
    } else {
        good as f64 / sent as f64
    };
    // Duplicate-apply audit: every idempotency-keyed op must have applied
    // at most once, no matter how its retry interleaved with breaker
    // trips.
    let duplicate_applies: u64 = {
        let applies = backend.applies.lock().expect("applies");
        (0..clients as u64)
            .filter(|c| c % 10 == 0)
            .map(|c| applies.get(&c).copied().unwrap_or(0).saturating_sub(1))
            .sum()
    };
    let mut lat = latencies.lock().expect("latencies").clone();
    lat.sort_unstable();
    let p50_ms = percentile(&lat, 0.50);
    let p99_ms = percentile(&lat, 0.99);
    println!(
        "phase 1: sent {sent} replied {replied} good {good} (ratio {success_ratio:.4}) \
         p50 {p50_ms:.1}ms p99 {p99_ms:.1}ms dup_applies {duplicate_applies} \
         breaker cycles {} (opened {})",
        phase1.breaker_full_cycles, phase1.breaker_opened
    );

    // ---- Phase 2: overload sheds instead of collapsing ------------------
    println!("phase 2: pipelined overload burst ...");
    backend.slow_ms.store(30, Ordering::Relaxed);
    let shed_before = gateway.snapshot().shed;
    let burst_conns = 24usize;
    let burst_per_conn = 8usize;
    let burst_start = StdInstant::now();
    let mut burst_clients = Vec::new();
    for b in 0..burst_conns {
        if let Ok(mut client) = EdgeClient::connect(addr, StdDuration::from_secs(5)) {
            for s in 0..burst_per_conn {
                let _ = client.send(&EdgeRequest {
                    seq: (b * burst_per_conn + s) as u64,
                    idempotency_key: None,
                    deadline_ms: 0,
                    op: EdgeOp::Fetch { key: s as u64 },
                });
            }
            burst_clients.push(client);
        }
    }
    let mut overload_replied = 0u64;
    let mut overload_shed_replies = 0u64;
    for client in &mut burst_clients {
        for _ in 0..burst_per_conn {
            match client.recv() {
                Ok(resp) => {
                    overload_replied += 1;
                    if resp.status == EdgeStatus::Overloaded {
                        overload_shed_replies += 1;
                    }
                }
                Err(_) => break,
            }
        }
    }
    let overload_wall_ms = burst_start.elapsed().as_secs_f64() * 1e3;
    drop(burst_clients);
    backend.slow_ms.store(0, Ordering::Relaxed);
    let overload_shed = gateway.snapshot().shed - shed_before;
    // The gateway must still be healthy: a fresh connection's health probe
    // answers Ok / ready.
    let post_overload_health = EdgeClient::connect(addr, StdDuration::from_secs(2))
        .and_then(|mut c| {
            c.request(&EdgeRequest {
                seq: 1,
                idempotency_key: None,
                deadline_ms: 0,
                op: EdgeOp::Health,
            })
        })
        .map(|r| u64::from(r.status == EdgeStatus::Ok))
        .unwrap_or(0);
    println!(
        "phase 2: {overload_replied} replies in {overload_wall_ms:.0}ms, \
         shed {overload_shed} ({overload_shed_replies} Overloaded replies), \
         health after: {post_overload_health}"
    );

    // ---- Phase 3: graceful shutdown drains in-flight work ---------------
    println!("phase 3: graceful shutdown with a request in flight ...");
    backend.slow_ms.store(120, Ordering::Relaxed);
    let mut drain_client =
        EdgeClient::connect(addr, StdDuration::from_secs(10)).expect("drain client connects");
    drain_client
        .send(&EdgeRequest {
            seq: 777,
            idempotency_key: None,
            deadline_ms: 5_000,
            op: EdgeOp::Publish {
                topic: 9_999_999,
                payload: vec![0xEF; 16],
            },
        })
        .expect("drain request sends");
    std::thread::sleep(StdDuration::from_millis(40));
    let ready_before_drain = probe.ready();
    let report = gateway.shutdown();
    let drain_reply_ok = drain_client
        .recv()
        .map(|r| u64::from(r.status == EdgeStatus::Ok && r.seq == 777))
        .unwrap_or(0);
    let ready_after_drain = probe.ready();
    let post_shutdown_refused =
        u64::from(EdgeClient::connect(addr, StdDuration::from_millis(500)).is_err());
    println!(
        "phase 3: drained={} abandoned={} in-flight reply ok={} ready {}→{} refused={}",
        report.drained,
        report.abandoned,
        drain_reply_ok,
        ready_before_drain,
        ready_after_drain,
        post_shutdown_refused
    );

    let members_final = cluster.member_count();
    let snapshot = probe.snapshot();
    let wall = wall_start.elapsed();
    let record = BenchRecord::new(FIGURE, seed)
        .runtime("tcp")
        .param("nodes", nodes_n)
        .param("clients", clients)
        .param("fault_cycles", fault_cycles)
        .param("queue_capacity", 64usize)
        .param("workers", 4usize)
        .metric("sent", sent)
        .metric("replied", replied)
        .metric("success_ratio", success_ratio)
        .metric("p50_ms", p50_ms)
        .metric("p99_ms", p99_ms)
        .metric("duplicate_applies", duplicate_applies)
        .metric("dedup_hits", snapshot.dedup_hits)
        .metric("recovery_ops", recovery_ops)
        .metric("breaker_opened", snapshot.breaker_opened)
        .metric("breaker_half_opened", snapshot.breaker_half_opened)
        .metric("breaker_closed", snapshot.breaker_closed)
        .metric("breaker_full_cycles", snapshot.breaker_full_cycles)
        .metric("overload_shed", overload_shed)
        .metric("overload_shed_replies", overload_shed_replies)
        .metric("overload_replied", overload_replied)
        .metric("overload_wall_ms", overload_wall_ms)
        .metric("post_overload_health", post_overload_health)
        .metric("drained", u64::from(report.drained))
        .metric("drain_reply_ok", drain_reply_ok)
        .metric(
            "ready_flipped_first",
            u64::from(ready_before_drain && !ready_after_drain),
        )
        .metric("post_shutdown_refused", post_shutdown_refused)
        .metric("frame_violations", snapshot.frame_violations)
        .metric("members_final", members_final)
        .metric("io_errors", totals.io_errors.load(Ordering::Relaxed))
        .metric("panics", panics())
        .perf(wall, None);
    atum_bench::emit(&record);
    println!(
        "edge_gateway: ratio {success_ratio:.4}, {} breaker cycles, {} shed, drained={}, \
         members {members_final}/{nodes_n}, panics {} ({:.1}s)",
        snapshot.breaker_full_cycles,
        overload_shed,
        report.drained,
        panics(),
        wall.as_secs_f64()
    );

    drop(probe);
    drop(backend);
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
}
