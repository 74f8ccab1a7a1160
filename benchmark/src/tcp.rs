//! The two socket workloads, `edge_async` and `node_sync`: a 12-member
//! loopback cluster under an open-loop load, measured from outside.
//!
//! Everything the run learns comes from three places: stamps the
//! benchmark's own [`Application`] and [`EdgeBackend`] take around calls
//! into the product, public counters read before and after the timed
//! window, and the wall clock of the load generator.

use crate::util::{
    check_payload, highest_supported_percentile, make_payload, median, now_ns, percentile,
    process_cpu_ms, sleep_until,
};
use crate::{trace, Run, Scale, CLUSTER_SEED, FAILED_RATIO_BOUND};
use atum_core::{AppCtx, Application, Delivered};
use atum_edge::client::request_frame;
use atum_edge::{
    EdgeBackend, EdgeBackendError, EdgeConfig, EdgeGateway, EdgeOp, EdgeRequest, EdgeResponse,
    EdgeStatus,
};
use atum_net::{AggregateStats, NetCluster, NetClusterBuilder, RuntimeConfig};
use atum_types::wire::{
    decode_exact, FRAME_HEADER_LEN, FRAME_KIND_EDGE_RESPONSE, FRAME_MAGIC, WIRE_VERSION,
};
use atum_types::{Duration, NodeId, Params, SmrMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// Members of the cluster: three vgroups of four.
const MEMBERS: usize = 12;
/// Raw payload bytes per operation.
const PAYLOAD_BYTES: usize = 1024;
/// Health probes ride on the request connection with this bit set in `seq`.
const HEALTH_BIT: u64 = 1 << 62;
/// A `Health` probe every 100 ms.
const HEALTH_PERIOD_NS: u64 = 100_000_000;
/// A run whose generator ran later than this at p99 is invalid.
const LATE_P99_LIMIT_MS: f64 = 5.0;
/// How long the last operations may take to reach every member (normally
/// about a second); what is still missing then has failed.
const SETTLE: StdDuration = StdDuration::from_secs(30);

/// What distinguishes the two socket workloads.
pub struct TcpWorkload {
    /// Through the gateway (`edge_async`) or straight onto `NodeHandle`s.
    pub edge: bool,
    smr: SmrMode,
    round_ms: Option<u64>,
    bounds: (usize, usize),
    /// Open-loop rate, operations per second.
    pub rate: u64,
}

/// The ROADMAP path: client → gateway → backend → SMR → gossip → delivery.
pub const EDGE_ASYNC: TcpWorkload = TcpWorkload {
    edge: true,
    smr: SmrMode::Asynchronous,
    round_ms: None,
    bounds: (4, 8),
    rate: 200,
};

/// Round-timer-bound broadcasts issued directly on the nodes.
pub const NODE_SYNC: TcpWorkload = TcpWorkload {
    edge: false,
    smr: SmrMode::Synchronous,
    round_ms: Some(250),
    bounds: (3, 6),
    rate: 600,
};

/// Every stamp of one operation, nanoseconds on the process clock; 0 means
/// "not taken" (`first0` starts at `u64::MAX` so `fetch_min` works).
#[derive(Default)]
struct Slot {
    due: AtomicU64,
    sent: AtomicU64,
    exec: AtomicU64,
    callq: AtomicU64,
    call: AtomicU64,
    bcast: AtomicU64,
    first0: AtomicU64,
    last0: AtomicU64,
    done: AtomicU64,
    ack: AtomicU64,
    /// One bit per member that delivered the operation.
    mask: AtomicU32,
    attempts: AtomicU32,
    /// 0 = no outcome yet, 1 = accepted, 2 = refused.
    status: AtomicU32,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            first0: AtomicU64::new(u64::MAX),
            ..Slot::default()
        }
    }

    /// Records the outcome the operation's issuer learnt, and when.
    fn settle(&self, accepted: bool) {
        let status = if accepted { ACCEPTED } else { REFUSED };
        self.status.store(status, Relaxed);
        self.ack.store(now_ns(), Relaxed);
    }
}

const ACCEPTED: u32 = 1;
const REFUSED: u32 = 2;

/// State shared by the generator, the backend and the twelve applications.
/// Every field is a standalone statistic read after the threads that write
/// it have been joined, hence `Relaxed` throughout.
struct Shared {
    slots: Vec<Slot>,
    /// Operations from this index on take the full set of stamps.
    trace_from: usize,
    edge: bool,
    complete: AtomicU64,
    duplicates: AtomicU64,
    corrupted: AtomicU64,
}

impl Shared {
    fn traced(&self, seq: usize) -> bool {
        seq >= self.trace_from
    }
}

/// The benchmark-owned application: counts deliveries per (operation,
/// member), checks payloads, and stamps delivery times.
struct BenchApp {
    member: u32,
    shared: Arc<Shared>,
}

impl Application for BenchApp {
    fn deliver(&mut self, msg: &Delivered, _ctx: &mut AppCtx) {
        let shared = &*self.shared;
        let decoded;
        let raw: &[u8] = if shared.edge {
            match atum_apps::edge::decode_broadcast(&msg.payload) {
                Some((_, data)) => {
                    decoded = data;
                    &decoded
                }
                None => {
                    shared.corrupted.fetch_add(1, Relaxed);
                    return;
                }
            }
        } else {
            &msg.payload
        };
        let Some(seq) = check_payload(raw, PAYLOAD_BYTES) else {
            shared.corrupted.fetch_add(1, Relaxed);
            return;
        };
        let Some(slot) = shared.slots.get(seq as usize) else {
            shared.corrupted.fetch_add(1, Relaxed);
            return;
        };
        let bit = 1u32 << self.member;
        let before = slot.mask.fetch_or(bit, Relaxed);
        if before & bit != 0 {
            shared.duplicates.fetch_add(1, Relaxed);
            return;
        }
        if shared.traced(seq as usize) && msg.hops == 0 {
            let now = now_ns();
            slot.first0.fetch_min(now, Relaxed);
            slot.last0.fetch_max(now, Relaxed);
        }
        if before | bit == (1u32 << MEMBERS) - 1 {
            slot.done.store(now_ns(), Relaxed);
            shared.complete.fetch_add(1, Relaxed);
        }
    }
}

/// Issues one broadcast on `origin`'s reactor, stamping around the calls
/// into `NodeHandle::call` and `AtumNode::broadcast`. `on_result` runs on
/// the reactor with the outcome.
fn call_broadcast(
    cluster: &NetCluster<BenchApp>,
    shared: &Arc<Shared>,
    origin: NodeId,
    seq: usize,
    payload: Vec<u8>,
    on_result: impl FnOnce(bool) + Send + 'static,
) -> bool {
    let Some(handle) = cluster.node(origin) else {
        return false;
    };
    let traced = shared.traced(seq);
    let shared = Arc::clone(shared);
    if traced {
        shared.slots[seq].callq.store(now_ns(), Relaxed);
    }
    handle.call(move |node, ctx| {
        let started = if traced { now_ns() } else { 0 };
        let ok = node.broadcast(payload, ctx).is_ok();
        if traced {
            let slot = &shared.slots[seq];
            slot.call.store(started, Relaxed);
            slot.bcast.store(now_ns(), Relaxed);
        }
        on_result(ok);
    });
    true
}

/// The benchmark-owned gateway backend: a `Publish` becomes a broadcast on
/// the backend node the gateway chose.
struct Backend {
    cluster: Arc<NetCluster<BenchApp>>,
    shared: Arc<Shared>,
}

impl EdgeBackend for Backend {
    fn nodes(&self) -> Vec<NodeId> {
        self.cluster.node_ids()
    }

    fn execute(
        &self,
        node: NodeId,
        op: &EdgeOp,
        deadline: std::time::Instant,
    ) -> Result<Vec<u8>, EdgeBackendError> {
        let EdgeOp::Publish { topic, .. } = op else {
            return Ok(Vec::new());
        };
        let seq = *topic as usize;
        let slot = self
            .shared
            .slots
            .get(seq)
            .ok_or(EdgeBackendError::Rejected("unknown operation"))?;
        slot.attempts.fetch_add(1, Relaxed);
        if self.shared.traced(seq) {
            // Only the first attempt's entry counts as t2.
            let _ = slot.exec.compare_exchange(0, now_ns(), Relaxed, Relaxed);
        }
        let payload = atum_apps::edge::broadcast_payload(op)
            .ok_or(EdgeBackendError::Rejected("not a write"))?;
        let (tx, rx) = std::sync::mpsc::channel();
        let issued = call_broadcast(&self.cluster, &self.shared, node, seq, payload, move |ok| {
            let _ = tx.send(ok);
        });
        if !issued {
            return Err(EdgeBackendError::Unavailable);
        }
        let wait = deadline
            .saturating_duration_since(std::time::Instant::now())
            .min(StdDuration::from_secs(1));
        match rx.recv_timeout(wait) {
            Ok(true) => Ok(Vec::new()),
            Ok(false) => Err(EdgeBackendError::Unavailable),
            Err(_) => Err(EdgeBackendError::Timeout),
        }
    }
}

/// Reads edge response frames off a stream with a read timeout, keeping
/// partial frames across timeouts.
struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ResponseReader {
    /// The next response, or `None` when the read timed out first.
    fn next(&mut self) -> std::io::Result<Option<EdgeResponse>> {
        loop {
            if self.buf.len() >= FRAME_HEADER_LEN {
                let header = &self.buf[..FRAME_HEADER_LEN];
                if header[0..2] != FRAME_MAGIC
                    || header[2] != WIRE_VERSION
                    || header[3] != FRAME_KIND_EDGE_RESPONSE
                {
                    return Err(std::io::Error::other("bad response frame header"));
                }
                let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
                let end = FRAME_HEADER_LEN + len;
                if self.buf.len() >= end {
                    let response = decode_exact::<EdgeResponse>(&self.buf[FRAME_HEADER_LEN..end])
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    self.buf.drain(..end);
                    return Ok(Some(response));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A standing cluster, with a gateway in front on `edge_async`.
struct System {
    cluster: Arc<NetCluster<BenchApp>>,
    gateway: Option<EdgeGateway>,
    shared: Arc<Shared>,
}

impl System {
    fn start(w: &TcpWorkload, slots: usize, trace_from: usize) -> System {
        let shared = Arc::new(Shared {
            slots: (0..slots).map(|_| Slot::new()).collect(),
            trace_from,
            edge: w.edge,
            complete: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
        });
        let mut params = Params::default()
            .with_smr(w.smr)
            .with_group_bounds(w.bounds.0, w.bounds.1)
            .with_overlay(3, 5)
            .with_failure_detection(Duration::from_secs(10), 3);
        if let Some(ms) = w.round_ms {
            params = params.with_round(Duration::from_millis(ms));
        }
        let cluster = NetClusterBuilder::new(MEMBERS, 0)
            .params(params)
            .seed(CLUSTER_SEED)
            .group_size(4)
            .runtime(RuntimeConfig {
                queue_capacity: 262_144,
                ..RuntimeConfig::default()
            })
            .build(|id| BenchApp {
                member: id.raw() as u32,
                shared: Arc::clone(&shared),
            });
        let cluster = Arc::new(cluster);
        let gateway = w.edge.then(|| {
            EdgeGateway::start(
                EdgeConfig {
                    seed: CLUSTER_SEED,
                    ..EdgeConfig::default()
                },
                Arc::new(Backend {
                    cluster: Arc::clone(&cluster),
                    shared: Arc::clone(&shared),
                }),
            )
            .expect("gateway binds a loopback port")
        });
        System {
            cluster,
            gateway,
            shared,
        }
    }

    /// Opens the one client connection.
    fn connect(&self) -> Option<TcpStream> {
        let gateway = self.gateway.as_ref()?;
        let stream = TcpStream::connect_timeout(&gateway.local_addr(), StdDuration::from_secs(5))
            .expect("gateway accepts the client connection");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_write_timeout(Some(StdDuration::from_secs(5)))
            .expect("write timeout");
        Some(stream)
    }

    /// Waits until `target` operations are delivered on every member.
    fn wait_complete(&self, target: u64, timeout: StdDuration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.shared.complete.load(Relaxed) < target {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
        true
    }

    fn stop(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        // The gateway's backend held the other reference.
        if let Ok(cluster) = Arc::try_unwrap(self.cluster) {
            cluster.shutdown();
        }
    }
}

/// Sends operations `range` on their schedule (`due = start + (i - first) *
/// period`), through the gateway connection or directly on the nodes.
struct Generator<'a> {
    system: &'a System,
    stream: Option<TcpStream>,
    rng: ChaCha8Rng,
    period_ns: u64,
    late_ns: Vec<u64>,
    health_sent: &'a [AtomicU64],
    next_health: usize,
}

impl Generator<'_> {
    fn send(&mut self, range: std::ops::Range<usize>, start_ns: u64) {
        let first = range.start;
        let mut next_health_due = start_ns;
        for seq in range {
            let due = start_ns + (seq - first) as u64 * self.period_ns;
            sleep_until(due);
            let begin = now_ns();
            self.late_ns.push(begin.saturating_sub(due));
            let payload = make_payload(seq as u64, PAYLOAD_BYTES, &mut self.rng);
            let shared = &self.system.shared;
            let slot = &shared.slots[seq];
            slot.due.store(due, Relaxed);
            match &mut self.stream {
                Some(stream) => {
                    let frame = request_frame(&EdgeRequest {
                        seq: seq as u64,
                        idempotency_key: None,
                        deadline_ms: 0,
                        op: EdgeOp::Publish {
                            topic: seq as u64,
                            payload,
                        },
                    });
                    // Stamped before the write: the write wakes the gateway,
                    // which on two cores can run before this thread does again.
                    slot.sent.store(now_ns(), Relaxed);
                    stream.write_all(&frame).expect("request written");
                    if due >= next_health_due && self.next_health < self.health_sent.len() {
                        next_health_due += HEALTH_PERIOD_NS;
                        let probe = request_frame(&EdgeRequest {
                            seq: HEALTH_BIT | self.next_health as u64,
                            idempotency_key: None,
                            deadline_ms: 0,
                            op: EdgeOp::Health,
                        });
                        self.health_sent[self.next_health].store(now_ns(), Relaxed);
                        self.next_health += 1;
                        stream.write_all(&probe).expect("probe written");
                    }
                }
                None => {
                    let origin = NodeId::new((seq % MEMBERS) as u64);
                    let result = Arc::clone(shared);
                    slot.sent.store(begin, Relaxed);
                    call_broadcast(
                        &self.system.cluster,
                        shared,
                        origin,
                        seq,
                        payload,
                        move |ok| result.slots[seq].settle(ok),
                    );
                }
            }
        }
    }
}

/// Stores gateway replies into the slots until `stop` is set and the
/// connection has gone quiet.
fn read_replies(
    mut reader: ResponseReader,
    shared: &Shared,
    health_ack: &[AtomicU64],
    stop: &AtomicBool,
) {
    loop {
        match reader.next() {
            Ok(Some(response)) => {
                if response.seq & HEALTH_BIT != 0 {
                    if let Some(ack) = health_ack.get((response.seq & !HEALTH_BIT) as usize) {
                        ack.store(now_ns(), Relaxed);
                    }
                } else if let Some(slot) = shared.slots.get(response.seq as usize) {
                    slot.settle(response.status == EdgeStatus::Ok);
                }
            }
            Ok(None) if stop.load(Relaxed) => return,
            Ok(None) => {}
            Err(e) => {
                eprintln!("reply reader stopped: {e}");
                return;
            }
        }
    }
}

fn us(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e3
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One run of a socket workload.
pub fn run(w: &TcpWorkload, name: &str, seed: u64, scale: &Scale, traced: bool) -> Run {
    let period_ns = 1_000_000_000 / w.rate;
    let warm_ops = (scale.warmup_s * w.rate as f64) as usize;
    let timed_ops = ((scale.seconds * w.rate as f64) as usize).max(1);
    let total = warm_ops + timed_ops;
    // A traced run measures its first half untraced, so the cost of the
    // stamps is the ratio between the halves.
    let trace_from = if traced {
        warm_ops + timed_ops / 2
    } else {
        total
    };
    let probes = if w.edge {
        (total as u64 * period_ns / HEALTH_PERIOD_NS) as usize + 2
    } else {
        0
    };
    let health_sent: Vec<AtomicU64> = (0..probes).map(|_| AtomicU64::new(0)).collect();
    let health_ack: Vec<AtomicU64> = (0..probes).map(|_| AtomicU64::new(0)).collect();

    let system = System::start(w, total, trace_from);
    let stream = system.connect();
    let stop = AtomicBool::new(false);

    let mut before = Counters::default();
    let mut after = Counters::default();
    let mut late_ns = Vec::new();
    let mut warm = false;
    let mut timed_from_ns = 0;
    std::thread::scope(|scope| {
        if let Some(stream) = &stream {
            let read_half = stream.try_clone().expect("clone the client socket");
            read_half
                .set_read_timeout(Some(StdDuration::from_millis(100)))
                .expect("read timeout");
            let reader = ResponseReader {
                stream: read_half,
                buf: Vec::new(),
            };
            let (shared, health_ack, stop) = (&*system.shared, &health_ack[..], &stop);
            scope.spawn(move || read_replies(reader, shared, health_ack, stop));
        }
        let mut generator = Generator {
            system: &system,
            stream,
            rng: ChaCha8Rng::seed_from_u64(seed),
            period_ns,
            late_ns: Vec::new(),
            health_sent: &health_sent,
            next_health: 0,
        };
        // Warm-up: connections dialled, caches filled. It drains fully, so
        // the counters read next belong to the timed operations alone.
        generator.send(0..warm_ops, now_ns());
        warm = system.wait_complete(warm_ops as u64, StdDuration::from_secs(20));
        generator.late_ns.clear();
        before = Counters::read(&system);
        timed_from_ns = now_ns();
        generator.send(warm_ops..total, timed_from_ns);
        system.wait_complete(total as u64, SETTLE);
        after = Counters::read(&system);
        // Late replies have had the whole settle to arrive.
        stop.store(true, Relaxed);
        late_ns = std::mem::take(&mut generator.late_ns);
    });
    let shared = Arc::clone(&system.shared);
    let threads = system.cluster.stats().threads.max(1);
    system.stop();

    let timed = &shared.slots[warm_ops..];
    let (untraced, traced_slots) = timed.split_at(trace_from - warm_ops);
    let delivered = |s: &&Slot| s.status.load(Relaxed) == ACCEPTED && s.done.load(Relaxed) != 0;
    let ok_ops = timed.iter().filter(delivered).count();
    let latencies = |slots: &[Slot]| -> Vec<f64> {
        sorted(
            slots
                .iter()
                .filter(delivered)
                .map(|s| us(s.due.load(Relaxed), s.done.load(Relaxed)) / 1e3)
                .collect(),
        )
    };

    let mut run = Run::new(name);
    run.attempted = timed.len() as u64;
    run.failed = (timed.len() - ok_ops) as u64;
    let duplicates = shared.duplicates.load(Relaxed);
    let corrupted = shared.corrupted.load(Relaxed);
    if duplicates > 0 {
        run.errors
            .push(format!("{duplicates} duplicate deliveries"));
    }
    if corrupted > 0 {
        run.errors
            .push(format!("{corrupted} corrupted or unknown payloads"));
    }
    if !warm {
        run.errors
            .push("the warm-up operations did not reach every member".to_string());
    }
    if run.failed as f64 > FAILED_RATIO_BOUND * run.attempted as f64 {
        run.errors.push(format!(
            "{} of {} operations refused, or missing on some member after the settle",
            run.failed, run.attempted
        ));
    }
    let late = sorted(late_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
    let late_p99 = percentile(&late, 99.0);
    if late_p99 > LATE_P99_LIMIT_MS {
        run.invalid = Some(format!("load generator ran {late_p99:.1} ms late at p99"));
    }
    if after.net.timer_lag_max_us >= NetCluster::<BenchApp>::STARVATION_TIMER_LAG_US {
        run.invalid = Some(format!(
            "node timers lagged {} ms: the machine is starved",
            after.net.timer_lag_max_us / 1000
        ));
    }

    let ops = ok_ops.max(1) as f64;
    let net = after.net;
    let d = |f: fn(&AggregateStats) -> u64| (f(&after.net) - f(&before.net)) as f64;
    let wall_us = (after.at_ns - before.at_ns) as f64 / 1e3;
    let all = latencies(untraced);
    // Process start → the first timed request is due: cluster and gateway
    // built, client connected, warm-up sent and drained.
    run.put("setup_s", timed_from_ns as f64 / 1e9);
    run.put("deliver_p50_ms", percentile(&all, 50.0));
    run.put("deliver_p90_ms", percentile(&all, 90.0));
    run.put("deliver_p99_ms", percentile(&all, 99.0));
    run.put("cpu_ms_per_op", (after.cpu_ms - before.cpu_ms) / ops);
    run.put("wire_bytes_per_op", d(|s| s.bytes_sent) / ops);
    let highest = highest_supported_percentile(all.len());
    run.note("deliver_highest_percentile", highest);
    run.note("deliver_highest_percentile_ms", percentile(&all, highest));
    run.note("samples", all.len() as f64);

    run.put(
        "failed_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    run.put("net.frames_per_op", d(|s| s.frames_sent) / ops);
    run.put("net.writes_per_op", d(|s| s.writes) / ops);
    run.put(
        "net.frames_per_write",
        d(|s| s.frames_sent) / d(|s| s.writes).max(1.0),
    );
    run.put("net.encodes_per_op", d(|s| s.messages_encoded) / ops);
    run.put("net.events_per_op", d(|s| s.events_processed) / ops);
    run.put(
        "net.reactor_busy_ratio",
        1.0 - d(|s| s.poll_wait_us) / wall_us / threads as f64,
    );
    run.put("net.poll_waits_per_op", d(|s| s.poll_waits) / ops);
    run.put(
        "net.dispatch_batch_mean",
        d(|s| s.dispatch_batch_events) / d(|s| s.dispatch_batches).max(1.0),
    );
    run.put("net.timer_lag_max_us", net.timer_lag_max_us as f64);
    run.put("net.frames_dropped", d(|s| s.frames_dropped));
    run.put("net.decode_errors", d(|s| s.decode_errors));
    run.put("net.peak_outbound_queue", net.peak_outbound_queue as f64);
    run.put("net.peak_inbound_queue", net.peak_inbound_queue as f64);
    let lookups = (after.digest.0 - before.digest.0) + (after.digest.1 - before.digest.1);
    run.put(
        "core.digest_cache_hit_ratio",
        (after.digest.0 - before.digest.0) as f64 / lookups.max(1) as f64,
    );
    run.put("core.duplicate_deliveries", duplicates as f64);
    run.put("loadgen.late_p99_ms", late_p99);
    run.put("loadgen.late_max_ms", late.last().copied().unwrap_or(0.0));

    let stage = |slots: &[Slot], from: fn(&Slot) -> &AtomicU64, to: fn(&Slot) -> &AtomicU64| {
        let mut values: Vec<f64> = slots
            .iter()
            .filter(delivered)
            .map(|s| us(from(s).load(Relaxed), to(s).load(Relaxed)))
            .collect();
        median(&mut values)
    };
    if w.edge {
        let ack = sorted(
            timed
                .iter()
                .filter(|s| s.status.load(Relaxed) == ACCEPTED)
                .map(|s| us(s.due.load(Relaxed), s.ack.load(Relaxed)))
                .collect(),
        );
        run.put("edge.ack_p50_us", percentile(&ack, 50.0));
        run.put("edge.ack_p99_us", percentile(&ack, 99.0));
        let mut rtt: Vec<f64> = health_sent
            .iter()
            .zip(&health_ack)
            .filter(|(_, a)| a.load(Relaxed) != 0)
            .map(|(s, a)| us(s.load(Relaxed), a.load(Relaxed)))
            .collect();
        run.put("edge.health_rtt_p50_us", median(&mut rtt));
        run.put("edge.shed", (after.edge.shed - before.edge.shed) as f64);
        run.put(
            "edge.deadline_exceeded",
            (after.edge.deadline_exceeded - before.edge.deadline_exceeded) as f64,
        );
        run.put(
            "edge.unavailable",
            (after.edge.unavailable - before.edge.unavailable) as f64,
        );
        let attempts: u64 = timed
            .iter()
            .map(|s| u64::from(s.attempts.load(Relaxed)))
            .sum();
        run.put(
            "edge.backend_attempts_per_op",
            attempts as f64 / timed.len().max(1) as f64,
        );
    }
    if traced {
        let t = traced_slots;
        if w.edge {
            run.put("stage.client_send_us", stage(t, |s| &s.due, |s| &s.sent));
            run.put("stage.edge_admit_us", stage(t, |s| &s.sent, |s| &s.exec));
            run.put("stage.reactor_queue_us", stage(t, |s| &s.exec, |s| &s.call));
            run.put("stage.ack_return_us", stage(t, |s| &s.bcast, |s| &s.ack));
        } else {
            run.put("stage.reactor_queue_us", stage(t, |s| &s.due, |s| &s.call));
        }
        run.put(
            "stage.core_broadcast_us",
            stage(t, |s| &s.call, |s| &s.bcast),
        );
        run.put("stage.smr_decide_us", stage(t, |s| &s.bcast, |s| &s.first0));
        run.put(
            "stage.vgroup_spread_us",
            stage(t, |s| &s.first0, |s| &s.last0),
        );
        run.put("stage.gossip_us", stage(t, |s| &s.last0, |s| &s.done));
        run.put(
            "core.call_queue_p50_us",
            stage(t, |s| &s.callq, |s| &s.call),
        );
        run.put(
            "core.broadcast_call_p50_us",
            stage(t, |s| &s.call, |s| &s.bcast),
        );
        let traced_p50 = percentile(&latencies(t), 50.0);
        run.note("traced_deliver_p50_ms", traced_p50);
        run.put(
            "bench.trace_overhead_ratio",
            traced_p50 / percentile(&all, 50.0).max(f64::MIN_POSITIVE),
        );
        let spans: Vec<trace::OpStamps> = t
            .iter()
            .enumerate()
            .filter(|(_, s)| delivered(s))
            .map(|(i, s)| trace::OpStamps {
                op: (trace_from + i) as u64,
                stamps: [
                    s.due.load(Relaxed),
                    s.sent.load(Relaxed),
                    s.exec.load(Relaxed),
                    s.call.load(Relaxed),
                    s.bcast.load(Relaxed),
                    s.first0.load(Relaxed),
                    s.last0.load(Relaxed),
                    s.done.load(Relaxed),
                ],
                ack: s.ack.load(Relaxed),
                edge: w.edge,
            })
            .collect();
        run.trace = Some(spans);
    }
    run
}

/// Everything read "before and after the timed window".
#[derive(Default, Clone)]
struct Counters {
    at_ns: u64,
    cpu_ms: f64,
    net: AggregateStats,
    edge: atum_edge::EdgeSnapshot,
    digest: (u64, u64),
}

impl Counters {
    fn read(system: &System) -> Counters {
        Counters {
            at_ns: now_ns(),
            cpu_ms: process_cpu_ms(),
            net: system.cluster.stats(),
            edge: system
                .gateway
                .as_ref()
                .map(|g| g.snapshot())
                .unwrap_or_default(),
            digest: atum_core::verified_digest_stats(),
        }
    }
}
