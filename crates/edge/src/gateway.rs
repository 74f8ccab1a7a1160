//! The gateway runtime: an I/O thread serving client connections, a
//! bounded admission queue, and a worker pool executing requests against
//! the backend with breakers, dedup, deadlines and retries wrapped around
//! every operation.
//!
//! # Data path
//!
//! Client sockets live in the connection layer the node runtime uses
//! ([`atum_net::conn`]); the I/O thread owns that table and adds the client
//! wire's policy. Its one legal frame kind is `FRAME_KIND_EDGE_REQUEST`,
//! under the gateway's own body cap, and it *hardens the boundary*: bad
//! magic/version/kind, oversized bodies, undecodable requests and
//! slow-loris dribbling all close **only that client connection**, counted
//! under `edge.*` in the gateway's own [`Registry`] — a hostile client can
//! never take down a reactor or a node. Probe operations (`Health`,
//! `Stats`) are answered on the I/O thread so they bypass admission and
//! stay truthful under overload and during drain (a `Stats` payload is
//! built at most once per loop turn). Everything else passes admission: a
//! bounded queue that **sheds the newest request** with an immediate
//! [`EdgeStatus::Overloaded`] reply when full, so saturation degrades to
//! fast typed rejection instead of unbounded latency.
//!
//! Workers pop jobs and run them through the robustness kit, in order:
//! deadline check → idempotency-key dedup ([`DedupCache`]) → breaker-gated
//! backend selection ([`Breaker`]) → execution with jittered exponential
//! backoff against alternate backends until the deadline or attempt budget
//! runs out.
//!
//! Nothing ever waits on a client's socket. A worker posts its response to
//! the I/O thread's mailbox, addressed by connection slot and generation;
//! the I/O thread moves it — like the probe answers it produces itself —
//! onto that connection's bounded out-queue. The connection layer writes
//! each queue out once per loop turn, before the thread waits again (sooner
//! when a full batch has formed), so a reply outlives its turn there only
//! while the socket pushes back. The bound is `queue_capacity + workers`,
//! the most responses admission lets one connection have in flight: a
//! client that keeps sending and stops reading overflows it and loses its
//! connection, and nobody else notices.
//!
//! # Shutdown
//!
//! [`EdgeGateway::shutdown`] flips the readiness probe *first*, then stops
//! accepting connections and admitting requests (new frames get
//! [`EdgeStatus::ShuttingDown`]), drains in-flight work within
//! [`DRAIN_TIMEOUT`], lets the I/O thread flush the replies still queued, and
//! only then closes sockets and joins threads.

use crate::backend::{EdgeBackend, EdgeBackendError};
use crate::breaker::{Breaker, BreakerConfig, BreakerTransition, Permit};
use crate::dedup::{DedupCache, DedupConfig, DedupDecision};
use atum_net::conn::{CloseReason, ConnMetrics, ConnTable, Injector, QueuedFrame, Ready};
use atum_net::frame;
use atum_obs::metrics::Value;
use atum_obs::{AtomicHistogram, Counter, Registry};
use atum_types::edge::{EdgeOp, EdgeRequest, EdgeResponse, EdgeStatus};
use atum_types::wire::{decode_exact, FRAME_KIND_EDGE_REQUEST, FRAME_KIND_EDGE_RESPONSE};
use atum_types::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline applied when a request carries `deadline_ms == 0`.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);

/// Base retry backoff; doubled per attempt and jittered 0.5–1.5×.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// How long [`EdgeGateway::shutdown`] waits for in-flight requests.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Idempotency-key cache tuning: 4096 replayable outcomes for 30 s each.
pub const DEDUP: DedupConfig = DedupConfig {
    capacity: 4096,
    ttl: Duration::from_secs(30),
};

/// Tuning for an [`EdgeGateway`]. The deadline, backoff, drain and dedup
/// settings are the constants above.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Client listener bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission-queue bound; the queue full sheds the newest request
    /// with an [`EdgeStatus::Overloaded`] reply.
    pub queue_capacity: usize,
    /// Maximum backend attempts per request (first try + retries).
    pub max_attempts: u32,
    /// Per-backend circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Largest accepted client frame body; larger length prefixes are
    /// violations (checked before any allocation).
    pub max_frame_len: usize,
    /// A connection idling this long with an *incomplete* frame buffered
    /// is closed as a slow-loris.
    pub idle_timeout: Duration,
    /// Seed for retry jitter and backend selection.
    pub seed: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 256,
            max_attempts: 3,
            breaker: BreakerConfig::default(),
            max_frame_len: 64 * 1024,
            idle_timeout: Duration::from_secs(2),
            seed: 42,
        }
    }
}

/// A point-in-time view of the gateway's health and of its counters: each
/// numeric field but `outstanding` is the `edge.<field>` counter of the
/// gateway's [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSnapshot {
    /// Requests decoded from client frames (including probes).
    pub requests: u64,
    /// Requests answered [`EdgeStatus::Ok`].
    pub ok: u64,
    /// Requests shed at admission with [`EdgeStatus::Overloaded`].
    pub shed: u64,
    /// Requests answered [`EdgeStatus::Unavailable`].
    pub unavailable: u64,
    /// Requests answered [`EdgeStatus::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests answered [`EdgeStatus::BadRequest`].
    pub bad_request: u64,
    /// Requests answered [`EdgeStatus::ShuttingDown`].
    pub shutting_down: u64,
    /// Retried writes answered [`EdgeStatus::Duplicate`] from the
    /// idempotency cache instead of re-executing.
    pub dedup_hits: u64,
    /// Breaker transitions to open.
    pub breaker_opened: u64,
    /// Breaker transitions open → half-open.
    pub breaker_half_opened: u64,
    /// Breaker transitions half-open → closed.
    pub breaker_closed: u64,
    /// Completed open → half-open → closed breaker cycles.
    pub breaker_full_cycles: u64,
    /// Client connections accepted.
    pub conns_accepted: u64,
    /// Client connections closed (any reason).
    pub conns_closed: u64,
    /// Client frames rejected as protocol violations.
    pub frame_violations: u64,
    /// Connections closed as slow-loris idlers.
    pub idle_closed: u64,
    /// Jobs queued or executing right now.
    pub outstanding: u64,
    /// Readiness at snapshot time.
    pub ready: bool,
    /// Per-backend breaker states, `node.raw() → state name`.
    pub breakers: BTreeMap<u64, &'static str>,
}

/// What [`EdgeGateway::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every in-flight request completed within [`DRAIN_TIMEOUT`].
    pub drained: bool,
    /// Requests still queued or executing when the timeout fired
    /// (answered `ShuttingDown` if still queued).
    pub abandoned: u64,
}

/// The gateway's handles into its registry, resolved once in
/// [`EdgeGateway::start`]: the I/O thread and the workers count each event
/// on exactly one of them. (The connection layer's four `edge.*` metrics
/// are its [`ConnMetrics`].)
struct EdgeMetrics {
    requests: Arc<Counter>,
    bytes_received: Arc<Counter>,
    ok: Arc<Counter>,
    shed: Arc<Counter>,
    unavailable: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    bad_request: Arc<Counter>,
    shutting_down: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    breaker_opened: Arc<Counter>,
    breaker_half_opened: Arc<Counter>,
    breaker_closed: Arc<Counter>,
    breaker_full_cycles: Arc<Counter>,
    conns_accepted: Arc<Counter>,
    conns_closed: Arc<Counter>,
    frame_violations: Arc<Counter>,
    idle_closed: Arc<Counter>,
    /// Admission-to-reply latency of worker-executed requests (µs).
    latency_us: Arc<AtomicHistogram>,
}

impl EdgeMetrics {
    fn new(registry: &Registry) -> EdgeMetrics {
        EdgeMetrics {
            requests: registry.counter("edge.requests"),
            bytes_received: registry.counter("edge.bytes_received"),
            ok: registry.counter("edge.ok"),
            shed: registry.counter("edge.shed"),
            unavailable: registry.counter("edge.unavailable"),
            deadline_exceeded: registry.counter("edge.deadline_exceeded"),
            bad_request: registry.counter("edge.bad_request"),
            shutting_down: registry.counter("edge.shutting_down"),
            dedup_hits: registry.counter("edge.dedup_hits"),
            breaker_opened: registry.counter("edge.breaker_opened"),
            breaker_half_opened: registry.counter("edge.breaker_half_opened"),
            breaker_closed: registry.counter("edge.breaker_closed"),
            breaker_full_cycles: registry.counter("edge.breaker_full_cycles"),
            conns_accepted: registry.counter("edge.conns_accepted"),
            conns_closed: registry.counter("edge.conns_closed"),
            frame_violations: registry.counter("edge.frame_violations"),
            idle_closed: registry.counter("edge.idle_closed"),
            latency_us: registry.histogram(
                "edge.latency_us",
                &[
                    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
                ],
            ),
        }
    }
}

/// Where a reply goes: a slot of the I/O thread's connection table, with
/// the generation that makes a reply to a since-closed connection a no-op.
#[derive(Clone, Copy)]
struct ConnRef {
    slot: usize,
    gen: u64,
}

/// One encoded response frame on its way to the I/O thread.
struct Reply {
    to: ConnRef,
    frame: Arc<[u8]>,
}

struct Job {
    conn: ConnRef,
    req: EdgeRequest,
    received: Instant,
    deadline: Instant,
}

struct Shared {
    cfg: EdgeConfig,
    backend: Arc<dyn EdgeBackend>,
    /// The gateway's metrics store: every `edge.*` count.
    registry: Registry,
    metrics: EdgeMetrics,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// The I/O thread's mailbox: the responses produced off that thread.
    replies: Injector<Reply>,
    /// Accepting connections and admitting requests.
    admitting: AtomicBool,
    /// Readiness probe; flipped false before anything else on shutdown.
    ready: AtomicBool,
    /// Liveness: false once the I/O thread is asked to exit.
    live: AtomicBool,
    stop_workers: AtomicBool,
    /// Jobs queued + executing (drain condition).
    outstanding: AtomicU64,
    breakers: Mutex<BTreeMap<NodeId, Breaker>>,
    dedup: Mutex<DedupCache>,
    epoch: Instant,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Emits drained breaker transitions to counters + trace events;
    /// called outside the breaker-map lock.
    fn surface_transitions(&self, node: NodeId, transitions: &[BreakerTransition]) {
        let m = &self.metrics;
        for t in transitions {
            let code = match t {
                BreakerTransition::Opened => {
                    m.breaker_opened.inc();
                    1u64
                }
                BreakerTransition::HalfOpened => {
                    m.breaker_half_opened.inc();
                    2
                }
                BreakerTransition::Closed(full) => {
                    m.breaker_closed.inc();
                    if *full {
                        m.breaker_full_cycles.inc();
                    }
                    3
                }
            };
            atum_obs::trace_event!(
                Edge,
                at = self.now_us(),
                node = node.raw(),
                slots = [code, 0, 0],
                "breaker {} on backend {}",
                match code {
                    1 => "opened",
                    2 => "half-opened",
                    _ => "closed",
                },
                node.raw()
            );
        }
    }

    /// Posts a response to the I/O thread (from a worker, or from the
    /// thread shutting the gateway down).
    fn reply(&self, to: ConnRef, seq: u64, status: EdgeStatus, payload: Vec<u8>) {
        self.replies.push(self.response(to, seq, status, payload));
    }

    /// Counts and encodes one response.
    fn response(&self, to: ConnRef, seq: u64, status: EdgeStatus, payload: Vec<u8>) -> Reply {
        let m = &self.metrics;
        match status {
            EdgeStatus::Ok => &m.ok,
            EdgeStatus::Overloaded => &m.shed,
            EdgeStatus::Unavailable => &m.unavailable,
            EdgeStatus::DeadlineExceeded => &m.deadline_exceeded,
            EdgeStatus::BadRequest => &m.bad_request,
            EdgeStatus::ShuttingDown => &m.shutting_down,
            EdgeStatus::Duplicate => &m.dedup_hits,
        }
        .inc();
        let resp = EdgeResponse {
            seq,
            status,
            payload,
        };
        let frame = frame::encode_frame(FRAME_KIND_EDGE_RESPONSE, &resp).into();
        Reply { to, frame }
    }

    /// Per-backend breaker states, `node.raw() → state name`.
    fn breaker_states(&self) -> BTreeMap<u64, &'static str> {
        self.breakers
            .lock()
            .expect("edge breakers lock")
            .iter()
            .map(|(id, b)| (id.raw(), b.state_kind().as_str()))
            .collect()
    }

    fn snapshot(&self) -> EdgeSnapshot {
        let m = &self.metrics;
        EdgeSnapshot {
            requests: m.requests.get(),
            ok: m.ok.get(),
            shed: m.shed.get(),
            unavailable: m.unavailable.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            bad_request: m.bad_request.get(),
            shutting_down: m.shutting_down.get(),
            dedup_hits: m.dedup_hits.get(),
            breaker_opened: m.breaker_opened.get(),
            breaker_half_opened: m.breaker_half_opened.get(),
            breaker_closed: m.breaker_closed.get(),
            breaker_full_cycles: m.breaker_full_cycles.get(),
            conns_accepted: m.conns_accepted.get(),
            conns_closed: m.conns_closed.get(),
            frame_violations: m.frame_violations.get(),
            idle_closed: m.idle_closed.get(),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            ready: self.ready.load(Ordering::Relaxed),
            breakers: self.breaker_states(),
        }
    }

    /// The `Stats` probe payload: the registry snapshot (`scope`,
    /// `metrics`) plus `ready`, `outstanding` and `breakers`.
    fn stats_json(&self) -> String {
        let breakers = self
            .breaker_states()
            .into_iter()
            .map(|(id, state)| (id.to_string(), Value::Str(state.to_string())))
            .collect();
        self.registry.snapshot().to_json(vec![
            ("ready", Value::Bool(self.ready.load(Ordering::Relaxed))),
            (
                "outstanding",
                Value::U64(self.outstanding.load(Ordering::Relaxed)),
            ),
            ("breakers", Value::Map(breakers)),
        ])
    }

    fn health_json(&self) -> String {
        format!(
            "{{\"live\":{},\"ready\":{}}}",
            self.live.load(Ordering::Relaxed),
            self.ready.load(Ordering::Relaxed)
        )
    }
}

/// A hardened client gateway in front of an Atum cluster. See the module
/// docs for the data path; construct with [`EdgeGateway::start`], stop
/// with [`EdgeGateway::shutdown`].
pub struct EdgeGateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    io_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EdgeGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeGateway")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// A cloneable probe handle onto a gateway: liveness, readiness and
/// counter snapshots, observable from other threads (e.g. while the
/// gateway drains).
#[derive(Clone)]
pub struct EdgeProbe {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for EdgeProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeProbe")
            .field("live", &self.live())
            .field("ready", &self.ready())
            .finish()
    }
}

impl EdgeProbe {
    /// Liveness: the gateway's I/O thread is running.
    pub fn live(&self) -> bool {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Readiness: the gateway is admitting requests. Flipped false before
    /// anything else during shutdown.
    pub fn ready(&self) -> bool {
        self.shared.ready.load(Ordering::Relaxed)
    }

    /// A point-in-time counter snapshot.
    pub fn snapshot(&self) -> EdgeSnapshot {
        self.shared.snapshot()
    }
}

impl EdgeGateway {
    /// Binds the client listener and starts the I/O thread and worker
    /// pool.
    pub fn start(cfg: EdgeConfig, backend: Arc<dyn EdgeBackend>) -> std::io::Result<EdgeGateway> {
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let registry = Registry::new(format!("edge:{local_addr}"));
        let shared = Arc::new(Shared {
            breakers: Mutex::new(BTreeMap::new()),
            dedup: Mutex::new(DedupCache::new(DEDUP)),
            backend,
            metrics: EdgeMetrics::new(&registry),
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            replies: Injector::new()?,
            admitting: AtomicBool::new(true),
            ready: AtomicBool::new(true),
            live: AtomicBool::new(true),
            stop_workers: AtomicBool::new(false),
            outstanding: AtomicU64::new(0),
            epoch: Instant::now(),
            cfg,
        });
        let io = EdgeIo::new(Arc::clone(&shared), listener)?;
        let io_thread = std::thread::Builder::new()
            .name("edge-io".to_string())
            .spawn(move || io.run())?;
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let w_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("edge-worker-{i}"))
                    .spawn(move || run_worker(w_shared, i as u64))?,
            );
        }
        Ok(EdgeGateway {
            shared,
            local_addr,
            io_thread: Some(io_thread),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway's metrics store (`edge.*`, scope `edge:<listener>`).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// A cloneable probe handle (liveness/readiness/snapshots).
    pub fn probe(&self) -> EdgeProbe {
        EdgeProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time counter snapshot.
    pub fn snapshot(&self) -> EdgeSnapshot {
        self.shared.snapshot()
    }

    /// Gracefully stops the gateway: readiness flips false first, then
    /// the listener stops accepting and new requests are refused with
    /// [`EdgeStatus::ShuttingDown`], in-flight requests drain within
    /// [`DRAIN_TIMEOUT`] (still-queued jobs past the timeout are answered
    /// `ShuttingDown`), the I/O thread flushes the replies still queued on
    /// connections, and only then do sockets close and threads join.
    pub fn shutdown(mut self) -> DrainReport {
        let shared = &self.shared;
        shared.ready.store(false, Ordering::SeqCst);
        shared.admitting.store(false, Ordering::SeqCst);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while shared.outstanding.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Past the timeout: answer still-queued jobs ShuttingDown so their
        // clients learn the outcome before sockets close.
        let mut abandoned = 0u64;
        {
            let mut queue = shared.queue.lock().expect("edge queue lock");
            while let Some(job) = queue.pop_front() {
                abandoned += 1;
                shared.reply(job.conn, job.req.seq, EdgeStatus::ShuttingDown, Vec::new());
                shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Wait for executing jobs (workers finish their current item).
        shared.stop_workers.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let executing = shared.outstanding.load(Ordering::SeqCst);
        shared.live.store(false, Ordering::SeqCst);
        shared.replies.wake();
        if let Some(io) = self.io_thread.take() {
            let _ = io.join();
        }
        atum_obs::trace_event!(
            Edge,
            at = shared.now_us(),
            node = 0,
            slots = [4, abandoned + executing, 0],
            "gateway drained (abandoned {})",
            abandoned + executing
        );
        DrainReport {
            drained: abandoned + executing == 0,
            abandoned: abandoned + executing,
        }
    }
}

/// How often the I/O thread wakes without socket activity (the idle sweep).
const TICK: Duration = Duration::from_millis(20);
/// How long shutdown lets replies stuck behind a full socket keep trying
/// before the connections close under them.
const FLUSH_GRACE: Duration = Duration::from_millis(200);

/// The I/O thread: the connection table (per connection, the time of the
/// last input) plus the edge's policy over it.
struct EdgeIo {
    shared: Arc<Shared>,
    table: ConnTable<Instant>,
    /// Per-connection out-queue bound: the replies admission lets one
    /// connection have in flight.
    out_capacity: usize,
    /// This loop turn's `Stats` payload, built by the first probe that asks
    /// for it: a client pipelining probes costs one registry snapshot per
    /// turn, not one per probe.
    stats_payload: Option<Vec<u8>>,
}

impl EdgeIo {
    fn new(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<EdgeIo> {
        let metrics = ConnMetrics::new(&shared.registry, "edge");
        let table = ConnTable::new(&shared.replies, listener, metrics, shared.epoch)?;
        let out_capacity = shared.cfg.queue_capacity + shared.cfg.workers.max(1);
        Ok(EdgeIo {
            shared,
            table,
            out_capacity,
            stats_payload: None,
        })
    }

    fn run(mut self) {
        while self.shared.live.load(Ordering::SeqCst) {
            self.turn(false);
            self.sweep_idle();
        }
        // Drain, then close: the workers are gone, so every reply there
        // will ever be is in the mailbox or already queued.
        let deadline = Instant::now() + FLUSH_GRACE;
        self.deliver_replies();
        while self.table.iter().any(|(_, c)| c.has_unflushed()) && Instant::now() < deadline {
            self.turn(true);
        }
        for slot in 0..self.table.slots() {
            self.close(slot, CloseReason::Shutdown);
        }
    }

    /// One loop turn: wait, act on what is ready, deliver the workers'
    /// replies. While `draining`, input is discarded.
    fn turn(&mut self, draining: bool) {
        self.table.recycle();
        self.stats_payload = None;
        let ready = self.table.wait(TICK);
        let now = Instant::now();
        for i in 0..ready {
            match self.table.event(i) {
                Ready::Waker => self.shared.replies.acknowledge(),
                Ready::Listener => self.accept_ready(now),
                Ready::Conn {
                    slot,
                    readable,
                    writable,
                } => {
                    if writable {
                        self.flush(slot);
                    }
                    if readable {
                        self.read_ready(slot, now, draining);
                    }
                }
            }
        }
        self.deliver_replies();
    }

    fn accept_ready(&mut self, now: Instant) {
        while let Some(stream) = self.table.accept_next() {
            // Not admitting: refused, the socket is dropped immediately.
            if self.shared.admitting.load(Ordering::SeqCst)
                && self.table.accept(stream, now).is_some()
            {
                self.shared.metrics.conns_accepted.inc();
            }
        }
    }

    fn read_ready(&mut self, slot: usize, now: Instant, draining: bool) {
        let read = self.table.read(slot, !draining);
        if !draining && read.unwrap_or(0) > 0 {
            if let Some(conn) = self.table.get_mut(slot) {
                conn.ext = now;
            }
            self.handle_frames(slot, now);
        }
        if read.is_none() {
            self.close(slot, CloseReason::PeerClosed);
        }
    }

    /// Decodes and dispatches every complete request buffered on `slot`.
    /// Any violation — of the header, the vocabulary, the body cap or the
    /// request encoding — closes the connection.
    fn handle_frames(&mut self, slot: usize, now: Instant) {
        let Some(gen) = self.table.get(slot).map(|c| c.gen()) else {
            return;
        };
        let to = ConnRef { slot, gen };
        let mut consumed = 0usize;
        let violation = loop {
            // Re-validate the slot each round: answering a probe can
            // overflow the out-queue and close *this* connection.
            let Some(conn) = self.table.get(slot) else {
                return;
            };
            let rest = &conn.inbuf[consumed..];
            let kinds = [FRAME_KIND_EDGE_REQUEST];
            let range = match frame::scan_frame(rest, &kinds, self.shared.cfg.max_frame_len) {
                Ok(None) => break false,
                Ok(Some((_, range))) => range,
                Err(_) => break true,
            };
            let Ok(req) = decode_exact::<EdgeRequest>(&rest[range.clone()]) else {
                break true;
            };
            consumed += range.end;
            self.shared.metrics.bytes_received.add(range.end as u64);
            self.dispatch(to, req, now);
        };
        if violation {
            self.shared.metrics.frame_violations.inc();
            self.close(slot, CloseReason::Violation);
        } else if let Some(conn) = self.table.get_mut(slot) {
            conn.inbuf.drain(..consumed);
        }
    }

    /// Routes one decoded request: probes answered on the spot, everything
    /// else through admission (shed-newest on a full queue).
    fn dispatch(&mut self, conn: ConnRef, req: EdgeRequest, now: Instant) {
        let shared = &self.shared;
        shared.metrics.requests.inc();
        match req.op {
            EdgeOp::Health => {
                let payload = shared.health_json().into_bytes();
                return self.answer(conn, req.seq, EdgeStatus::Ok, payload);
            }
            EdgeOp::Stats => {
                let payload = self
                    .stats_payload
                    .get_or_insert_with(|| shared.stats_json().into_bytes())
                    .clone();
                return self.answer(conn, req.seq, EdgeStatus::Ok, payload);
            }
            _ => {}
        }
        if !shared.admitting.load(Ordering::SeqCst) {
            return self.answer(conn, req.seq, EdgeStatus::ShuttingDown, Vec::new());
        }
        let deadline = now
            + if req.deadline_ms == 0 {
                DEFAULT_DEADLINE
            } else {
                Duration::from_millis(req.deadline_ms as u64)
            };
        let mut queue = shared.queue.lock().expect("edge queue lock");
        if queue.len() >= shared.cfg.queue_capacity {
            drop(queue);
            // Shed-newest: the queue is untouched, the arriving request is
            // answered immediately.
            atum_obs::trace_event!(
                Edge,
                at = shared.now_us(),
                node = 0,
                slots = [5, req.seq, 0],
                "shed request {} (queue full)",
                req.seq
            );
            return self.answer(conn, req.seq, EdgeStatus::Overloaded, Vec::new());
        }
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        queue.push_back(Job {
            conn,
            req,
            received: now,
            deadline,
        });
        drop(queue);
        shared.queue_cv.notify_one();
    }

    /// A response produced on this thread: straight onto the out-queue.
    fn answer(&mut self, to: ConnRef, seq: u64, status: EdgeStatus, payload: Vec<u8>) {
        let reply = self.shared.response(to, seq, status, payload);
        self.push_reply(reply);
    }

    /// Queues one response on its connection; the connection layer writes
    /// it out with the rest of this turn's (`deliver_replies`). Frames stay
    /// queued past that only behind a socket that pushed back; a connection
    /// with a full queue of them is not reading its answers and is closed.
    fn push_reply(&mut self, Reply { to, frame }: Reply) {
        if self.table.get(to.slot).map(|c| c.gen()) != Some(to.gen) {
            return; // The connection closed before its answer was ready.
        }
        let item = QueuedFrame { route: None, frame };
        if !self.table.enqueue(to.slot, item, self.out_capacity) {
            self.close(to.slot, CloseReason::Overflow);
        }
    }

    /// Takes the workers' responses out of the mailbox, then sends what
    /// this turn queued — theirs and the probe answers — one write per
    /// connection. The last thing before the thread waits again.
    fn deliver_replies(&mut self) {
        while let Some(reply) = self.shared.replies.pop() {
            self.push_reply(reply);
        }
        for slot in self.table.flush_marked() {
            self.close(slot, CloseReason::PeerClosed);
        }
    }

    fn flush(&mut self, slot: usize) {
        if !self.table.flush(slot) {
            self.close(slot, CloseReason::PeerClosed);
        }
    }

    /// Closes connections sitting on an *incomplete* frame for longer than
    /// `idle_timeout` (slow-loris).
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let idle_timeout = self.shared.cfg.idle_timeout;
        let idle: Vec<usize> = self
            .table
            .iter()
            .filter(|(_, c)| !c.inbuf.is_empty() && now.duration_since(c.ext) >= idle_timeout)
            .map(|(slot, _)| slot)
            .collect();
        for slot in idle {
            self.shared.metrics.idle_closed.inc();
            self.close(slot, CloseReason::Idle);
        }
    }

    fn close(&mut self, slot: usize, reason: CloseReason) {
        if self.table.close(slot, reason).is_some() {
            self.shared.metrics.conns_closed.inc();
        }
    }
}

fn run_worker(shared: Arc<Shared>, index: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(shared.cfg.seed.wrapping_add(index));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("edge queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stop_workers.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("edge queue lock");
                queue = guard;
            }
        };
        let Some(job) = job else {
            return;
        };
        process(&shared, &mut rng, job);
    }
}

fn process(shared: &Arc<Shared>, rng: &mut ChaCha8Rng, job: Job) {
    let (status, payload) = run_request(shared, rng, &job);
    shared.reply(job.conn, job.req.seq, status, payload);
    shared
        .metrics
        .latency_us
        .record(job.received.elapsed().as_micros() as u64);
    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
}

fn run_request(shared: &Arc<Shared>, rng: &mut ChaCha8Rng, job: &Job) -> (EdgeStatus, Vec<u8>) {
    let now = Instant::now();
    if now >= job.deadline {
        // Expired while queued: the queue wait counts against the
        // deadline.
        return (EdgeStatus::DeadlineExceeded, Vec::new());
    }
    let is_write = matches!(job.req.op, EdgeOp::Publish { .. } | EdgeOp::Append { .. });
    let key = match job.req.idempotency_key {
        Some(key) if is_write => key,
        _ => return execute_op(shared, rng, &job.req.op, job.deadline),
    };
    // Dedup happens BEFORE routing: a retry must be recognised even if the
    // original request's backend has since tripped its breaker.
    loop {
        let decision = shared
            .dedup
            .lock()
            .expect("edge dedup lock")
            .begin(key, Instant::now());
        match decision {
            DedupDecision::Done(payload) => return (EdgeStatus::Duplicate, payload),
            DedupDecision::Fresh => break,
            DedupDecision::InFlight => {
                // The original is still executing (e.g. the client retried
                // because a breaker trip slowed the first attempt). Wait
                // for its outcome rather than double-applying.
                if Instant::now() >= job.deadline {
                    return (EdgeStatus::DeadlineExceeded, Vec::new());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    let (status, payload) = execute_op(shared, rng, &job.req.op, job.deadline);
    let mut dedup = shared.dedup.lock().expect("edge dedup lock");
    if status == EdgeStatus::Ok {
        dedup.complete(key, payload.clone(), Instant::now());
    } else {
        // The write did not apply; free the key so a retry can execute.
        dedup.abort(key);
    }
    (status, payload)
}

/// One admission through the breakers + one backend attempt, repeated with
/// jittered exponential backoff against alternate backends until success,
/// the attempt budget, or the deadline.
fn execute_op(
    shared: &Arc<Shared>,
    rng: &mut ChaCha8Rng,
    op: &EdgeOp,
    deadline: Instant,
) -> (EdgeStatus, Vec<u8>) {
    let cfg = &shared.cfg;
    for attempt in 1..=cfg.max_attempts {
        let now = Instant::now();
        if now >= deadline {
            return (EdgeStatus::DeadlineExceeded, Vec::new());
        }
        let nodes = shared.backend.nodes();
        if nodes.is_empty() {
            return (EdgeStatus::Unavailable, Vec::new());
        }
        // Rotate from a random offset so retries naturally try alternate
        // backends and load spreads without coordination.
        let start = rng.gen_range(0..nodes.len());
        let mut admitted: Option<(NodeId, Permit)> = None;
        let mut transitions: Vec<(NodeId, Vec<BreakerTransition>)> = Vec::new();
        {
            let mut breakers = shared.breakers.lock().expect("edge breakers lock");
            for i in 0..nodes.len() {
                let node = nodes[(start + i) % nodes.len()];
                let breaker = breakers
                    .entry(node)
                    .or_insert_with(|| Breaker::new(cfg.breaker));
                let permit = breaker.try_acquire(now);
                let drained = breaker.drain_transitions();
                if !drained.is_empty() {
                    transitions.push((node, drained));
                }
                if let Some(permit) = permit {
                    admitted = Some((node, permit));
                    break;
                }
            }
        }
        for (node, drained) in &transitions {
            shared.surface_transitions(*node, drained);
        }
        let Some((node, permit)) = admitted else {
            // Every breaker refused; wait out a backoff and try again
            // (breakers may turn half-open meanwhile).
            if !backoff(rng, RETRY_BACKOFF, attempt, deadline) {
                return (EdgeStatus::Unavailable, Vec::new());
            }
            continue;
        };
        let result = shared.backend.execute(node, op, deadline);
        let success = !matches!(
            result,
            Err(EdgeBackendError::Unavailable) | Err(EdgeBackendError::Timeout)
        );
        let drained = {
            let mut breakers = shared.breakers.lock().expect("edge breakers lock");
            let Some(breaker) = breakers.get_mut(&node) else {
                continue;
            };
            breaker.record(permit, success, Instant::now());
            breaker.drain_transitions()
        };
        shared.surface_transitions(node, &drained);
        match result {
            Ok(payload) => return (EdgeStatus::Ok, payload),
            Err(EdgeBackendError::Rejected(_)) => {
                return (EdgeStatus::BadRequest, Vec::new());
            }
            Err(_) => {
                if !backoff(rng, RETRY_BACKOFF, attempt, deadline) {
                    return (EdgeStatus::Unavailable, Vec::new());
                }
            }
        }
    }
    if Instant::now() >= deadline {
        (EdgeStatus::DeadlineExceeded, Vec::new())
    } else {
        (EdgeStatus::Unavailable, Vec::new())
    }
}

/// Sleeps the jittered exponential backoff for `attempt`, clamped to the
/// deadline. Returns false when the deadline leaves no room to retry.
fn backoff(rng: &mut ChaCha8Rng, base: Duration, attempt: u32, deadline: Instant) -> bool {
    let now = Instant::now();
    let Some(remaining) = deadline.checked_duration_since(now) else {
        return false;
    };
    let exp = base.as_micros() as u64 * (1u64 << (attempt - 1).min(8));
    let jitter = rng.gen_range(0.5f64..1.5);
    let wait = Duration::from_micros((exp as f64 * jitter) as u64);
    if wait >= remaining {
        return false;
    }
    std::thread::sleep(wait);
    true
}
