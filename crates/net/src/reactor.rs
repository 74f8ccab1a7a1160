//! The reactor runtime: one event-loop thread multiplexing non-blocking
//! sockets for *all* nodes hosted in the process.
//!
//! [`NetRuntime::bind`] opens one listener and spawns the runtime's one
//! reactor thread; [`NetRuntime::host`] places protocol nodes onto it. The
//! per-process thread count is one per runtime, not O(nodes) or
//! O(connections) — `RuntimeStats::threads` reports it — which is what
//! makes a 1000+-node single-process cluster feasible at all. A process
//! that wants more threads binds more runtimes
//! ([`NetClusterBuilder::runtimes`](crate::NetClusterBuilder::runtimes)).
//!
//! # Readiness and ownership invariants
//!
//! * **One owner for every socket and every node.** The reactor thread owns
//!   the listener, every connection and every hosted node; no lock is ever
//!   taken on the dispatch or socket path. The sockets themselves (slots,
//!   reads up to the frame boundary, bounded out-queues, coalesced writes,
//!   level-triggered readiness) are the [`crate::conn`] layer's; this
//!   module adds the node wire's hello/route/message pairing, dialling and
//!   reconnecting, the fault plane and the node driver. Cross-thread input
//!   arrives only through the runtime's [`Injector`]: hosting and removal
//!   requests and external calls.
//! * **One write per connection per turn.** Sending only queues: the
//!   connection layer marks the slot and writes a queue out when it holds a
//!   full batch or when this loop calls [`ConnTable::flush_marked`], which
//!   it does once, as the last thing before it blocks — after the injected
//!   calls, the timers and the reads of one turn have all fanned out, so
//!   what they put on one connection is one `write`. The flush comes
//!   *before* the poll timeout is computed, because a socket found broken
//!   there reconnects, and a failed or pending connect arms a timer the
//!   timeout must see. The deferral costs no latency: the thread that
//!   would write the frame is the thread that must return to `poll` to
//!   read it.
//! * **The wall clock lives in one heap.** Node timers
//!   (`Context::set_timer`), connect deadlines and reconnect backoffs all
//!   share the reactor's binary heap; the poll timeout is the earliest
//!   deadline. Cancellation is lazy (a pending-handles set per node,
//!   generation counters per connection slot), so firing is O(log n) and
//!   cancelling O(1).
//! * **State machines are untouched.** Dispatch drives the same
//!   [`Context`]/[`ContextEffects`] surface as the simulator, applying
//!   effects in the contract order (sends, new timers, cancellations,
//!   halt). Self-sends (`X → X`) loop through the reactor's local delivery
//!   queue — deferred, exactly like the simulator; sends to *other* nodes
//!   always cross a real socket, even between two nodes hosted by the same
//!   runtime (the runtime connects to its own listener). A decoded inbound
//!   message is delivered when the runtime hosts its destination and
//!   counted in `net.frames_dropped` otherwise.
//! * **The fault plane sits at the frame boundary, inside the owner.** When
//!   [`RuntimeConfig::faults`] has rules installed, `send_from` consults the
//!   runtime's deterministic `FaultDecider` *after* encoding (the frame
//!   length feeds the bandwidth shaper) and *before* the address lookup —
//!   injected faults never cross a thread. Delayed frames live in the
//!   reactor's `delayed` map and re-enter through the shared timer heap
//!   (`TimerKind::FaultRelease`), re-resolving their destination at release
//!   time; corrupted frames are *copies* (message frames are `Arc`-shared
//!   across fan-out and must never be mutated in place); connection kills
//!   are observed at the top of the loop like retargets. The benign path
//!   pays exactly one relaxed atomic load.
//!
//! # The multiplexed wire
//!
//! A connection belongs to a pair of runtimes, not of nodes, so every
//! message frame is preceded by a [`Route`] frame naming `(from, to)`; the
//! handshake [`Hello`] opens the stream and names the *runtime*'s listener.
//! Outbound connections are write-only (their read half only watches for
//! EOF), accepted connections are read-only. Keeping the route outside the
//! message frame preserves the encode-once invariant: the `Arc<[u8]>`
//! message bytes are identical for every recipient and every peer, so
//! fan-out encodes once ([`FrameMemo`](atum_types::FrameMemo)) and one `write` carries every
//! frame a turn queued on the connection.

use crate::conn::{CloseReason, ConnMetrics, ConnTable, Injector, QueuedFrame, Ready};
use crate::faults::{FaultDecider, FaultDecision, FaultPlane};
use crate::frame::{self, Hello, Route};
use crate::runtime::{AddressBook, NetMessage, NetMetrics, RuntimeConfig, RuntimeStats};
use atum_obs::flight::{self, FlightRecorder};
use atum_obs::Registry;
use atum_simnet::{Context, ContextEffects, Node, OutboundMessage, TimerRequest};
use atum_types::wire::{self, FRAME_HEADER_LEN, FRAME_KIND_HELLO, FRAME_KIND_ROUTE, MAX_FRAME_LEN};
use atum_types::{Instant, NodeId};
use polling_mini::connect_nonblocking;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

/// Poll timeout when no timer is armed.
const IDLE_POLL: StdDuration = StdDuration::from_millis(200);

/// Timeout of each TCP connect attempt.
const CONNECT_TIMEOUT: StdDuration = StdDuration::from_millis(500);

/// Connect attempts before a connection's queued frames are dropped. The
/// budget resets on every successful connect.
const MAX_CONNECT_ATTEMPTS: u32 = 4;

/// Base reconnect backoff; doubles per failed attempt, resets to base on
/// success.
const RECONNECT_BACKOFF: StdDuration = StdDuration::from_millis(25);

/// External call executed against a hosted node on its reactor.
type Call<M, N> = Box<dyn FnOnce(&mut N, &mut Context<'_, M>) + Send>;

/// Cross-thread input to the reactor.
enum Injected<M, N> {
    /// Host a new node (runs `on_start` on the reactor), recording into
    /// the flight recorder `NetRuntime::host` registered for it.
    Host {
        id: NodeId,
        node: N,
        flight: Arc<FlightRecorder>,
    },
    /// Remove a hosted node (its timers die with it).
    Remove { id: NodeId },
    /// Run an external call against a hosted node.
    Call { id: NodeId, f: Call<M, N> },
}

// ---------------------------------------------------------------- reconnect

/// Reconnect policy: attempts and jittered exponential backoff, with the
/// reset semantics the old writer path got wrong — a *successful*
/// (re)connect resets both the attempt budget and the backoff to base, so a
/// peer that flaps twice an hour pays the base delay each time, not an
/// ever-growing one.
///
/// Each rung of the ladder draws a delay uniformly from
/// `[backoff, backoff * 3/2]` so that many connections broken by the same
/// event (a peer restart, an injected connection kill) do not retry in
/// lock-step and re-collide on the listener. The jitter stream is seeded
/// per-connection from the runtime seed, so a given run is replayable.
#[derive(Debug, Clone)]
pub(crate) struct Reconnect {
    attempt: u32,
    backoff: StdDuration,
    rng: ChaCha8Rng,
}

impl Reconnect {
    pub(crate) fn new(seed: u64) -> Self {
        Reconnect {
            attempt: 0,
            backoff: RECONNECT_BACKOFF,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Records a successful connect: the budget and backoff start over.
    pub(crate) fn on_success(&mut self) {
        self.attempt = 0;
        self.backoff = RECONNECT_BACKOFF;
    }

    /// Records a failed connect attempt. Returns the jittered delay to wait
    /// before the next attempt, or `None` when the budget is exhausted
    /// (give up).
    pub(crate) fn on_failure(&mut self) -> Option<StdDuration> {
        self.attempt += 1;
        if self.attempt >= MAX_CONNECT_ATTEMPTS {
            return None;
        }
        let rung = self.backoff;
        self.backoff = self.backoff.saturating_mul(2);
        let jitter_us = (rung.as_micros() as u64) / 2;
        let extra = if jitter_us == 0 {
            0
        } else {
            self.rng.gen_range(0..=jitter_us)
        };
        Some(rung + StdDuration::from_micros(extra))
    }
}

// ------------------------------------------------------------------- timers

enum TimerKind {
    /// A `Context::set_timer` timer of a hosted node.
    Node { id: NodeId, tag: u64, handle: u64 },
    /// Deadline for an in-progress non-blocking connect.
    ConnDeadline { slot: usize, gen: u64 },
    /// End of a reconnect backoff.
    ConnRetry { slot: usize, gen: u64 },
    /// A fault-injected delay elapsed: the frame stashed under `token` in
    /// the reactor's `delayed` map resumes its journey.
    FaultRelease { token: u64 },
}

struct TimerEntry {
    at: StdInstant,
    seq: u64,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest deadline is on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// -------------------------------------------------------------- connections

/// The dialling half of an outbound connection.
struct Dial {
    /// The remote listener.
    addr: SocketAddr,
    reconnect: Reconnect,
}

/// What the node wire keeps per connection on top of the socket and queues
/// of the [`crate::conn`] layer.
///
/// Outbound connections (`dial.is_some()`) carry this runtime's frames to
/// one remote listener and only *read* to detect EOF; accepted connections
/// carry a remote runtime's frames to us and never have anything queued.
#[derive(Default)]
struct NodeConn {
    dial: Option<Dial>,
    /// The handshake that opened an accepted stream.
    hello: Option<Hello>,
    peer_ip: Option<IpAddr>,
    pending_route: Option<Route>,
    /// Senders whose return address this connection already registered.
    learned: HashSet<NodeId>,
}

// ------------------------------------------------------------- hosted nodes

/// A protocol node plus the per-node state the dispatch contract needs.
struct Hosted<N> {
    node: N,
    rng: ChaCha8Rng,
    next_timer_handle: u64,
    pending_timers: HashSet<u64>,
    halted: bool,
    /// This node's flight recorder, scoped around every dispatch so trace
    /// events land in the ring of the node that was executing.
    flight: Arc<FlightRecorder>,
}

// ------------------------------------------------------------------- shared

/// State shared between the runtime handle, node handles and the reactor.
struct Shared<M, N> {
    cfg: RuntimeConfig,
    book: AddressBook,
    /// The runtime's metrics store: every `net.*` count of its reactor.
    registry: Registry,
    epoch: StdInstant,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Every hosted node's flight recorder, keyed by the nodes the handles
    /// see as hosted — readable from any thread (`NodeHandle::dump_flight`)
    /// while the reactor records into it.
    flights: RwLock<HashMap<NodeId, Arc<FlightRecorder>>>,
    injector: Injector<Injected<M, N>>,
}

// ------------------------------------------------------------------ runtime

/// A process-wide socket runtime hosting any number of protocol nodes on
/// one reactor thread. See the module docs for the invariants.
///
/// Dropping the runtime does *not* stop its thread; call
/// [`NetRuntime::shutdown`].
pub struct NetRuntime<M: NetMessage, N: Node<M> + Send + 'static> {
    shared: Arc<Shared<M, N>>,
    thread: JoinHandle<()>,
}

impl<M: NetMessage, N: Node<M> + Send + 'static> std::fmt::Debug for NetRuntime<M, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl<M: NetMessage, N: Node<M> + Send + 'static> NetRuntime<M, N> {
    /// Binds the runtime's listener and spawns its reactor thread. Nodes
    /// are added afterwards with [`NetRuntime::host`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the listener, the poller or
    /// the reactor's waker cannot be created.
    pub fn bind(cfg: RuntimeConfig) -> std::io::Result<Self> {
        // Flight recording is always on for socket runtimes (allocation-free
        // in steady state; see the atum-obs crate docs), and a panic on a
        // reactor thread dumps the executing node's ring before aborting.
        atum_obs::trace::set_flight_recording(true);
        flight::install_panic_dump();
        let listener = TcpListener::bind(cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new(format!("runtime:{addr}"));
        registry.counter("net.threads").inc();
        let shared = Arc::new(Shared {
            book: cfg.book.clone(),
            epoch: cfg.epoch.unwrap_or_else(StdInstant::now),
            registry,
            addr,
            shutdown: AtomicBool::new(false),
            flights: RwLock::new(HashMap::new()),
            injector: Injector::new()?,
            cfg,
        });
        let reactor = Reactor::new(shared.clone(), listener)?;
        let thread = std::thread::Builder::new()
            .name("atum-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        Ok(NetRuntime { shared, thread })
    }

    /// Hosts a node on the reactor, registers its address (the runtime's
    /// listener) in the address book, and runs its `on_start` on the
    /// reactor before any message reaches it.
    pub fn host(&self, id: NodeId, node: N) -> NodeHandle<M, N> {
        let flight = Arc::new(FlightRecorder::new());
        self.shared
            .flights
            .write()
            .expect("flights lock")
            .insert(id, flight.clone());
        self.shared.book.register(id, self.shared.addr);
        self.shared
            .injector
            .push(Injected::Host { id, node, flight });
        NodeHandle {
            id,
            shared: self.shared.clone(),
        }
    }

    /// The address the runtime's listener accepts on (shared by every
    /// hosted node).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The runtime's counters, aggregated across all hosted nodes: a view
    /// of [`NetRuntime::registry`] as of now.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::read(&self.shared.registry.snapshot())
    }

    /// The runtime's metrics store (`net.*`, scope `runtime:<listener>`).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The shared address book this runtime resolves peers through.
    pub fn book(&self) -> &AddressBook {
        &self.shared.book
    }

    /// The runtime's fault-injection plane. Installing rules here (or on
    /// any clone of the [`RuntimeConfig`] this runtime was built from)
    /// takes effect on the reactor's next send; see
    /// [`FaultPlane`] for the vocabulary.
    pub fn faults(&self) -> &FaultPlane {
        &self.shared.cfg.faults
    }

    /// A handle to an already-hosted node (`None` if `id` is not hosted
    /// here).
    pub fn handle(&self, id: NodeId) -> Option<NodeHandle<M, N>> {
        self.shared
            .flights
            .read()
            .expect("flights lock")
            .contains_key(&id)
            .then(|| NodeHandle {
                id,
                shared: self.shared.clone(),
            })
    }

    /// Stops the runtime: dispatch ceases, the reactor *drains* its
    /// outbound queues (bounded by [`RuntimeConfig::drain_timeout`]) so
    /// frames accepted before the shutdown still reach their sockets, then
    /// all connections close and the thread joins.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.injector.wake();
        let _ = self.thread.join();
    }
}

/// A handle to one node hosted on a [`NetRuntime`].
///
/// The handle carries the node's identity and a reference to its runtime;
/// it is cheap to clone and safe to use from any thread.
pub struct NodeHandle<M: NetMessage, N: Node<M> + Send + 'static> {
    id: NodeId,
    shared: Arc<Shared<M, N>>,
}

impl<M: NetMessage, N: Node<M> + Send + 'static> Clone for NodeHandle<M, N> {
    fn clone(&self) -> Self {
        NodeHandle {
            id: self.id,
            shared: self.shared.clone(),
        }
    }
}

impl<M: NetMessage, N: Node<M> + Send + 'static> std::fmt::Debug for NodeHandle<M, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("id", &self.id)
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl<M: NetMessage, N: Node<M> + Send + 'static> NodeHandle<M, N> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The address the node is reachable at (its runtime's listener).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The hosting runtime's counters as of now (readable after the
    /// runtime shut down, too). Counters are per *runtime*: a handle's
    /// traffic is aggregated with every co-hosted node's.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::read(&self.shared.registry.snapshot())
    }

    /// Schedules `f` against the node on its reactor (the socket runtime's
    /// analogue of `Simulation::call`). A call to a node the reactor no
    /// longer hosts is dropped there, unrun.
    pub fn call<F>(&self, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, M>) + Send + 'static,
    {
        self.shared.injector.push(Injected::Call {
            id: self.id,
            f: Box::new(f),
        });
    }

    /// This node's flight recorder (`None` once the node is removed).
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.shared
            .flights
            .read()
            .expect("flights lock")
            .get(&self.id)
            .cloned()
    }

    /// Dumps this node's flight-recorder ring as replayable JSONL (empty
    /// when the node is gone or recorded nothing). Safe to call from any
    /// thread at any time — the dump races at most one in-flight event.
    pub fn dump_flight(&self) -> String {
        self.flight().map(|f| f.dump_jsonl()).unwrap_or_default()
    }

    /// Runs a read-only closure against the node state and returns its
    /// result, or `None` when the node is gone or does not answer within
    /// five seconds.
    pub fn with_node<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&N) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.call(move |node, _ctx| {
            let _ = tx.send(f(node));
        });
        rx.recv_timeout(StdDuration::from_secs(5)).ok()
    }

    /// Removes this node from its runtime: its timers die, its messages
    /// stop being delivered, the runtime keeps running for every other
    /// hosted node. (Shutting the whole runtime down is
    /// [`NetRuntime::shutdown`].)
    pub fn shutdown(self) {
        self.shared.injector.push(Injected::Remove { id: self.id });
        self.shared
            .flights
            .write()
            .expect("flights lock")
            .remove(&self.id);
    }
}

// ------------------------------------------------------------------ reactor

struct Reactor<M: NetMessage, N: Node<M> + Send + 'static> {
    shared: Arc<Shared<M, N>>,
    nodes: HashMap<NodeId, Hosted<N>>,
    table: ConnTable<NodeConn>,
    by_addr: HashMap<SocketAddr, usize>,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    /// Last observed [`AddressBook`] generation (re-registration sweep).
    book_gen: u64,
    /// Deferred self-deliveries (`X → X`), exactly the simulator's
    /// deferred-delivery semantics.
    loopback: VecDeque<(NodeId, NodeId, M)>,
    /// Decoded messages awaiting dispatch: queued self-sends plus the
    /// inbound message being delivered (its peak is the
    /// `net.peak_inbound_queue` gauge).
    inbound_pending: u64,
    effects: ContextEffects<M>,
    /// Per-effect-batch encode-once memo: fan-out identity → shared frame.
    fanout_frames: HashMap<usize, Arc<[u8]>>,
    /// The fault plane's deterministic decision stream for this runtime
    /// (seeded from `cfg.seed`).
    fault_decider: FaultDecider,
    /// Frames held back by an injected delay, keyed by release token; the
    /// matching `TimerKind::FaultRelease` timer resumes them.
    delayed: HashMap<u64, (Route, Arc<[u8]>)>,
    /// Next release token for `delayed`.
    next_delayed: u64,
    /// Last observed `FaultPlane` kill-connections counter.
    seen_kills: u64,
    metrics: NetMetrics,
}

impl<M: NetMessage, N: Node<M> + Send + 'static> Reactor<M, N> {
    fn new(shared: Arc<Shared<M, N>>, listener: TcpListener) -> std::io::Result<Self> {
        let conn_metrics = ConnMetrics::new(&shared.registry, "net");
        let table = ConnTable::new(&shared.injector, listener, conn_metrics, shared.epoch)?;
        let metrics = NetMetrics::new(&shared.registry);
        let fault_decider = shared.cfg.faults.decider(shared.cfg.seed);
        let seen_kills = shared.cfg.faults.kill_count();
        Ok(Reactor {
            shared,
            nodes: HashMap::new(),
            table,
            by_addr: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            book_gen: 0,
            loopback: VecDeque::new(),
            inbound_pending: 0,
            effects: ContextEffects::new(),
            fanout_frames: HashMap::new(),
            fault_decider,
            delayed: HashMap::new(),
            next_delayed: 0,
            seen_kills,
            metrics,
        })
    }

    fn now(&self) -> Instant {
        Instant::from_micros(self.shared.epoch.elapsed().as_micros() as u64)
    }

    fn run(mut self) {
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            self.table.recycle();
            self.drain_injected();
            self.deliver_loopback();
            self.check_fault_kills();
            self.check_retarget();
            self.fire_due_timers();
            self.deliver_loopback();
            // Everything this turn queued leaves now, one write per
            // connection. Before the timeout is computed: a socket found
            // broken here arms a reconnect timer.
            for slot in self.table.flush_marked() {
                self.conn_broken(slot);
            }
            let timeout = match self.timers.peek() {
                Some(t) => t.at.saturating_duration_since(StdInstant::now()),
                None => IDLE_POLL,
            };
            let wait_started = StdInstant::now();
            let ready = self.table.wait(timeout);
            let waited_us = wait_started.elapsed().as_micros() as u64;
            self.metrics.poll_wait_us.record(waited_us);
            if ready > 0 {
                self.metrics.dispatch_batch.record(ready as u64);
            }
            self.handle_ready(ready, false);
            self.deliver_loopback();
        }
        self.drain_outbound();
    }

    /// Acts on the reports of the last `table.wait`. While `draining`,
    /// input is read and discarded instead of dispatched.
    fn handle_ready(&mut self, ready: usize, draining: bool) {
        for i in 0..ready {
            match self.table.event(i) {
                Ready::Waker => self.shared.injector.acknowledge(),
                Ready::Listener => self.accept_ready(),
                Ready::Conn {
                    slot,
                    readable,
                    writable,
                } => self.conn_ready(slot, readable, writable, draining),
            }
        }
    }

    // ------------------------------------------------------ input channels

    fn drain_injected(&mut self) {
        while let Some(item) = self.shared.injector.pop() {
            match item {
                Injected::Host { id, node, flight } => self.host_node(id, node, flight),
                Injected::Remove { id } => {
                    self.nodes.remove(&id);
                }
                Injected::Call { id, f } => {
                    self.metrics.events_processed.inc();
                    self.dispatch(id, f);
                }
            }
        }
    }

    fn deliver_loopback(&mut self) {
        while let Some((from, to, msg)) = self.loopback.pop_front() {
            self.deliver(from, to, msg);
        }
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.inbound_pending -= 1;
        self.metrics.events_processed.inc();
        self.dispatch(to, move |node, ctx| node.on_message(from, msg, ctx));
    }

    fn host_node(&mut self, id: NodeId, node: N, flight: Arc<FlightRecorder>) {
        let seed = self.shared.cfg.seed ^ id.raw().wrapping_mul(0x9E3779B97F4A7C15);
        self.nodes.insert(
            id,
            Hosted {
                node,
                rng: ChaCha8Rng::seed_from_u64(seed),
                next_timer_handle: 0,
                pending_timers: HashSet::new(),
                halted: false,
                flight,
            },
        );
        self.dispatch(id, |node, ctx| node.on_start(ctx));
    }

    // ------------------------------------------------------------ dispatch

    /// Runs one callback against a hosted node and applies its effects in
    /// the contract order: sends, new timers, cancellations, halt.
    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, M>),
    {
        let now = self.now();
        let effects = std::mem::take(&mut self.effects);
        let Some(hosted) = self.nodes.get_mut(&id) else {
            self.effects = effects;
            return;
        };
        if hosted.halted {
            self.effects = effects;
            return;
        }
        let flight = hosted.flight.clone();
        let mut ctx = Context::for_runtime(
            id,
            now,
            &mut hosted.rng,
            &mut hosted.next_timer_handle,
            effects,
        );
        // Scope this node's flight recorder over the callback: any
        // `trace_event!` the protocol code hits lands in this node's ring.
        let guard = flight::scope(&flight);
        f(&mut hosted.node, &mut ctx);
        drop(guard);
        let mut effects = ctx.into_effects();

        // Sends first (they need the connection table, so the node borrow
        // must end here).
        self.fanout_frames.clear();
        let mut outbox = std::mem::take(&mut effects.outbox);
        for OutboundMessage { to, msg, .. } in outbox.drain(..) {
            self.send_from(id, to, msg);
        }
        effects.outbox = outbox;

        // Then timers, cancellations and the halt flag.
        if let Some(hosted) = self.nodes.get_mut(&id) {
            for &TimerRequest { delay, tag, handle } in &effects.new_timers {
                hosted.pending_timers.insert(handle);
                self.timer_seq += 1;
                let at = self.shared.epoch + StdDuration::from_micros((now + delay).as_micros());
                self.timers.push(TimerEntry {
                    at,
                    seq: self.timer_seq,
                    kind: TimerKind::Node { id, tag, handle },
                });
            }
            for handle in effects.cancelled_timers.drain(..) {
                hosted.pending_timers.remove(&handle);
            }
            if effects.halted {
                hosted.halted = true;
            }
        }
        effects.clear();
        self.effects = effects;
    }

    /// The shared frame for one outbound copy, encoding each logical
    /// message at most once (see the old runtime's encode-once invariant,
    /// carried over verbatim): an identity-bearing copy hits the per-batch
    /// memo, a message carrying a memoized frame skips encoding entirely,
    /// everything else is encoded exactly once and memoized both places.
    fn shared_frame(&mut self, msg: &M) -> Arc<[u8]> {
        let identity = msg.fanout_identity();
        if let Some(key) = identity {
            if let Some(frame) = self.fanout_frames.get(&key) {
                return frame.clone();
            }
        }
        let (frame, encoded) = frame::message_frame_shared(msg);
        if encoded {
            self.metrics.messages_encoded.inc();
        }
        if let Some(key) = identity {
            self.fanout_frames.insert(key, frame.clone());
        }
        frame
    }

    fn send_from(&mut self, from: NodeId, to: NodeId, msg: M) {
        if to == from {
            // Self-sends are real deliveries in the simulator; preserve the
            // deferred semantics through the local delivery queue.
            self.note_inbound_enqueued();
            self.loopback.push_back((from, to, msg));
            return;
        }
        let mut frame = self.shared_frame(&msg);
        if self.shared.cfg.faults.is_active() {
            let now_us = self.shared.epoch.elapsed().as_micros() as u64;
            match self.fault_decider.decide(from, to, frame.len(), now_us) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    self.metrics.frames_dropped_injected.inc();
                    atum_obs::trace_event!(
                        FaultInjected,
                        at = now_us,
                        node = from.raw(),
                        slots = [to.raw(), 1, 0],
                        "injected drop {from} -> {to}"
                    );
                    return;
                }
                FaultDecision::Forward { delay_us, corrupt } => {
                    if corrupt {
                        // Never mutate the shared frame: fan-out siblings
                        // (and the encode memo) hold the same `Arc`.
                        frame = self.fault_decider.corrupt_copy(&frame);
                        self.metrics.frames_corrupted_injected.inc();
                        atum_obs::trace_event!(
                            FaultInjected,
                            at = now_us,
                            node = from.raw(),
                            slots = [to.raw(), 3, 0],
                            "injected corruption {from} -> {to}"
                        );
                    }
                    if delay_us > 0 {
                        let token = self.next_delayed;
                        self.next_delayed += 1;
                        self.delayed.insert(token, (Route { from, to }, frame));
                        self.metrics.frames_delayed_injected.inc();
                        atum_obs::trace_event!(
                            FaultInjected,
                            at = now_us,
                            node = from.raw(),
                            slots = [to.raw(), 2, delay_us],
                            "injected delay {from} -> {to} ({delay_us}us)"
                        );
                        let at = StdInstant::now() + StdDuration::from_micros(delay_us);
                        self.arm_timer(at, TimerKind::FaultRelease { token });
                        return;
                    }
                }
            }
        }
        self.forward_frame(Route { from, to }, frame);
    }

    /// The tail of the send path: resolve the destination and queue the
    /// frame. Split out so fault-delayed frames re-enter here at release
    /// time — re-resolving the address then, not when the delay was drawn.
    fn forward_frame(&mut self, route: Route, frame: Arc<[u8]>) {
        let Some(addr) = self.shared.book.lookup(route.to) else {
            self.metrics.frames_dropped.inc();
            return;
        };
        let slot = self.conn_for_addr(addr, route.from);
        self.enqueue_frame(slot, route, frame);
    }

    // --------------------------------------------------------- connections

    /// The outbound connection to `addr`, created (and its non-blocking
    /// connect started) on first use. `hello_from` names the hosted node
    /// whose send triggered the connection; it travels in the handshake so
    /// the far side can attribute the stream before any route arrives.
    fn conn_for_addr(&mut self, addr: SocketAddr, hello_from: NodeId) -> usize {
        if let Some(&slot) = self.by_addr.get(&addr) {
            if self.table.get(slot).is_some() {
                return slot;
            }
        }
        let dial = Dial {
            addr,
            // Per-connection jitter stream: distinct generations get
            // distinct backoff sequences, so simultaneous breaks don't
            // retry in lock-step.
            reconnect: Reconnect::new(
                self.shared.cfg.seed ^ self.table.next_gen().wrapping_mul(0x9E3779B97F4A7C15),
            ),
        };
        let hello = frame::encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: hello_from,
                listen_port: self.shared.addr.port(),
            },
        );
        let conn = NodeConn {
            dial: Some(dial),
            ..NodeConn::default()
        };
        let slot = self.table.insert(conn, hello);
        self.by_addr.insert(addr, slot);
        self.start_connect(slot);
        slot
    }

    fn enqueue_frame(&mut self, slot: usize, route: Route, frame: Arc<[u8]>) {
        let item = QueuedFrame {
            route: Some(route),
            frame,
        };
        if !self
            .table
            .enqueue(slot, item, self.shared.cfg.queue_capacity)
        {
            self.metrics.frames_dropped.inc();
        }
    }

    fn start_connect(&mut self, slot: usize) {
        let Some(conn) = self.table.get(slot) else {
            return;
        };
        let gen = conn.gen();
        let dial = conn.ext.dial.as_ref();
        let addr = dial.expect("start_connect on accepted conn").addr;
        if connect_nonblocking(addr).is_ok_and(|stream| self.table.connecting(slot, stream)) {
            let at = StdInstant::now() + CONNECT_TIMEOUT;
            self.arm_timer(at, TimerKind::ConnDeadline { slot, gen });
        } else {
            self.fail_connect(slot);
        }
    }

    /// A connect attempt failed: back off (keeping the queue) or, once the
    /// attempt budget is spent, drop everything queued and free the slot.
    fn fail_connect(&mut self, slot: usize) {
        self.table.detach(slot);
        let Some(conn) = self.table.get_mut(slot) else {
            return;
        };
        let gen = conn.gen();
        let dial = conn.ext.dial.as_mut();
        match dial
            .expect("connect on accepted conn")
            .reconnect
            .on_failure()
        {
            Some(delay) => self.arm_timer(
                StdInstant::now() + delay,
                TimerKind::ConnRetry { slot, gen },
            ),
            None => self.close_conn(slot, CloseReason::Unreachable),
        }
    }

    /// A live connection broke mid-stream. Outbound connections with queued
    /// frames reconnect immediately (the attempt budget was reset by the
    /// successful connect); everything else is simply closed.
    fn conn_broken(&mut self, slot: usize) {
        let Some(conn) = self.table.get(slot) else {
            return;
        };
        if conn.ext.dial.is_some() && conn.queued() > 0 {
            self.table.detach(slot);
            self.start_connect(slot);
        } else {
            self.close_conn(slot, CloseReason::PeerClosed);
        }
    }

    /// Closes a connection; whatever was still queued on it is accounted
    /// for, not silently lost.
    fn close_conn(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.table.close(slot, reason) else {
            return;
        };
        self.metrics.frames_dropped.add(conn.queued() as u64);
        if let Some(dial) = conn.ext.dial {
            if self.by_addr.get(&dial.addr) == Some(&slot) {
                self.by_addr.remove(&dial.addr);
            }
        }
    }

    fn arm_timer(&mut self, at: StdInstant, kind: TimerKind) {
        self.timer_seq += 1;
        self.timers.push(TimerEntry {
            at,
            seq: self.timer_seq,
            kind,
        });
    }

    fn write_pending(&mut self, slot: usize) {
        if !self.table.flush(slot) {
            self.conn_broken(slot);
        }
    }

    /// Completion of a non-blocking connect (the socket turned writable
    /// while connecting): the handshake goes out ahead of any data.
    fn connect_finished(&mut self, slot: usize) {
        if self.table.finish_connect(slot) {
            if let Some(dial) = self.table.get_mut(slot).and_then(|c| c.ext.dial.as_mut()) {
                dial.reconnect.on_success();
            }
            self.write_pending(slot);
        } else {
            self.fail_connect(slot);
        }
    }

    // -------------------------------------------------------------- accept

    fn accept_ready(&mut self) {
        while let Some(stream) = self.table.accept_next() {
            let conn = NodeConn {
                peer_ip: stream.peer_addr().ok().map(|a| a.ip()),
                ..NodeConn::default()
            };
            self.table.accept(stream, conn);
        }
    }

    // ---------------------------------------------------------------- read

    fn conn_ready(&mut self, slot: usize, readable: bool, writable: bool, draining: bool) {
        if writable {
            match self.table.get(slot) {
                None => return,
                Some(conn) if conn.is_connecting() => self.connect_finished(slot),
                Some(_) => self.write_pending(slot),
            }
        }
        if readable {
            // Outbound connections are write-only: inbound bytes on them are
            // discarded, the read only spots EOF.
            let inbound = !draining && self.table.get(slot).is_some_and(|c| c.ext.dial.is_none());
            // Peers are other runtimes, trusted with this reactor's time:
            // the socket is drained to `WouldBlock`, a chunk at a time,
            // frames handled as they complete.
            loop {
                match self.table.read(slot, inbound) {
                    Some(0) => return,
                    Some(_) if inbound && !self.process_inbuf(slot) => return,
                    Some(_) => {}
                    None if draining => return self.close_conn(slot, CloseReason::PeerClosed),
                    None => return self.conn_broken(slot),
                }
            }
        }
    }

    /// Decodes every complete frame buffered on the connection. Returns
    /// `false` when the connection was closed (protocol violation or the
    /// slot vanished mid-delivery).
    fn process_inbuf(&mut self, slot: usize) -> bool {
        let Some(gen) = self.table.get(slot).map(|c| c.gen()) else {
            return false;
        };
        let mut consumed = 0usize;
        let closed = loop {
            // Re-validate the slot each round: delivering a message can run
            // arbitrary node code, which can send, which can break and
            // close *this* connection.
            let Some(conn) = self.table.get_mut(slot) else {
                return false;
            };
            if conn.gen() != gen {
                return false;
            }
            let ext = &mut conn.ext;
            let rest = &conn.inbuf[consumed..];
            let (kind, body) = match frame::scan_frame(rest, &frame::NODE_KINDS, MAX_FRAME_LEN) {
                Ok(None) => break false,
                Ok(Some((kind, range))) => {
                    consumed += range.end;
                    (kind, &rest[range])
                }
                Err(_) => break true,
            };
            match kind {
                FRAME_KIND_HELLO => {
                    if ext.hello.is_some() {
                        break true; // Second handshake mid-stream.
                    }
                    let Ok(hello) = wire::decode_exact::<Hello>(body) else {
                        break true;
                    };
                    ext.hello = Some(hello);
                    if let Some(ip) = ext.peer_ip {
                        self.shared
                            .book
                            .register_if_absent(hello.node, SocketAddr::new(ip, hello.listen_port));
                    }
                }
                FRAME_KIND_ROUTE => {
                    let Some(hello) = ext.hello else {
                        break true; // Route before hello.
                    };
                    if ext.pending_route.is_some() {
                        break true; // Unpaired routes.
                    }
                    let Ok(route) = wire::decode_exact::<Route>(body) else {
                        break true;
                    };
                    ext.pending_route = Some(route);
                    // Per-sender address learning: every node of the remote
                    // runtime shares its hello's listener.
                    if ext.learned.insert(route.from) {
                        if let Some(ip) = ext.peer_ip {
                            self.shared.book.register_if_absent(
                                route.from,
                                SocketAddr::new(ip, hello.listen_port),
                            );
                        }
                    }
                }
                _ => {
                    // FRAME_KIND_MESSAGE (NODE_KINDS admits nothing else).
                    let Some(route) = ext.pending_route.take() else {
                        break true; // Message without its route.
                    };
                    let Ok(msg) = wire::decode_exact::<M>(body) else {
                        break true;
                    };
                    let frame_len = FRAME_HEADER_LEN + body.len();
                    self.metrics.frames_received.inc();
                    self.metrics.bytes_received.add(frame_len as u64);
                    self.route_inbound(route.from, route.to, msg);
                }
            }
        };
        if closed {
            self.metrics.decode_errors.inc();
            self.close_conn(slot, CloseReason::Violation);
            return false;
        }
        if let Some(conn) = self.table.get_mut(slot).filter(|c| c.gen() == gen) {
            conn.inbuf.drain(..consumed);
        }
        true
    }

    /// Delivers a decoded inbound message when this runtime hosts its
    /// destination; drops it (and counts it) otherwise.
    fn route_inbound(&mut self, from: NodeId, to: NodeId, msg: M) {
        if self.nodes.contains_key(&to) {
            self.note_inbound_enqueued();
            self.deliver(from, to, msg);
        } else {
            self.metrics.frames_dropped.inc();
        }
    }

    /// One more decoded message awaits dispatch (a self-send, or an inbound
    /// frame about to be delivered).
    fn note_inbound_enqueued(&mut self) {
        self.inbound_pending += 1;
        self.metrics
            .peak_inbound_queue
            .record_max(self.inbound_pending);
    }

    // -------------------------------------------------------------- timers

    fn fire_due_timers(&mut self) {
        loop {
            let now = StdInstant::now();
            let due = matches!(self.timers.peek(), Some(t) if t.at <= now);
            if !due {
                return;
            }
            let entry = self.timers.pop().expect("peeked");
            match entry.kind {
                TimerKind::Node { id, tag, handle } => {
                    // Node timers stop firing once shutdown begins (the
                    // drain phase keeps conn timers alive, not dispatch).
                    if self.shared.shutdown.load(Ordering::Relaxed) {
                        continue;
                    }
                    let Some(hosted) = self.nodes.get_mut(&id) else {
                        continue;
                    };
                    if !hosted.pending_timers.remove(&handle) {
                        continue; // Cancelled before firing.
                    }
                    // How far behind its deadline the timer fires. On a
                    // healthy machine this is microseconds; sustained lag of
                    // hundreds of milliseconds means the reactor is
                    // CPU-starved and failure detectors upstream are lying.
                    // (The third slot is 0: a runtime has one reactor.)
                    let lag_us = now.saturating_duration_since(entry.at).as_micros() as u64;
                    self.metrics.timer_lag_us.record(lag_us);
                    if lag_us >= 100_000 {
                        atum_obs::trace_event!(
                            Reactor,
                            at = self.now().as_micros(),
                            node = id.raw(),
                            slots = [lag_us, tag, 0],
                            "timer fired {}ms late",
                            lag_us / 1_000
                        );
                    }
                    self.metrics.events_processed.inc();
                    self.dispatch(id, move |node, ctx| node.on_timer(tag, ctx));
                }
                TimerKind::ConnDeadline { slot, gen } => {
                    let still_connecting = self
                        .table
                        .get(slot)
                        .is_some_and(|c| c.gen() == gen && c.is_connecting());
                    if still_connecting {
                        self.fail_connect(slot);
                    }
                }
                TimerKind::ConnRetry { slot, gen } => {
                    let in_backoff = self
                        .table
                        .get(slot)
                        .is_some_and(|c| c.gen() == gen && c.is_detached());
                    if in_backoff {
                        self.start_connect(slot);
                    }
                }
                TimerKind::FaultRelease { token } => {
                    if let Some((route, frame)) = self.delayed.remove(&token) {
                        self.forward_frame(route, frame);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------- faults

    /// Observes the fault plane's kill-connections counter and, when it
    /// moved, breaks every live connection of the runtime. Outbound
    /// connections with queued frames immediately reconnect (`conn_broken`
    /// semantics) — the fault models a transport reset, not an eviction.
    fn check_fault_kills(&mut self) {
        let kills = self.shared.cfg.faults.kill_count();
        if kills == self.seen_kills {
            return;
        }
        self.seen_kills = kills;
        let live: Vec<usize> = self
            .table
            .iter()
            .filter(|(_, c)| !c.is_detached())
            .map(|(slot, _)| slot)
            .collect();
        atum_obs::trace_event!(
            FaultInjected,
            at = self.now().as_micros(),
            node = 0,
            slots = [live.len() as u64, 4, 0],
            "injected kill severed {} connections",
            live.len()
        );
        self.metrics.conns_killed_injected.add(live.len() as u64);
        for slot in live {
            self.conn_broken(slot);
        }
    }

    // ------------------------------------------------------------ retarget

    /// Re-resolves queued routes after the address book changed: frames
    /// queued for a peer whose address was re-registered migrate to the
    /// connection of the *new* address instead of stranding on the old one.
    /// Frames already staged in an in-flight batch are not migrated (their
    /// bytes may be partially on the wire).
    fn check_retarget(&mut self) {
        let book_gen = self.shared.book.generation();
        if book_gen == self.book_gen {
            return;
        }
        self.book_gen = book_gen;
        let book = &self.shared.book;
        let mut moves = Vec::new();
        for slot in 0..self.table.slots() {
            let Some(conn) = self.table.get_mut(slot) else {
                continue;
            };
            let Some(cur_addr) = conn.ext.dial.as_ref().map(|d| d.addr) else {
                continue;
            };
            moves.extend(conn.extract_queued(|item| {
                let addr = item.route.and_then(|r| book.lookup(r.to));
                addr.is_some_and(|addr| addr != cur_addr)
            }));
        }
        for QueuedFrame { route, frame } in moves {
            self.forward_frame(route.expect("node frames are routed"), frame);
        }
    }

    // --------------------------------------------------------------- drain

    /// The shutdown drain: no more dispatch, but every frame accepted
    /// before the shutdown still gets its chance to reach the socket —
    /// bounded by [`RuntimeConfig::drain_timeout`]. Reads continue (and are
    /// discarded) so co-located runtimes draining through our listener are
    /// not wedged by our full socket buffers.
    fn drain_outbound(&mut self) {
        let deadline = StdInstant::now() + self.shared.cfg.drain_timeout;
        loop {
            self.table.recycle();
            let mut pending = false;
            for slot in 0..self.table.slots() {
                self.write_pending(slot);
                pending |= self.table.get(slot).is_some_and(|c| c.has_unflushed());
            }
            if !pending || StdInstant::now() >= deadline {
                break;
            }
            let ready = self.table.wait(StdDuration::from_millis(20));
            self.handle_ready(ready, true);
            self.fire_due_timers(); // Reconnect/deadline timers only.
        }
        // Whatever never made it out is accounted for, not silently lost.
        let unsent: usize = self.table.iter().map(|(_, c)| c.queued()).sum();
        self.metrics.frames_dropped.add(unsent as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The jitter window for backoff rung `k` with base
    /// `b = RECONNECT_BACKOFF`: `[b * 2^k, b * 2^k * 3/2]`.
    fn assert_in_rung(delay: StdDuration, rung: u32) {
        let lo = RECONNECT_BACKOFF.saturating_mul(1 << rung);
        let hi = lo + lo / 2;
        assert!(
            delay >= lo && delay <= hi,
            "rung {rung}: {delay:?} outside [{lo:?}, {hi:?}]"
        );
    }

    #[test]
    fn reconnect_delay_doubles_with_jitter_then_resets_on_success() {
        let mut r = Reconnect::new(7);
        assert_in_rung(r.on_failure().unwrap(), 0);
        assert_in_rung(r.on_failure().unwrap(), 1);
        assert_in_rung(r.on_failure().unwrap(), 2);
        // Budget spent: give up.
        assert_eq!(r.on_failure(), None);

        // A successful connect resets BOTH the budget and the backoff —
        // the bug the old writer path had (backoff kept growing across
        // successful reconnects).
        let mut r = Reconnect::new(7);
        let _ = r.on_failure();
        let _ = r.on_failure();
        r.on_success();
        assert_in_rung(r.on_failure().unwrap(), 0);
        assert_in_rung(r.on_failure().unwrap(), 1);
        assert_in_rung(r.on_failure().unwrap(), 2);
        assert_eq!(r.on_failure(), None);
    }

    #[test]
    fn reconnect_jitter_is_seeded_and_desynchronises_streams() {
        // Same seed: identical delay sequence (replayable runs).
        let mut a = Reconnect::new(11);
        let mut b = Reconnect::new(11);
        let seq_a: Vec<_> = (0..3).map(|_| a.on_failure()).collect();
        let seq_b: Vec<_> = (0..3).map(|_| b.on_failure()).collect();
        assert_eq!(seq_a, seq_b);

        // Different seeds: some rung differs (streams are desynchronised;
        // 64 seeds all colliding on every rung would mean no jitter).
        let diverges = (0..64u64).any(|seed| {
            let mut c = Reconnect::new(seed);
            (0..3).map(|_| c.on_failure()).collect::<Vec<_>>() != seq_a
        });
        assert!(diverges);
    }
}
