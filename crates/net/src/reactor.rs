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
//! The thread runs two parts. The private `links` module owns every
//! connection and every decision about one: dialling and reconnecting, the
//! `Hello`/`Route` handshake, the fault plane, the shutdown drain. The
//! `Reactor` here owns the loop, the injector, the hosted nodes, the local
//! delivery queue and the one timer heap. Neither part holds the other: a
//! method that needs the other part takes it as `&mut`.
//!
//! # Invariants
//!
//! * **One owner for every socket and every node.** The reactor thread owns
//!   the listener, every connection and every hosted node; no lock is ever
//!   taken on the dispatch or socket path. Cross-thread input arrives only
//!   through the runtime's [`Injector`]: hosting and removal requests and
//!   external calls.
//! * **One door into a node.** `Reactor::dispatch` is the one place an
//!   input (an external call, a timer, a delivered message, `on_start`)
//!   enters a hosted node. It drives the same [`Context`]/[`ContextEffects`]
//!   surface as the simulator and applies the effects in the contract
//!   order: sends, then timers. `net.events_processed` counts every call,
//!   fired node timer and delivered message; `on_start` is not an event.
//! * **Self-sends are deferred.** `X → X` loops through the local delivery
//!   queue, exactly like the simulator; sends to *other* nodes always leave
//!   through `links` and cross a real socket, even to a node hosted here.
//!   A decoded inbound message is delivered when the runtime hosts its
//!   destination and counted in `net.frames_dropped` otherwise.
//!   `net.peak_inbound_queue` is the deepest the delivery queue got,
//!   counting an inbound message while it is being delivered.
//! * **The wall clock lives in one heap.** Node timers
//!   (`Context::set_timer`) and the connect deadlines, reconnect backoffs
//!   and fault releases of `links` share one binary heap, ordered by
//!   deadline and then by arming order; the poll timeout is the earliest
//!   deadline. A node timer is never cancelled: it fires unless its node
//!   was removed first. `links` cancels lazily, by a generation counter
//!   per connection slot. `net.timer_lag_us` records how late each node
//!   timer fires, and a lag of 100 ms or more is traced.
//! * **One write per connection per turn.** A turn drains the injector and
//!   the delivery queue and fires the due timers; only then does `links`
//!   flush what they all queued, before the poll timeout is computed. The
//!   deferral costs no latency: the thread that would write the frame is
//!   the thread that must return to `poll` to read it.

use crate::conn::Injector;
use crate::faults::FaultPlane;
use crate::frame::{self, Route};
use crate::links::{LinkTimer, Links};
use crate::runtime::{AddressBook, NetMessage, NetMetrics, RuntimeConfig, RuntimeStats};
use atum_obs::flight::{self, FlightRecorder};
use atum_obs::Registry;
use atum_simnet::{Context, ContextEffects, Node, OutboundMessage, TimerRequest};
use atum_types::{Instant, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

/// Poll timeout when no timer is armed.
const IDLE_POLL: StdDuration = StdDuration::from_millis(200);

/// External call executed against a hosted node on its reactor.
type Call<M, N> = Box<dyn FnOnce(&mut N, &mut Context<'_, M>) + Send>;

/// Cross-thread input to the reactor.
pub(crate) enum Injected<M, N> {
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

/// What a timer in the reactor's heap is for. The heap orders its entries
/// by deadline, then by a unique arming sequence number, so the kind's
/// derived order is never consulted.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TimerKind {
    /// A `Context::set_timer` timer of a hosted node.
    Node { id: NodeId, tag: u64 },
    /// A connection deadline or a fault release of [`Links`].
    Link(LinkTimer),
}

/// A protocol node plus the per-node state the dispatch contract needs.
struct Hosted<N> {
    node: N,
    rng: ChaCha8Rng,
    /// This node's flight recorder, scoped around every dispatch so trace
    /// events land in the ring of the node that was executing.
    flight: Arc<FlightRecorder>,
}

// ------------------------------------------------------------------- shared

/// State shared between the runtime handle, node handles and the
/// reactor thread's two parts.
pub(crate) struct Shared<M, N> {
    pub(crate) cfg: RuntimeConfig,
    /// The runtime's metrics store: every `net.*` count of its reactor.
    pub(crate) registry: Registry,
    pub(crate) epoch: StdInstant,
    pub(crate) addr: SocketAddr,
    shutdown: AtomicBool,
    /// Every hosted node's flight recorder, keyed by the nodes the handles
    /// see as hosted — readable from any thread (`NodeHandle::dump_flight`)
    /// while the reactor records into it.
    flights: RwLock<HashMap<NodeId, Arc<FlightRecorder>>>,
    pub(crate) injector: Injector<Injected<M, N>>,
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
            epoch: cfg.epoch.unwrap_or_else(StdInstant::now),
            registry,
            addr,
            shutdown: AtomicBool::new(false),
            flights: RwLock::new(HashMap::new()),
            injector: Injector::new()?,
            cfg,
        });
        let links = Links::new(shared.clone(), listener)?;
        let reactor = Reactor::new(shared.clone());
        let thread = std::thread::Builder::new()
            .name("atum-reactor".to_string())
            .spawn(move || reactor.run(links))
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
        self.shared.cfg.book.register(id, self.shared.addr);
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
        &self.shared.cfg.book
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

    /// Removes this node from its runtime: its messages stop being
    /// delivered, and its armed timers stay in the heap but find no node
    /// when they come due. The runtime keeps running for every other hosted
    /// node. (Shutting the whole runtime down is [`NetRuntime::shutdown`].)
    /// Hosting the same id again would hand it these stale timers; nothing
    /// does (`NetCluster::build` and the tests host each id once).
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

/// The hosted nodes and the loop that feeds them; see the module docs.
pub(crate) struct Reactor<M: NetMessage, N: Node<M> + Send + 'static> {
    shared: Arc<Shared<M, N>>,
    nodes: HashMap<NodeId, Hosted<N>>,
    /// Every armed timer as `(deadline, arming sequence number, kind)`.
    timers: BinaryHeap<Reverse<(StdInstant, u64, TimerKind)>>,
    timer_seq: u64,
    /// Deferred self-deliveries (`X → X`), exactly the simulator's
    /// deferred-delivery semantics.
    loopback: VecDeque<(NodeId, NodeId, M)>,
    effects: ContextEffects<M>,
    /// Per-effect-batch encode-once memo: fan-out identity → shared frame.
    fanout_frames: HashMap<usize, Arc<[u8]>>,
    metrics: NetMetrics,
}

impl<M: NetMessage, N: Node<M> + Send + 'static> Reactor<M, N> {
    fn new(shared: Arc<Shared<M, N>>) -> Self {
        Reactor {
            nodes: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            loopback: VecDeque::new(),
            effects: ContextEffects::new(),
            fanout_frames: HashMap::new(),
            metrics: NetMetrics::new(&shared.registry),
            shared,
        }
    }

    fn now(&self) -> Instant {
        Instant::from_micros(self.shared.epoch.elapsed().as_micros() as u64)
    }

    fn run(mut self, mut links: Links<M, N>) {
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            links.recycle();
            self.drain_injected(&mut links);
            self.deliver_loopback(&mut links);
            links.check_fault_kills(&mut self);
            links.check_retarget(&mut self);
            self.fire_due_timers(&mut links);
            self.deliver_loopback(&mut links);
            // Everything this turn queued leaves now, one write per
            // connection. Before the timeout is computed: a socket found
            // broken here arms a reconnect timer.
            links.flush_marked(&mut self);
            let timeout = match self.timers.peek() {
                Some(Reverse((at, ..))) => at.saturating_duration_since(StdInstant::now()),
                None => IDLE_POLL,
            };
            let wait_started = StdInstant::now();
            let ready = links.wait(timeout);
            let waited_us = wait_started.elapsed().as_micros() as u64;
            self.metrics.poll_wait_us.record(waited_us);
            if ready > 0 {
                self.metrics.dispatch_batch.record(ready as u64);
            }
            links.handle_ready(&mut self, ready);
            self.deliver_loopback(&mut links);
        }
        links.drain(&mut self);
    }

    // ------------------------------------------------------ input channels

    fn drain_injected(&mut self, links: &mut Links<M, N>) {
        while let Some(item) = self.shared.injector.pop() {
            match item {
                Injected::Host { id, node, flight } => {
                    let seed = self.shared.cfg.seed ^ id.raw().wrapping_mul(0x9E3779B97F4A7C15);
                    let hosted = Hosted {
                        node,
                        rng: ChaCha8Rng::seed_from_u64(seed),
                        flight,
                    };
                    self.nodes.insert(id, hosted);
                    self.dispatch(links, id, |node, ctx| node.on_start(ctx));
                }
                Injected::Remove { id } => {
                    self.nodes.remove(&id);
                }
                Injected::Call { id, f } => {
                    self.metrics.events_processed.inc();
                    self.dispatch(links, id, f);
                }
            }
        }
    }

    fn deliver_loopback(&mut self, links: &mut Links<M, N>) {
        while let Some((from, to, msg)) = self.loopback.pop_front() {
            self.deliver(links, from, to, msg);
        }
    }

    fn deliver(&mut self, links: &mut Links<M, N>, from: NodeId, to: NodeId, msg: M) {
        self.metrics.events_processed.inc();
        self.dispatch(links, to, move |node, ctx| node.on_message(from, msg, ctx));
    }

    /// Delivers a message [`Links`] decoded when this runtime hosts its
    /// destination; drops it (and counts it) otherwise.
    pub(crate) fn route_inbound(&mut self, links: &mut Links<M, N>, route: Route, msg: M) {
        let Route { from, to } = route;
        if self.nodes.contains_key(&to) {
            // The queued self-sends plus this message await dispatch.
            let depth = self.loopback.len() as u64 + 1;
            self.metrics.peak_inbound_queue.record_max(depth);
            self.deliver(links, from, to, msg);
        } else {
            self.metrics.frames_dropped.inc();
        }
    }

    // ------------------------------------------------------------ dispatch

    /// Runs one callback against a hosted node and applies its effects in
    /// the contract order: sends, then timers.
    fn dispatch<F>(&mut self, links: &mut Links<M, N>, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, M>),
    {
        let now = self.now();
        let Some(hosted) = self.nodes.get_mut(&id) else {
            return;
        };
        let flight = hosted.flight.clone();
        let effects = std::mem::take(&mut self.effects);
        let mut ctx = Context::for_runtime(id, now, &mut hosted.rng, effects);
        // Scope this node's flight recorder over the callback: any
        // `trace_event!` the protocol code hits lands in this node's ring.
        let guard = flight::scope(&flight);
        f(&mut hosted.node, &mut ctx);
        drop(guard);
        let mut effects = ctx.into_effects();

        // Sends first (they need the links, so the node borrow must end
        // here), then timers.
        self.fanout_frames.clear();
        let mut outbox = std::mem::take(&mut effects.outbox);
        for OutboundMessage { to, msg, .. } in outbox.drain(..) {
            self.send_from(links, id, to, msg);
        }
        effects.outbox = outbox;

        for &TimerRequest { delay, tag } in &effects.new_timers {
            let at = self.shared.epoch + StdDuration::from_micros((now + delay).as_micros());
            self.timer_seq += 1;
            let kind = TimerKind::Node { id, tag };
            self.timers.push(Reverse((at, self.timer_seq, kind)));
        }
        effects.clear();
        self.effects = effects;
    }

    /// The shared frame for one outbound copy, encoding each logical
    /// message at most once per dispatch: an identity-bearing copy hits the
    /// per-dispatch memo, everything else is encoded exactly once.
    fn shared_frame(&mut self, msg: &M) -> Arc<[u8]> {
        let identity = msg.fanout_identity();
        if let Some(key) = identity {
            if let Some(frame) = self.fanout_frames.get(&key) {
                return frame.clone();
            }
        }
        let frame = frame::message_frame_shared(msg);
        self.metrics.messages_encoded.inc();
        if let Some(key) = identity {
            self.fanout_frames.insert(key, frame.clone());
        }
        frame
    }

    fn send_from(&mut self, links: &mut Links<M, N>, from: NodeId, to: NodeId, msg: M) {
        if to == from {
            // Self-sends are real deliveries in the simulator; preserve the
            // deferred semantics through the local delivery queue.
            self.loopback.push_back((from, to, msg));
            let depth = self.loopback.len() as u64;
            self.metrics.peak_inbound_queue.record_max(depth);
            return;
        }
        let frame = self.shared_frame(&msg);
        links.send(self, Route { from, to }, frame);
    }

    // -------------------------------------------------------------- timers

    /// Arms a timer of [`Links`] in the one heap.
    pub(crate) fn arm_timer(&mut self, at: StdInstant, timer: LinkTimer) {
        self.timer_seq += 1;
        self.timers
            .push(Reverse((at, self.timer_seq, TimerKind::Link(timer))));
    }

    pub(crate) fn fire_due_timers(&mut self, links: &mut Links<M, N>) {
        loop {
            let now = StdInstant::now();
            if !matches!(self.timers.peek(), Some(Reverse((at, ..))) if *at <= now) {
                return;
            }
            let Reverse((at, _, kind)) = self.timers.pop().expect("peeked");
            let (id, tag) = match kind {
                TimerKind::Link(timer) => {
                    links.fire(self, timer);
                    continue;
                }
                TimerKind::Node { id, tag } => (id, tag),
            };
            // Node timers stop firing once shutdown begins (the drain
            // phase keeps link timers alive, not dispatch).
            if self.shared.shutdown.load(Ordering::Relaxed) {
                continue;
            }
            if !self.nodes.contains_key(&id) {
                continue;
            }
            // How far behind its deadline the timer fires. On a healthy
            // machine this is microseconds; sustained lag of hundreds of
            // milliseconds means the reactor is CPU-starved and failure
            // detectors upstream are lying. (The third slot is 0: a runtime
            // has one reactor.)
            let lag_us = now.saturating_duration_since(at).as_micros() as u64;
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
            self.dispatch(links, id, move |node, ctx| node.on_timer(tag, ctx));
        }
    }
}
