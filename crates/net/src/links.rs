//! The node wire's connections: every socket decision a runtime makes.
//!
//! [`Links`] is the policy over the [`crate::conn`] mechanism. It owns the
//! connection table, the one outbound connection per remote listener,
//! dialling and reconnecting, the `Hello`/`Route` pairing on accepted
//! streams, the fault plane's decisions and delayed frames, the
//! re-resolution of queued routes after the address book changes, and the
//! shutdown drain. It runs on the reactor thread and holds no node: a
//! decoded message goes to [`Reactor::route_inbound`], and a deadline goes
//! into the reactor's one timer heap ([`Reactor::arm_timer`]), the only two
//! places it reaches into the other part.
//!
//! # Invariants
//!
//! * **One outbound connection per remote listener.** A send resolves its
//!   destination in the [`AddressBook`](crate::AddressBook) and queues on
//!   the connection to that address, dialling it on first use. Sends to
//!   nodes co-hosted on this runtime cross a socket too (the runtime
//!   connects to its own listener).
//! * **Reconnects keep the queue.** A failed connect backs off along the
//!   [`Reconnect`] ladder with the frames still queued; a connection that
//!   breaks mid-stream with frames queued redials at once; a connect that
//!   spends its attempt budget closes the slot, and what it held counts in
//!   `net.frames_dropped`. Deadlines and backoffs carry the slot's
//!   generation, so a timer never acts on a newer connection in the slot.
//! * **Frames leave in turns.** Queueing only marks the slot; the reactor
//!   calls [`Links::flush_marked`] once per turn, before it computes the
//!   poll timeout, because a socket found broken there redials and arms a
//!   deadline the timeout must see.
//! * **Inbound frames are delivered in arrival order.** A complete message
//!   is delivered before the next frame is decoded, and the slot is
//!   re-validated after each one: the node code a delivery runs can send,
//!   and a send can close this very connection. On a protocol violation the
//!   frames before it have been delivered; the connection then closes with
//!   [`CloseReason::Violation`] and counts in `net.decode_errors`.
//! * **The fault plane sits at the frame boundary.** When
//!   [`RuntimeConfig::faults`](crate::RuntimeConfig::faults) has rules, a
//!   send consults the runtime's deterministic `FaultDecider` *after*
//!   encoding (the frame length feeds the bandwidth shaper) and *before*
//!   the address lookup, so injected faults never cross a thread. Delayed
//!   frames wait in `delayed` under a [`LinkTimer::FaultRelease`] timer and
//!   re-resolve their destination when released; corrupted frames are
//!   *copies* (message frames are `Arc`-shared across fan-out and never
//!   mutated in place); connection kills are observed at the top of the
//!   loop, like address-book changes. The benign path pays one relaxed
//!   atomic load.
//! * **The drain loses nothing silently.** Once the runtime shuts down,
//!   [`Links::drain`] keeps writing for at most
//!   [`RuntimeConfig::drain_timeout`](crate::RuntimeConfig::drain_timeout),
//!   reading and discarding input so peers draining into this listener
//!   are not wedged; whatever is still queued then counts in
//!   `net.frames_dropped`.
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
//! fan-out encodes once ([`FrameMemo`](atum_types::FrameMemo)) and one
//! `write` carries every frame a turn queued on the connection.

use crate::conn::{CloseReason, ConnMetrics, ConnTable, QueuedFrame, Ready};
use crate::faults::{FaultDecider, FaultDecision};
use crate::frame::{self, Hello, Route};
use crate::reactor::{Reactor, Shared};
use crate::runtime::{NetMessage, NetMetrics};
use atum_simnet::Node;
use atum_types::wire::{self, FRAME_HEADER_LEN, FRAME_KIND_HELLO, FRAME_KIND_ROUTE, MAX_FRAME_LEN};
use atum_types::NodeId;
use polling_mini::connect_nonblocking;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

/// Timeout of each TCP connect attempt.
const CONNECT_TIMEOUT: StdDuration = StdDuration::from_millis(500);

/// Connect attempts before a connection's queued frames are dropped. The
/// budget resets on every successful connect.
const MAX_CONNECT_ATTEMPTS: u32 = 4;

/// Base reconnect backoff; doubles per failed attempt, resets to base on
/// success.
const RECONNECT_BACKOFF: StdDuration = StdDuration::from_millis(25);

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
#[derive(Debug)]
struct Reconnect {
    attempt: u32,
    backoff: StdDuration,
    rng: ChaCha8Rng,
}

impl Reconnect {
    fn new(seed: u64) -> Self {
        Reconnect {
            attempt: 0,
            backoff: RECONNECT_BACKOFF,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Records a successful connect: the budget and backoff start over.
    fn on_success(&mut self) {
        self.attempt = 0;
        self.backoff = RECONNECT_BACKOFF;
    }

    /// Records a failed connect attempt. Returns the jittered delay to wait
    /// before the next attempt, or `None` when the budget is exhausted
    /// (give up).
    fn on_failure(&mut self) -> Option<StdDuration> {
        self.attempt += 1;
        if self.attempt >= MAX_CONNECT_ATTEMPTS {
            return None;
        }
        let rung = self.backoff;
        self.backoff = self.backoff.saturating_mul(2);
        let extra = self.rng.gen_range(0..=rung.as_micros() as u64 / 2);
        Some(rung + StdDuration::from_micros(extra))
    }
}

/// A deadline [`Links`] arms in the reactor's timer heap.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LinkTimer {
    /// Deadline for an in-progress non-blocking connect.
    ConnDeadline { slot: usize, gen: u64 },
    /// End of a reconnect backoff.
    ConnRetry { slot: usize, gen: u64 },
    /// A fault-injected delay elapsed: the frame stashed under `token` in
    /// `delayed` resumes its journey.
    FaultRelease { token: u64 },
}

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

/// Every connection of one runtime and every decision about them. See the
/// module docs for the invariants.
pub(crate) struct Links<M: NetMessage, N: Node<M> + Send + 'static> {
    shared: Arc<Shared<M, N>>,
    table: ConnTable<NodeConn>,
    by_addr: HashMap<SocketAddr, usize>,
    /// Last observed [`AddressBook`](crate::AddressBook) generation (re-registration sweep).
    book_gen: u64,
    /// The fault plane's deterministic decision stream for this runtime
    /// (seeded from `cfg.seed`).
    fault_decider: FaultDecider,
    /// Frames held back by an injected delay, keyed by release token; the
    /// matching [`LinkTimer::FaultRelease`] resumes them.
    delayed: HashMap<u64, (Route, Arc<[u8]>)>,
    /// Next release token for `delayed`.
    next_delayed: u64,
    /// Last observed `FaultPlane` kill-connections counter.
    seen_kills: u64,
    /// The shutdown drain is running: input is read and discarded, not
    /// dispatched.
    draining: bool,
    metrics: NetMetrics,
}

impl<M: NetMessage, N: Node<M> + Send + 'static> Links<M, N> {
    pub(crate) fn new(shared: Arc<Shared<M, N>>, listener: TcpListener) -> std::io::Result<Self> {
        let conn_metrics = ConnMetrics::new(&shared.registry, "net");
        let table = ConnTable::new(&shared.injector, listener, conn_metrics, shared.epoch)?;
        Ok(Links {
            table,
            by_addr: HashMap::new(),
            book_gen: 0,
            fault_decider: shared.cfg.faults.decider(shared.cfg.seed),
            delayed: HashMap::new(),
            next_delayed: 0,
            seen_kills: shared.cfg.faults.kill_count(),
            draining: false,
            metrics: NetMetrics::new(&shared.registry),
            shared,
        })
    }

    /// Frees the slots closed since the last event batch for reuse.
    pub(crate) fn recycle(&mut self) {
        self.table.recycle();
    }

    /// Blocks until a socket, the listener or the injector is ready, or
    /// `timeout` passes; returns the number of readiness reports.
    pub(crate) fn wait(&mut self, timeout: StdDuration) -> usize {
        self.table.wait(timeout)
    }

    /// Acts on the reports of the last [`Links::wait`].
    pub(crate) fn handle_ready(&mut self, reactor: &mut Reactor<M, N>, ready: usize) {
        for i in 0..ready {
            match self.table.event(i) {
                Ready::Waker => self.shared.injector.acknowledge(),
                Ready::Listener => self.accept_ready(),
                Ready::Conn {
                    slot,
                    readable,
                    writable,
                } => self.conn_ready(reactor, slot, readable, writable),
            }
        }
    }

    /// Writes out everything this turn queued, one write per connection.
    pub(crate) fn flush_marked(&mut self, reactor: &mut Reactor<M, N>) {
        for slot in self.table.flush_marked() {
            self.conn_broken(reactor, slot);
        }
    }

    // ---------------------------------------------------------------- send

    /// Sends an encoded message frame along `route`: the fault plane
    /// decides first, then the destination is resolved and the frame
    /// queued.
    pub(crate) fn send(&mut self, reactor: &mut Reactor<M, N>, route: Route, mut frame: Arc<[u8]>) {
        if self.shared.cfg.faults.is_active() {
            let Route { from, to } = route;
            let now_us = self.shared.epoch.elapsed().as_micros() as u64;
            match self.fault_decider.decide(from, to) {
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
                        self.delayed.insert(token, (route, frame));
                        self.metrics.frames_delayed_injected.inc();
                        atum_obs::trace_event!(
                            FaultInjected,
                            at = now_us,
                            node = from.raw(),
                            slots = [to.raw(), 2, delay_us],
                            "injected delay {from} -> {to} ({delay_us}us)"
                        );
                        let at = StdInstant::now() + StdDuration::from_micros(delay_us);
                        reactor.arm_timer(at, LinkTimer::FaultRelease { token });
                        return;
                    }
                }
            }
        }
        self.forward_frame(reactor, route, frame);
    }

    /// The tail of the send path: resolve the destination and queue the
    /// frame. Split out so fault-delayed frames re-enter here at release
    /// time — re-resolving the address then, not when the delay was drawn.
    fn forward_frame(&mut self, reactor: &mut Reactor<M, N>, route: Route, frame: Arc<[u8]>) {
        let Some(addr) = self.shared.cfg.book.lookup(route.to) else {
            self.metrics.frames_dropped.inc();
            return;
        };
        let slot = self.conn_for_addr(reactor, addr, route.from);
        let item = QueuedFrame {
            route: Some(route),
            frame,
        };
        let capacity = self.shared.cfg.queue_capacity;
        if !self.table.enqueue(slot, item, capacity) {
            self.metrics.frames_dropped.inc();
        }
    }

    /// Acts on one of its timers, popped from the reactor's heap.
    pub(crate) fn fire(&mut self, reactor: &mut Reactor<M, N>, timer: LinkTimer) {
        match timer {
            // Both act only while the slot's generation is the one that
            // armed them: still connecting, or still backing off.
            LinkTimer::ConnDeadline { slot, gen } => {
                let conn = self.table.get(slot).filter(|c| c.gen() == gen);
                if conn.is_some_and(|c| c.is_connecting()) {
                    self.fail_connect(reactor, slot);
                }
            }
            LinkTimer::ConnRetry { slot, gen } => {
                let conn = self.table.get(slot).filter(|c| c.gen() == gen);
                if conn.is_some_and(|c| c.is_detached()) {
                    self.start_connect(reactor, slot);
                }
            }
            LinkTimer::FaultRelease { token } => {
                if let Some((route, frame)) = self.delayed.remove(&token) {
                    self.forward_frame(reactor, route, frame);
                }
            }
        }
    }

    // --------------------------------------------------------- connections

    /// The outbound connection to `addr`, created (and its non-blocking
    /// connect started) on first use. `from` names the hosted node whose
    /// send triggered the connection; it travels in the handshake so the
    /// far side can attribute the stream before any route arrives.
    fn conn_for_addr(
        &mut self,
        reactor: &mut Reactor<M, N>,
        addr: SocketAddr,
        from: NodeId,
    ) -> usize {
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
        let listen_port = self.shared.addr.port();
        let hello = frame::encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: from,
                listen_port,
            },
        );
        let conn = NodeConn {
            dial: Some(dial),
            ..NodeConn::default()
        };
        let slot = self.table.insert(conn, hello);
        self.by_addr.insert(addr, slot);
        self.start_connect(reactor, slot);
        slot
    }

    fn start_connect(&mut self, reactor: &mut Reactor<M, N>, slot: usize) {
        let Some(conn) = self.table.get(slot) else {
            return;
        };
        let gen = conn.gen();
        let dial = conn.ext.dial.as_ref();
        let addr = dial.expect("start_connect on accepted conn").addr;
        if connect_nonblocking(addr).is_ok_and(|stream| self.table.connecting(slot, stream)) {
            let at = StdInstant::now() + CONNECT_TIMEOUT;
            reactor.arm_timer(at, LinkTimer::ConnDeadline { slot, gen });
        } else {
            self.fail_connect(reactor, slot);
        }
    }

    /// A connect attempt failed: back off (keeping the queue) or, once the
    /// attempt budget is spent, drop everything queued and free the slot.
    fn fail_connect(&mut self, reactor: &mut Reactor<M, N>, slot: usize) {
        self.table.detach(slot);
        let Some(conn) = self.table.get_mut(slot) else {
            return;
        };
        let gen = conn.gen();
        let retry = LinkTimer::ConnRetry { slot, gen };
        let dial = conn.ext.dial.as_mut().expect("connect on accepted conn");
        match dial.reconnect.on_failure() {
            Some(delay) => reactor.arm_timer(StdInstant::now() + delay, retry),
            None => self.close_conn(slot, CloseReason::Unreachable),
        }
    }

    /// A live connection broke mid-stream. Outbound connections with queued
    /// frames reconnect immediately (the attempt budget was reset by the
    /// successful connect); everything else is simply closed.
    fn conn_broken(&mut self, reactor: &mut Reactor<M, N>, slot: usize) {
        let Some(conn) = self.table.get(slot) else {
            return;
        };
        if conn.ext.dial.is_some() && conn.queued() > 0 {
            self.table.detach(slot);
            self.start_connect(reactor, slot);
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

    fn write_pending(&mut self, reactor: &mut Reactor<M, N>, slot: usize) {
        if !self.table.flush(slot) {
            self.conn_broken(reactor, slot);
        }
    }

    /// Completion of a non-blocking connect (the socket turned writable
    /// while connecting): the handshake goes out ahead of any data.
    fn connect_finished(&mut self, reactor: &mut Reactor<M, N>, slot: usize) {
        if self.table.finish_connect(slot) {
            if let Some(dial) = self.table.get_mut(slot).and_then(|c| c.ext.dial.as_mut()) {
                dial.reconnect.on_success();
            }
            self.write_pending(reactor, slot);
        } else {
            self.fail_connect(reactor, slot);
        }
    }

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

    fn conn_ready(
        &mut self,
        reactor: &mut Reactor<M, N>,
        slot: usize,
        readable: bool,
        writable: bool,
    ) {
        if writable {
            match self.table.get(slot) {
                None => return,
                Some(conn) if conn.is_connecting() => self.connect_finished(reactor, slot),
                Some(_) => self.write_pending(reactor, slot),
            }
        }
        if readable {
            // Outbound connections are write-only: inbound bytes on them are
            // discarded, the read only spots EOF.
            let inbound =
                !self.draining && self.table.get(slot).is_some_and(|c| c.ext.dial.is_none());
            // Peers are other runtimes, trusted with this reactor's time:
            // the socket is drained to `WouldBlock`, a chunk at a time,
            // frames handled as they complete.
            loop {
                match self.table.read(slot, inbound) {
                    Some(0) => return,
                    Some(_) if inbound && !self.process_inbuf(reactor, slot) => return,
                    Some(_) => {}
                    None if self.draining => return self.close_conn(slot, CloseReason::PeerClosed),
                    None => return self.conn_broken(reactor, slot),
                }
            }
        }
    }

    /// Decodes every complete frame buffered on the connection. Returns
    /// `false` when the connection was closed (protocol violation or the
    /// slot vanished mid-delivery).
    fn process_inbuf(&mut self, reactor: &mut Reactor<M, N>, slot: usize) -> bool {
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
            let book = &self.shared.cfg.book;
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
                        book.register_if_absent(hello.node, SocketAddr::new(ip, hello.listen_port));
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
                            book.register_if_absent(
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
                    self.metrics.frames_received.inc();
                    let frame_len = FRAME_HEADER_LEN + body.len();
                    self.metrics.bytes_received.add(frame_len as u64);
                    reactor.route_inbound(self, route, msg);
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

    // ------------------------------------------------- faults and the book

    /// Observes the fault plane's kill-connections counter and, when it
    /// moved, breaks every live connection of the runtime. Outbound
    /// connections with queued frames immediately reconnect (`conn_broken`
    /// semantics) — the fault models a transport reset, not an eviction.
    pub(crate) fn check_fault_kills(&mut self, reactor: &mut Reactor<M, N>) {
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
            at = self.shared.epoch.elapsed().as_micros() as u64,
            node = 0,
            slots = [live.len() as u64, 4, 0],
            "injected kill severed {} connections",
            live.len()
        );
        self.metrics.conns_killed_injected.add(live.len() as u64);
        for slot in live {
            self.conn_broken(reactor, slot);
        }
    }

    /// Re-resolves queued routes after the address book changed: frames
    /// queued for a peer whose address was re-registered migrate to the
    /// connection of the *new* address instead of stranding on the old one.
    /// Frames already staged in an in-flight batch are not migrated (their
    /// bytes may be partially on the wire).
    pub(crate) fn check_retarget(&mut self, reactor: &mut Reactor<M, N>) {
        let book_gen = self.shared.cfg.book.generation();
        if book_gen == self.book_gen {
            return;
        }
        self.book_gen = book_gen;
        let book = &self.shared.cfg.book;
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
            self.forward_frame(reactor, route.expect("node frames are routed"), frame);
        }
    }

    // --------------------------------------------------------------- drain

    /// The shutdown drain: no more dispatch, but every frame accepted
    /// before the shutdown still gets its chance to reach the socket —
    /// bounded by [`RuntimeConfig::drain_timeout`](crate::RuntimeConfig::drain_timeout).
    /// Reads continue (and are discarded) so co-located runtimes draining
    /// through our listener are not wedged by our full socket buffers.
    pub(crate) fn drain(&mut self, reactor: &mut Reactor<M, N>) {
        let deadline = StdInstant::now() + self.shared.cfg.drain_timeout;
        self.draining = true;
        loop {
            self.table.recycle();
            let mut pending = false;
            for slot in 0..self.table.slots() {
                self.write_pending(reactor, slot);
                pending |= self.table.get(slot).is_some_and(|c| c.has_unflushed());
            }
            if !pending || StdInstant::now() >= deadline {
                break;
            }
            let ready = self.table.wait(StdDuration::from_millis(20));
            self.handle_ready(reactor, ready);
            reactor.fire_due_timers(self); // Reconnect/deadline timers only.
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
