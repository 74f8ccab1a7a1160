//! Runtime configuration, the stats view and the address book.
//!
//! The socket runtime itself lives in [`crate::reactor`]:
//! [`NetRuntime`](crate::reactor::NetRuntime) owns the listener and one
//! reactor thread multiplexing non-blocking sockets for every hosted node,
//! and [`NodeHandle`](crate::reactor::NodeHandle) is the
//! per-node view onto it. This module keeps what the runtime, its
//! harnesses and the edge gateway share: [`RuntimeConfig`],
//! [`RuntimeStats`], [`AddressBook`] and the [`NetMessage`] bound.
//!
//! The runtime hosts *unmodified* protocol state machines: anything
//! implementing [`atum_simnet::Node`] runs here exactly as it runs on the
//! simulator, because both runtimes drive it through the same
//! `Context`/`ContextEffects` surface and apply effects in the same order
//! (sends, then timers). What
//! differs is the substrate: `now` is wall-clock time since the runtime's
//! epoch, messages cross real TCP sockets framed by [`crate::frame`], and
//! delivery timing is whatever the kernel provides — the simulator remains
//! the deterministic environment (see the `atum_simnet::node` module docs
//! for the invariant).

use crate::faults::FaultPlane;
use atum_obs::{AtomicHistogram, Counter, Gauge, Registry, Snapshot};
use atum_types::{FrameMemo, NodeId, WireDecode, WireEncode, WireSize};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration as StdDuration;

/// Messages the TCP runtime can carry: encodable, decodable, sized, movable
/// across threads, and queryable for encode-once fan-out ([`FrameMemo`] —
/// the default no-memo implementation is always correct).
pub trait NetMessage: WireEncode + WireDecode + WireSize + FrameMemo + Send + 'static {}
impl<T: WireEncode + WireDecode + WireSize + FrameMemo + Send + 'static> NetMessage for T {}

/// Tuning knobs of the runtime. Every runtime is one reactor thread; a
/// process that wants more threads binds more runtimes (see
/// [`NetClusterBuilder::runtimes`](crate::NetClusterBuilder::runtimes)).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Seed for the per-node deterministic RNG handed to protocol code.
    /// The per-node stream mixes the node id with the same constant the
    /// simulator uses, but the simulator additionally folds in a draw from
    /// its engine RNG — the streams are *not* cross-runtime reproducible.
    pub seed: u64,
    /// Per-connection outbound queue bound; frames beyond it are dropped
    /// and counted in [`RuntimeStats::frames_dropped`].
    pub queue_capacity: usize,
    /// Address the runtime's listener binds (every hosted node shares it).
    pub listen: SocketAddr,
    /// The address book the runtime resolves and registers peers in.
    /// Clones share state: a harness passes clones of one book so every
    /// runtime sees every registration.
    pub book: AddressBook,
    /// Epoch anchoring the wall clock every `Context` reports; `None`
    /// means "when the runtime binds". A harness passes one shared epoch
    /// so all of its runtimes agree on `now`.
    pub epoch: Option<std::time::Instant>,
    /// How long `shutdown` keeps flushing outbound queues before closing
    /// sockets on whatever is left.
    pub drain_timeout: StdDuration,
    /// The fault-injection plane the reactor consults per outbound frame.
    /// Clones share state (like [`RuntimeConfig::book`]): a harness passes
    /// clones of one plane so a single `partition()` cuts every runtime.
    /// The default plane has no rules and costs one atomic load per send.
    pub faults: FaultPlane,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            seed: 42,
            queue_capacity: 1024,
            listen: "127.0.0.1:0".parse().expect("loopback bind address"),
            book: AddressBook::new(),
            epoch: None,
            drain_timeout: StdDuration::from_secs(5),
            faults: FaultPlane::new(),
        }
    }
}

/// A point-in-time view of a runtime's `net.*` metrics (summed over every
/// node it hosts), computed from its [`atum_obs::Registry`] — or, under the
/// name [`AggregateStats`](crate::AggregateStats), from the merged
/// registries of a cluster's runtimes. The two queue peaks (bounded
/// per-connection outbound queues, decoded inbound messages awaiting
/// dispatch) are the places memory actually grows, which is why the bench
/// records them as its RSS-ish proxies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Message frames written to sockets.
    pub frames_sent: u64,
    /// Frames dropped: queue full, peer unreachable, address unknown, or
    /// left unflushed when the shutdown drain timed out.
    pub frames_dropped: u64,
    /// Message frames received and decoded.
    pub frames_received: u64,
    /// Protocol violations on inbound streams (the connection is closed
    /// deliberately): frames that fail to decode, routes without messages,
    /// handshake violations.
    pub decode_errors: u64,
    /// Logical message encodings performed. With encode-once fan-out a
    /// message shared across many queues is encoded exactly once, so this
    /// can sit far below `frames_sent`; the ratio is the fan-out
    /// amortisation the bench reports.
    pub messages_encoded: u64,
    /// `write` syscalls issued to sockets (handshakes plus coalesced frame
    /// batches). `frames_sent / writes` is the frames-per-write coalescing
    /// factor.
    pub writes: u64,
    /// Bytes written to sockets (frame headers included).
    pub bytes_sent: u64,
    /// Bytes received in decoded message frames (headers included).
    pub bytes_received: u64,
    /// Node timers fired (`net.timer_lag_us` observations).
    pub timers_fired: u64,
    /// Events processed by the reactors (messages + calls + timers).
    pub events_processed: u64,
    /// Highest depth any connection's outbound queue reached.
    pub peak_outbound_queue: u64,
    /// Highest depth the inbound delivery queue reached. Together with
    /// `peak_outbound_queue` this is where memory can actually grow — both
    /// peaks are the bench's memory proxies.
    pub peak_inbound_queue: u64,
    /// OS threads the runtimes run: one per runtime, *not* O(node-pairs) —
    /// the headline difference to the retired thread-per-connection
    /// runtime.
    pub threads: u64,
    /// Frames dropped *by the fault plane* (loss, partitions). Kept apart
    /// from `frames_dropped` so benches can separate injected damage from
    /// organic damage (queue overflow, unknown addresses).
    pub frames_dropped_injected: u64,
    /// Frames whose bytes the fault plane corrupted (on a copy) before
    /// queueing.
    pub frames_corrupted_injected: u64,
    /// Frames the fault plane held back (delay, reorder, bandwidth
    /// shaping) before queueing them.
    pub frames_delayed_injected: u64,
    /// Live connections severed by [`FaultPlane::kill_connections`].
    pub conns_killed_injected: u64,
    /// `poll` waits the reactors performed (`net.poll_wait_us`
    /// observations).
    pub poll_waits: u64,
    /// Total microseconds the reactors spent blocked in `poll`.
    pub poll_wait_us: u64,
    /// Dispatch batches, one per poll wake-up that found work
    /// (`net.dispatch_batch` observations).
    pub dispatch_batches: u64,
    /// Events dispatched across all batches (`/ dispatch_batches` is the
    /// mean batch size the bench reports).
    pub dispatch_batch_events: u64,
    /// Total microseconds node timers fired behind their deadline.
    pub timer_lag_us: u64,
    /// Worst single node-timer lag observed, in microseconds. This is the
    /// CPU-starvation signal: on an undersized machine the reactors cannot
    /// keep up and timers slip by whole heartbeat periods, making healthy
    /// protocol code look broken (see `NetCluster::wait_for_members`).
    pub timer_lag_max_us: u64,
}

impl RuntimeStats {
    /// Computes the view from a reading of one runtime's registry, or of
    /// several merged.
    pub(crate) fn read(snapshot: &Snapshot) -> Self {
        let poll_wait = snapshot.histogram("net.poll_wait_us");
        let dispatch_batch = snapshot.histogram("net.dispatch_batch");
        let timer_lag = snapshot.histogram("net.timer_lag_us");
        RuntimeStats {
            frames_sent: snapshot.value("net.frames_sent"),
            frames_dropped: snapshot.value("net.frames_dropped"),
            frames_received: snapshot.value("net.frames_received"),
            decode_errors: snapshot.value("net.decode_errors"),
            messages_encoded: snapshot.value("net.messages_encoded"),
            writes: snapshot.value("net.writes"),
            bytes_sent: snapshot.value("net.bytes_sent"),
            bytes_received: snapshot.value("net.bytes_received"),
            timers_fired: timer_lag.total,
            events_processed: snapshot.value("net.events_processed"),
            peak_outbound_queue: snapshot.value("net.peak_outbound_queue"),
            peak_inbound_queue: snapshot.value("net.peak_inbound_queue"),
            threads: snapshot.value("net.threads"),
            frames_dropped_injected: snapshot.value("net.frames_dropped_injected"),
            frames_corrupted_injected: snapshot.value("net.frames_corrupted_injected"),
            frames_delayed_injected: snapshot.value("net.frames_delayed_injected"),
            conns_killed_injected: snapshot.value("net.conns_killed_injected"),
            poll_waits: poll_wait.total,
            poll_wait_us: poll_wait.sum,
            dispatch_batches: dispatch_batch.total,
            dispatch_batch_events: dispatch_batch.sum,
            timer_lag_us: timer_lag.sum,
            timer_lag_max_us: timer_lag.max,
        }
    }
}

/// The handles the reactor thread writes into its runtime's registry,
/// resolved once when each of its two parts is built, so its loop never
/// takes the registry lock. (The connection layer's four are
/// [`ConnMetrics`](crate::conn::ConnMetrics).)
pub(crate) struct NetMetrics {
    pub(crate) frames_dropped: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) messages_encoded: Arc<Counter>,
    pub(crate) bytes_received: Arc<Counter>,
    pub(crate) events_processed: Arc<Counter>,
    pub(crate) peak_inbound_queue: Arc<Gauge>,
    pub(crate) frames_dropped_injected: Arc<Counter>,
    pub(crate) frames_corrupted_injected: Arc<Counter>,
    pub(crate) frames_delayed_injected: Arc<Counter>,
    pub(crate) conns_killed_injected: Arc<Counter>,
    /// `poll` wait times (µs).
    pub(crate) poll_wait_us: Arc<AtomicHistogram>,
    /// Events per dispatch batch.
    pub(crate) dispatch_batch: Arc<AtomicHistogram>,
    /// Node-timer lag (µs): how far behind their deadline timers actually
    /// fire — the CPU-starvation signal.
    pub(crate) timer_lag_us: Arc<AtomicHistogram>,
}

impl NetMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        NetMetrics {
            frames_dropped: registry.counter("net.frames_dropped"),
            frames_received: registry.counter("net.frames_received"),
            decode_errors: registry.counter("net.decode_errors"),
            messages_encoded: registry.counter("net.messages_encoded"),
            bytes_received: registry.counter("net.bytes_received"),
            events_processed: registry.counter("net.events_processed"),
            peak_inbound_queue: registry.gauge("net.peak_inbound_queue"),
            frames_dropped_injected: registry.counter("net.frames_dropped_injected"),
            frames_corrupted_injected: registry.counter("net.frames_corrupted_injected"),
            frames_delayed_injected: registry.counter("net.frames_delayed_injected"),
            conns_killed_injected: registry.counter("net.conns_killed_injected"),
            poll_wait_us: registry.histogram(
                "net.poll_wait_us",
                &[50, 200, 1_000, 5_000, 20_000, 100_000, 200_000, 500_000],
            ),
            dispatch_batch: registry
                .histogram("net.dispatch_batch", &[1, 2, 4, 8, 16, 32, 64, 128]),
            timer_lag_us: registry.histogram(
                "net.timer_lag_us",
                &[
                    100, 1_000, 10_000, 50_000, 100_000, 250_000, 750_000, 2_000_000,
                ],
            ),
        }
    }
}

/// Shared directory mapping node identifiers to socket addresses.
///
/// Harnesses pre-register every node; the read path additionally registers
/// peers from their [`Hello`](crate::frame::Hello) handshake and
/// [`Route`](crate::frame::Route) frames (socket IP + advertised listen
/// port), which is how a cross-process contact learns a joiner's return
/// address without prior configuration.
///
/// Every registration bumps a generation counter the reactors watch: when
/// a known node is re-registered at a *new* address (say, a harness moved
/// it to a fresh listener), frames still queued for it migrate to a
/// connection to the new address instead of stranding on the dead one.
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    inner: Arc<RwLock<HashMap<NodeId, SocketAddr>>>,
    generation: Arc<AtomicU64>,
}

impl AddressBook {
    /// An empty book.
    pub fn new() -> Self {
        AddressBook::default()
    }

    /// Registers (or updates) a node's address.
    pub fn register(&self, node: NodeId, addr: SocketAddr) {
        self.inner
            .write()
            .expect("address book lock")
            .insert(node, addr);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Registers a node's address only if none is known yet. The `Hello`/
    /// `Route` learning path uses this so an unauthenticated handshake can
    /// teach a node a *new* peer's return address but can never overwrite
    /// (hijack) the address of a node the book already knows — a deployment
    /// would authenticate the handshake instead; the corresponding
    /// restriction here is that a node that restarts on a new port must be
    /// re-registered by the harness.
    pub fn register_if_absent(&self, node: NodeId, addr: SocketAddr) {
        let inserted = {
            let mut map = self.inner.write().expect("address book lock");
            match map.entry(node) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(addr);
                    true
                }
                std::collections::hash_map::Entry::Occupied(_) => false,
            }
        };
        if inserted {
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Looks a node's address up.
    pub fn lookup(&self, node: NodeId) -> Option<SocketAddr> {
        self.inner
            .read()
            .expect("address book lock")
            .get(&node)
            .copied()
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.inner.read().expect("address book lock").len()
    }

    /// `true` when no node is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic counter bumped by every (successful) registration; the
    /// reactors compare it to re-resolve queued routes after changes.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Hello, Route};
    use crate::reactor::{NetRuntime, NodeHandle};
    use atum_simnet::{Context, Node};
    use atum_types::wire::{self, FRAME_KIND_HELLO, FRAME_KIND_MESSAGE, FRAME_KIND_ROUTE};
    use atum_types::Duration;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A node that records what it sees and ping-pongs small counters.
    #[derive(Default)]
    struct Recorder {
        started: bool,
        messages: Vec<(NodeId, u64)>,
        timers: Vec<u64>,
    }

    impl Node<u64> for Recorder {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {
            self.started = true;
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            self.messages.push((from, msg));
            if msg < 3 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, u64>) {
            self.timers.push(tag);
        }
    }

    fn wait_until(timeout: StdDuration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(20));
        }
        pred()
    }

    /// A runtime on its own loopback listener, sharing
    /// `book` with its peers.
    fn bind(book: &AddressBook) -> NetRuntime<u64, Recorder> {
        NetRuntime::bind(RuntimeConfig {
            book: book.clone(),
            ..RuntimeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn ping_pong_crosses_real_sockets() {
        let book = AddressBook::new();
        let (rt_a, rt_b) = (bind(&book), bind(&book));
        let a = rt_a.host(NodeId::new(0), Recorder::default());
        let b = rt_b.host(NodeId::new(1), Recorder::default());
        assert_ne!(a.addr(), b.addr());

        let to = b.id();
        a.call(move |_n, ctx| ctx.send(to, 0));
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                a.with_node(|n| n.messages.clone()).unwrap_or_default()
                    == vec![(NodeId::new(1), 1), (NodeId::new(1), 3)]
            }),
            "ping-pong did not complete: a saw {:?}, b saw {:?}",
            a.with_node(|n| n.messages.clone()),
            b.with_node(|n| n.messages.clone()),
        );
        assert_eq!(
            b.with_node(|n| n.messages.clone()).unwrap(),
            vec![(NodeId::new(0), 0), (NodeId::new(0), 2)]
        );
        assert!(a.with_node(|n| n.started).unwrap());
        assert!(a.stats().frames_sent >= 2);
        assert!(b.stats().frames_received >= 2);
        // The headline invariant: one reactor thread per runtime.
        assert_eq!(a.stats().threads, 1);
        rt_a.shutdown();
        rt_b.shutdown();
    }

    #[test]
    fn timers_fire_in_deadline_order_on_the_wall_clock() {
        let runtime = bind(&AddressBook::new());
        let node = runtime.host(NodeId::new(7), Recorder::default());
        node.call(|_n, ctx| {
            ctx.set_timer(Duration::from_millis(90), 33);
            ctx.set_timer(Duration::from_millis(30), 11);
            ctx.set_timer(Duration::from_millis(60), 22);
        });
        assert!(
            wait_until(StdDuration::from_secs(5), || {
                node.with_node(|n| n.timers.clone()).unwrap_or_default() == vec![11, 22, 33]
            }),
            "timers fired as {:?}",
            node.with_node(|n| n.timers.clone()),
        );
        runtime.shutdown();
    }

    #[test]
    fn one_runtime_hosts_many_nodes_on_one_thread() {
        // Three nodes, one runtime, one reactor: cross-node sends travel
        // through the runtime's own listener (real sockets), self-sends
        // loop locally, and everything still works.
        let runtime: NetRuntime<u64, Recorder> =
            NetRuntime::bind(RuntimeConfig::default()).unwrap();
        let a = runtime.host(NodeId::new(0), Recorder::default());
        let b = runtime.host(NodeId::new(1), Recorder::default());
        let _c = runtime.host(NodeId::new(2), Recorder::default());
        assert_eq!(a.addr(), b.addr(), "hosted nodes share the listener");
        assert_eq!(runtime.stats().threads, 1);

        let to = b.id();
        a.call(move |_n, ctx| ctx.send(to, 0));
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                a.with_node(|n| n.messages.clone()).unwrap_or_default()
                    == vec![(NodeId::new(1), 1), (NodeId::new(1), 3)]
            }),
            "co-hosted ping-pong did not complete: a saw {:?}, b saw {:?}",
            a.with_node(|n| n.messages.clone()),
            b.with_node(|n| n.messages.clone()),
        );
        // The traffic crossed a socket, not a shortcut.
        assert!(runtime.stats().frames_sent >= 4);
        assert!(runtime.stats().frames_received >= 4);
        runtime.shutdown();
    }

    /// A sink for `AtumMessage` traffic (the encode-once test drives real
    /// group envelopes through the runtime).
    #[derive(Default)]
    struct GroupSink {
        received: u64,
    }

    impl Node<atum_core::AtumMessage> for GroupSink {
        fn on_message(
            &mut self,
            _from: NodeId,
            _msg: atum_core::AtumMessage,
            _ctx: &mut Context<'_, atum_core::AtumMessage>,
        ) {
            self.received += 1;
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, atum_core::AtumMessage>) {}
    }

    #[test]
    fn group_fanout_is_encoded_exactly_once() {
        use atum_core::{AtumMessage, GroupEnvelope, GroupPayload, GroupVote};
        use atum_types::{BroadcastId, Composition, VgroupId};

        // Sender and receivers on separate runtimes so the fan-out crosses
        // distinct connections (sender-side stats stay isolated).
        let book = AddressBook::new();
        let epoch = Some(std::time::Instant::now());
        let cfg = |book: &AddressBook| RuntimeConfig {
            book: book.clone(),
            epoch,
            ..RuntimeConfig::default()
        };
        let send_rt: NetRuntime<AtumMessage, GroupSink> = NetRuntime::bind(cfg(&book)).unwrap();
        let recv_rt: NetRuntime<AtumMessage, GroupSink> = NetRuntime::bind(cfg(&book)).unwrap();
        let sender = send_rt.host(NodeId::new(0), GroupSink::default());
        let receivers: Vec<_> = (1..=3u64)
            .map(|i| recv_rt.host(NodeId::new(i), GroupSink::default()))
            .collect();

        let envelope = Arc::new(GroupEnvelope::new(
            VgroupId::new(1),
            (0..4).map(NodeId::new).collect::<Composition>(),
            GroupPayload::Gossip {
                id: BroadcastId::new(NodeId::new(0), 7),
                payload: vec![0x5a; 512].into(),
                hops: 0,
            },
        ));

        // One logical message, three recipients: one encoding.
        let fanout = envelope.clone();
        sender.call(move |_n, ctx| {
            for peer in 1..=3u64 {
                ctx.send(NodeId::new(peer), AtumMessage::Group(fanout.clone()));
            }
        });
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                receivers
                    .iter()
                    .all(|r| r.with_node(|n| n.received).unwrap_or(0) == 1)
            }),
            "fan-out did not arrive"
        );
        assert_eq!(send_rt.stats().messages_encoded, 1);
        assert_eq!(send_rt.stats().frames_sent, 3);

        // The same envelope sent again in a *later* dispatch is encoded
        // again: the identity memo lives for one dispatch, and the core
        // builds a fresh envelope for every group message it sends.
        let regossip = envelope.clone();
        sender.call(move |_n, ctx| {
            for peer in 1..=3u64 {
                ctx.send(NodeId::new(peer), AtumMessage::Group(regossip.clone()));
            }
        });
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                receivers
                    .iter()
                    .all(|r| r.with_node(|n| n.received).unwrap_or(0) == 2)
            }),
            "re-gossip did not arrive"
        );
        assert_eq!(
            send_rt.stats().messages_encoded,
            2,
            "one encoding per dispatch of the envelope"
        );
        assert_eq!(send_rt.stats().frames_sent, 6);

        // A voter's fan-out is one logical message too: the shared vote is
        // encoded once for its three recipients.
        let vote = Arc::new(GroupVote {
            source: envelope.source,
            source_composition: envelope.source_composition.clone(),
            digest: envelope.digest(),
            id: BroadcastId::new(NodeId::new(0), 7),
        });
        sender.call(move |_n, ctx| {
            for peer in 1..=3u64 {
                ctx.send(NodeId::new(peer), AtumMessage::GroupVote(vote.clone()));
            }
        });
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                receivers
                    .iter()
                    .all(|r| r.with_node(|n| n.received).unwrap_or(0) == 3)
            }),
            "vote fan-out did not arrive"
        );
        assert_eq!(send_rt.stats().messages_encoded, 3);
        assert_eq!(send_rt.stats().frames_sent, 9);

        send_rt.shutdown();
        recv_rt.shutdown();
    }

    /// Trivial `Vec<u8>` node for writer-side tests.
    struct Blaster;

    impl Node<Vec<u8>> for Blaster {
        fn on_message(&mut self, _from: NodeId, _msg: Vec<u8>, _ctx: &mut Context<'_, Vec<u8>>) {}
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Vec<u8>>) {}
    }

    #[test]
    fn coalesced_writer_is_exactly_once_in_order_under_backpressure() {
        // A bursty sender against a slow reader: the bounded queue drops the
        // overflow (counted), and everything that was accepted arrives
        // exactly once, in order, across coalesced batches. (Exactly-once
        // holds on an unbroken connection, as here; across reconnects the
        // runtime is deliberately at-least-once.)
        let runtime: NetRuntime<Vec<u8>, Blaster> = NetRuntime::bind(RuntimeConfig {
            queue_capacity: 8,
            drain_timeout: StdDuration::from_secs(30),
            ..RuntimeConfig::default()
        })
        .unwrap();
        let node = runtime.host(NodeId::new(0), Blaster);

        // The "peer" is this test: a raw listener that accepts, then
        // stalls long enough for the burst to overrun the queue.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        runtime
            .book()
            .register(NodeId::new(9), listener.local_addr().unwrap());

        const BURST: usize = 40;
        const FRAME_PAYLOAD: usize = 512 * 1024; // >> loopback socket buffers
        node.call(|_n, ctx| {
            for seq in 0..BURST as u64 {
                let mut payload = vec![0u8; FRAME_PAYLOAD];
                payload[..8].copy_from_slice(&seq.to_le_bytes());
                ctx.send(NodeId::new(9), payload);
            }
        });

        let (stream, _) = listener.accept().unwrap();
        // Stall: the reactor fills the socket buffer and arms write
        // interest; the burst overruns the queue bound and drops the rest.
        std::thread::sleep(StdDuration::from_millis(600));
        stream
            .set_read_timeout(Some(StdDuration::from_secs(2)))
            .unwrap();
        let mut stream = std::io::BufReader::new(stream);
        let hello: Hello = frame::read_decoded(&mut stream, FRAME_KIND_HELLO).unwrap();
        assert_eq!(hello.node, NodeId::new(0));
        let mut seqs = Vec::new();
        let mut body = Vec::new();
        // Read route/message pairs until a timeout signals the end.
        loop {
            match frame::read_frame_into(&mut stream, &frame::NODE_KINDS, &mut body) {
                Ok(kind) if kind == FRAME_KIND_ROUTE => {
                    let route: Route = wire::decode_exact(&body).unwrap();
                    assert_eq!(route.from, NodeId::new(0));
                    assert_eq!(route.to, NodeId::new(9));
                }
                Ok(kind) => {
                    assert_eq!(kind, FRAME_KIND_MESSAGE);
                    let payload: Vec<u8> = wire::decode_exact(&body).unwrap();
                    assert_eq!(payload.len(), FRAME_PAYLOAD);
                    seqs.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    panic!("unexpected frame error: {e}")
                }
                Err(_) => break,
            }
        }

        let delivered = seqs.len() as u64;
        let dropped = runtime.stats().frames_dropped;
        // Exactly once, in order: the sequence numbers are strictly
        // increasing (drops may skip, but nothing reorders or duplicates).
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "out of order or duplicated: {seqs:?}"
        );
        // The queue bound was actually exercised, and accounting adds up.
        assert!(dropped > 0, "burst never overran the queue bound");
        assert_eq!(
            delivered + dropped,
            BURST as u64,
            "every frame is either delivered once or counted dropped"
        );
        assert_eq!(
            runtime.stats().frames_sent,
            delivered,
            "frames_sent matches what actually crossed the socket"
        );
        assert!(runtime.stats().writes >= 1);
        runtime.shutdown();
    }

    /// A raw listener standing in for the runtime of node 9: accepts one
    /// connection, checks the handshake, and sends the sequence number in
    /// the first 8 payload bytes of every message it reads, in order.
    fn sequence_reader(runtime: &NetRuntime<Vec<u8>, Blaster>) -> std::sync::mpsc::Receiver<u64> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        runtime
            .book()
            .register(NodeId::new(9), listener.local_addr().unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut stream = std::io::BufReader::new(stream);
            let hello: Hello = frame::read_decoded(&mut stream, FRAME_KIND_HELLO).unwrap();
            assert_eq!(hello.node, NodeId::new(0));
            let mut body = Vec::new();
            while let Ok(kind) = frame::read_frame_into(&mut stream, &frame::NODE_KINDS, &mut body)
            {
                if kind == FRAME_KIND_MESSAGE {
                    let payload: Vec<u8> = wire::decode_exact(&body).unwrap();
                    let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    if tx.send(seq).is_err() {
                        return;
                    }
                }
            }
        });
        rx
    }

    /// Sends `seqs` to node 9 from inside one `call`.
    fn send_sequence(node: &NodeHandle<Vec<u8>, Blaster>, seqs: std::ops::Range<u64>) {
        node.call(move |_n, ctx| {
            for seq in seqs {
                ctx.send(NodeId::new(9), seq.to_le_bytes().to_vec());
            }
        });
    }

    fn recv_sequence(rx: &std::sync::mpsc::Receiver<u64>, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                rx.recv_timeout(StdDuration::from_secs(10))
                    .expect("frame arrives")
            })
            .collect()
    }

    #[test]
    fn one_call_sending_eight_messages_to_one_peer_is_one_write() {
        let runtime: NetRuntime<Vec<u8>, Blaster> =
            NetRuntime::bind(RuntimeConfig::default()).unwrap();
        let node = runtime.host(NodeId::new(0), Blaster);
        let rx = sequence_reader(&runtime);
        // Establish the connection first (a handshake write, then the
        // frame), so the next call meets an open, idle socket.
        send_sequence(&node, 0..1);
        assert_eq!(recv_sequence(&rx, 1), vec![0]);
        assert_eq!(runtime.stats().writes, 2);

        send_sequence(&node, 1..9);
        assert_eq!(recv_sequence(&rx, 8), (1..9).collect::<Vec<u64>>());
        assert_eq!(
            runtime.stats().writes,
            3,
            "one turn, one connection, one write"
        );
        assert_eq!(runtime.stats().frames_sent, 9);
        runtime.shutdown();
    }

    #[test]
    fn a_long_turn_onto_a_healthy_socket_never_overruns_the_queue_bound() {
        // One dispatch fans out four times the queue bound onto one
        // connection whose peer is reading. The bound is for frames behind
        // a socket that pushed back; frames merely waiting for the turn to
        // end must not trip it (full batches are written as they form).
        const CAPACITY: usize = 128;
        let runtime: NetRuntime<Vec<u8>, Blaster> = NetRuntime::bind(RuntimeConfig {
            queue_capacity: CAPACITY,
            ..RuntimeConfig::default()
        })
        .unwrap();
        let node = runtime.host(NodeId::new(0), Blaster);
        let rx = sequence_reader(&runtime);
        send_sequence(&node, 0..1);
        assert_eq!(recv_sequence(&rx, 1), vec![0]);

        let burst = 4 * CAPACITY as u64;
        send_sequence(&node, 1..1 + burst);
        assert_eq!(
            recv_sequence(&rx, burst as usize),
            (1..1 + burst).collect::<Vec<u64>>()
        );
        assert_eq!(runtime.stats().frames_dropped, 0);
        assert_eq!(runtime.stats().frames_sent, 1 + burst);
        runtime.shutdown();
    }

    #[test]
    fn garbage_frames_close_the_connection_but_not_the_node() {
        use std::io::Read;
        let runtime: NetRuntime<u64, Recorder> =
            NetRuntime::bind(RuntimeConfig::default()).unwrap();
        let node = runtime.host(NodeId::new(3), Recorder::default());

        // A connection that sends a valid hello, one valid routed message,
        // then a frame whose body does not decode: the message is
        // delivered, the error is counted, the connection dies, the node
        // lives.
        let mut stream = TcpStream::connect(node.addr()).unwrap();
        stream
            .write_all(&frame::encode_frame(
                FRAME_KIND_HELLO,
                &Hello {
                    node: NodeId::new(9),
                    listen_port: 1,
                },
            ))
            .unwrap();
        let route = Route {
            from: NodeId::new(9),
            to: NodeId::new(3),
        };
        stream.write_all(&frame::route_frame(route)).unwrap();
        stream
            .write_all(&frame::frame_bytes(
                FRAME_KIND_MESSAGE,
                &wire::encode_to_vec(&77u64),
            ))
            .unwrap();
        // Trailing garbage after a valid u64 violates exact consumption.
        let mut bad_body = wire::encode_to_vec(&5u64);
        bad_body.push(0xFF);
        stream.write_all(&frame::route_frame(route)).unwrap();
        stream
            .write_all(&frame::frame_bytes(FRAME_KIND_MESSAGE, &bad_body))
            .unwrap();
        stream.flush().unwrap();

        assert!(
            wait_until(StdDuration::from_secs(5), || {
                runtime.stats().decode_errors == 1
            }),
            "decode error was not counted"
        );
        // The valid message before the garbage arrived.
        assert_eq!(
            node.with_node(|n| n.messages.clone()).unwrap(),
            vec![(NodeId::new(9), 77)]
        );
        // The connection was closed by the runtime (read returns 0 / error).
        let mut probe = [0u8; 1];
        let _ = stream.set_read_timeout(Some(StdDuration::from_secs(5)));
        assert!(matches!(stream.read(&mut probe), Ok(0) | Err(_)));
        // And the node still processes events.
        assert!(node.with_node(|n| n.started).is_some());
        runtime.shutdown();
    }

    #[test]
    fn timers_set_for_one_instant_fire_in_the_order_they_were_set() {
        let runtime = bind(&AddressBook::new());
        let node = runtime.host(NodeId::new(7), Recorder::default());
        // One call, one `now`, one delay: five timers with one deadline.
        node.call(|_n, ctx| {
            for tag in [3, 1, 2, 5, 4] {
                ctx.set_timer(Duration::from_millis(20), tag);
            }
        });
        assert!(
            wait_until(StdDuration::from_secs(5), || {
                node.with_node(|n| n.timers.len()).unwrap_or(0) == 5
            }),
            "timers fired as {:?}",
            node.with_node(|n| n.timers.clone()),
        );
        assert_eq!(
            node.with_node(|n| n.timers.clone()).unwrap(),
            vec![3, 1, 2, 5, 4]
        );
        runtime.shutdown();
    }

    #[test]
    fn peak_inbound_queue_counts_queued_self_sends_and_the_frame_in_delivery() {
        let book = AddressBook::new();
        let (rt_a, rt_b) = (bind(&book), bind(&book));
        let a = rt_a.host(NodeId::new(0), Recorder::default());
        let b = rt_b.host(NodeId::new(1), Recorder::default());

        // One routed frame: one message awaits dispatch while delivered.
        a.call(|_n, ctx| ctx.send(NodeId::new(1), 10));
        assert!(wait_until(StdDuration::from_secs(10), || {
            b.with_node(|n| n.messages.len()).unwrap_or(0) == 1
        }));
        assert_eq!(rt_b.stats().peak_inbound_queue, 1);
        assert_eq!(rt_a.stats().peak_inbound_queue, 0);

        // Five self-sends from one call queue five deliveries at once.
        a.call(|_n, ctx| {
            let me = ctx.id();
            for msg in 10..15 {
                ctx.send(me, msg);
            }
        });
        assert!(wait_until(StdDuration::from_secs(10), || {
            a.with_node(|n| n.messages.len()).unwrap_or(0) == 5
        }));
        assert_eq!(rt_a.stats().peak_inbound_queue, 5);

        // A second routed frame does not move a peak already above it.
        b.call(|_n, ctx| ctx.send(NodeId::new(0), 10));
        assert!(wait_until(StdDuration::from_secs(10), || {
            a.with_node(|n| n.messages.len()).unwrap_or(0) == 6
        }));
        assert_eq!(rt_a.stats().peak_inbound_queue, 5);
        assert_eq!(rt_b.stats().peak_inbound_queue, 1);
        rt_a.shutdown();
        rt_b.shutdown();
    }

    #[test]
    fn events_processed_counts_each_call_timer_and_delivered_message_once() {
        let book = AddressBook::new();
        let (rt_a, rt_b) = (bind(&book), bind(&book));
        let a = rt_a.host(NodeId::new(0), Recorder::default());
        let _b = rt_b.host(NodeId::new(1), Recorder::default());
        // a: the call, the timer and the replies 1 and 3; b: 0 and 2.
        // `on_start` is not an event.
        a.call(|_n, ctx| {
            ctx.set_timer(Duration::from_millis(10), 1);
            ctx.send(NodeId::new(1), 0);
        });
        assert!(
            wait_until(StdDuration::from_secs(10), || {
                rt_a.stats().events_processed >= 4 && rt_b.stats().events_processed >= 2
            }),
            "ping-pong did not complete: {} and {} events",
            rt_a.stats().events_processed,
            rt_b.stats().events_processed
        );
        std::thread::sleep(StdDuration::from_millis(50));
        assert_eq!(rt_a.stats().events_processed, 4);
        assert_eq!(rt_b.stats().events_processed, 2);
        // A read through `with_node` is one more call.
        assert_eq!(
            a.with_node(|n| n.messages.clone()).unwrap(),
            vec![(NodeId::new(1), 1), (NodeId::new(1), 3)]
        );
        assert_eq!(rt_a.stats().events_processed, 5);
        rt_a.shutdown();
        rt_b.shutdown();
    }
}
