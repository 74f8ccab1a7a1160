//! The connection layer: non-blocking sockets under one poller, with the
//! frame boundary on the way in and a bounded, coalescing queue on the way
//! out — the transport *mechanism* under everything that owns sockets (the
//! node wire of each [`crate::reactor`] runtime, the edge gateway's I/O
//! thread). It knows frames ([`crate::frame`]) but no frame vocabulary and
//! no policy: which kinds are legal, when to reconnect, whom to shed and
//! why to close are the caller's, kept in the per-connection state `X` on
//! each [`Conn`].
//!
//! * **One owner.** A [`ConnTable`] belongs to one thread; other threads
//!   reach it only through an [`Injector`].
//! * **Slots with generations.** Every connection gets a fresh generation,
//!   and a slot freed while an event batch is in flight is reused only
//!   after [`ConnTable::recycle`], so neither a stale readiness event nor a
//!   stale `(slot, generation)` reference (a timer, a reply in a mailbox)
//!   can hit a newer connection.
//! * **Level-triggered.** Read interest is permanent (it also detects
//!   EOF) and [`ConnTable::read`] takes one chunk: a caller that trusts its
//!   peers repeats it until the socket is drained, one that does not
//!   leaves the rest to the next readiness report, so a firehose
//!   connection takes turns with the others. Write interest is armed only
//!   while a staged batch is unflushed.
//! * **Bounded out, never blocking.** [`ConnTable::enqueue`] refuses frames
//!   beyond the caller's bound; [`ConnTable::flush`] coalesces queued
//!   frames into one `write` per batch and returns at the first
//!   `WouldBlock`.
//! * **One write per turn, not one per frame.** `enqueue` only queues, and
//!   marks the slot. A frame reaches the socket when (a) a full batch has
//!   been queued since the last write — [`MAX_BATCH_FRAMES`] frames (or the
//!   caller's bound, when that is smaller) or [`MAX_BATCH_BYTES`] bytes:
//!   waiting longer cannot make that write any bigger, and writing it keeps
//!   the depth a healthy socket sees at one batch, so the caller's bound
//!   goes on meaning "frames behind a socket that pushed back"; or (b) the
//!   owner calls [`ConnTable::flush_marked`], which it does once per loop
//!   turn, before it blocks in [`ConnTable::wait`] — everything one turn's
//!   dispatches fanned out onto a connection leaves in one `write`. Behind
//!   a socket that pushed back nothing is marked: write readiness
//!   ([`Ready::Conn`]'s `writable`) resumes it, as does the completion of a
//!   connect. There is no "flush now" entry point beside these and no knob.

use crate::frame::{self, Route};
use atum_obs::{Counter, Gauge, Registry};
use polling_mini::{Event, Interest, Poller, Waker};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames per coalesced write: the upper bound on how many queued frames a
/// connection drains into one batch.
pub const MAX_BATCH_FRAMES: usize = 64;
/// Byte budget per coalesced write. A single frame larger than this still
/// goes out (alone); the bound only stops *accumulation*.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;
/// Socket read chunk size.
const READ_CHUNK: usize = 64 * 1024;

const KEY_WAKER: u64 = 0;
const KEY_LISTENER: u64 = 1;
/// First poller key used for connection slots.
const KEY_CONN_BASE: u64 = 2;

/// A mailbox into the thread owning a [`ConnTable`]: a locked queue plus
/// the eventfd that wakes its poll loop.
#[derive(Debug)]
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    waker: Waker,
}

impl<T> Injector<T> {
    /// An empty mailbox.
    pub fn new() -> std::io::Result<Self> {
        Ok(Injector {
            queue: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
        })
    }

    /// Queues `item` and wakes the owner.
    pub fn push(&self, item: T) {
        self.queue.lock().expect("injector lock").push_back(item);
        self.waker.wake();
    }

    /// Takes the oldest queued item. The owner pops until `None` on every
    /// loop turn.
    pub fn pop(&self) -> Option<T> {
        self.queue.lock().expect("injector lock").pop_front()
    }

    /// Wakes the owner without queueing anything (it re-reads the flags it
    /// polls, such as a shutdown request).
    pub fn wake(&self) {
        self.waker.wake();
    }

    /// Resets the eventfd after a [`Ready::Waker`] event.
    pub fn acknowledge(&self) {
        self.waker.drain();
    }
}

/// A frame queued on a connection.
#[derive(Debug)]
pub struct QueuedFrame {
    /// Written ahead of `frame` as a route frame (node wire only).
    pub route: Option<Route>,
    /// The encoded frame, shared across every queue it fans out to.
    pub frame: Arc<[u8]>,
}

/// Builds one coalesced batch from the front of an outbound queue without
/// consuming it. Returns how many queued frames went into `batch` (the
/// caller pops exactly that many once the batch is fully flushed —
/// at-least-once across reconnects). The first frame is always taken
/// regardless of size, so an oversized frame cannot wedge the queue.
pub fn fill_batch(
    outq: &VecDeque<QueuedFrame>,
    batch: &mut Vec<u8>,
    max_frames: usize,
    max_bytes: usize,
) -> usize {
    batch.clear();
    let mut taken = 0usize;
    for item in outq.iter().take(max_frames) {
        let route_len = item.route.map_or(0, |_| frame::ROUTE_FRAME_LEN);
        if taken > 0 && batch.len() + route_len + item.frame.len() > max_bytes {
            break;
        }
        if let Some(route) = item.route {
            batch.extend_from_slice(&frame::route_frame(route));
        }
        batch.extend_from_slice(&item.frame);
        taken += 1;
    }
    taken
}

/// The metrics a [`ConnTable`] writes, resolved by its owner in the owner's
/// registry so [`ConnTable::enqueue`] and [`ConnTable::flush`] never look
/// anything up.
#[derive(Debug)]
pub struct ConnMetrics {
    frames_sent: Arc<Counter>,
    writes: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    peak_outbound_queue: Arc<Gauge>,
}

impl ConnMetrics {
    /// Resolves `<prefix>.frames_sent`, `<prefix>.writes`,
    /// `<prefix>.bytes_sent` and the `<prefix>.peak_outbound_queue` gauge in
    /// `registry`.
    pub fn new(registry: &Registry, prefix: &str) -> Self {
        ConnMetrics {
            frames_sent: registry.counter(&format!("{prefix}.frames_sent")),
            writes: registry.counter(&format!("{prefix}.writes")),
            bytes_sent: registry.counter(&format!("{prefix}.bytes_sent")),
            peak_outbound_queue: registry.gauge(&format!("{prefix}.peak_outbound_queue")),
        }
    }
}

/// One readiness report from [`ConnTable::wait`].
#[derive(Debug, Clone, Copy)]
pub enum Ready {
    /// The owner's [`Injector`] was woken.
    Waker,
    /// The listener has connections to [`ConnTable::accept_next`].
    Listener,
    /// A connection slot is readable and/or writable.
    Conn {
        /// The connection's slot.
        slot: usize,
        /// Input, EOF or an error is pending: [`ConnTable::read`] it.
        readable: bool,
        /// The socket accepts bytes again, or a connect completed.
        writable: bool,
    },
}

/// Why a connection was closed (slot `b` of the `net` trace event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// EOF or a socket error.
    PeerClosed = 1,
    /// The peer violated the wire format or the frame vocabulary.
    Violation = 2,
    /// An incomplete frame sat in the buffer past the caller's idle bound.
    Idle = 3,
    /// The bounded out-queue overflowed and the caller sheds the peer.
    Overflow = 4,
    /// The connect attempt budget ran out.
    Unreachable = 5,
    /// The owner is shutting down.
    Shutdown = 6,
}

/// One socket (or, between connect attempts, the queue waiting for one)
/// plus the caller's per-connection state.
#[derive(Debug)]
pub struct Conn<X> {
    stream: Option<TcpStream>,
    /// The socket is established: accepted, or its connect completed.
    open: bool,
    gen: u64,
    outq: VecDeque<QueuedFrame>,
    /// Bytes staged for writing (a handshake, then batches).
    batch: Vec<u8>,
    /// How much of `batch` has been written so far.
    batch_pos: usize,
    /// Queued frames inside the current batch (popped when it flushes).
    batch_frames: usize,
    /// Write interest currently armed with the poller.
    want_write: bool,
    /// On the table's to-flush list: frames queued since the last flush.
    marked: bool,
    /// Frames and bytes queued since the last write attempt: a full batch
    /// of either earns the next one.
    unwritten_frames: usize,
    unwritten_bytes: usize,
    /// Pre-encoded bytes staged ahead of data on every (re)connect.
    handshake: Vec<u8>,
    /// Received bytes; the caller drains the frames it has handled.
    pub inbuf: Vec<u8>,
    /// The caller's state for this connection.
    pub ext: X,
}

impl<X> Conn<X> {
    /// This connection's generation (unique per table).
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// A non-blocking connect is in flight.
    pub fn is_connecting(&self) -> bool {
        self.stream.is_some() && !self.open
    }

    /// No socket at all: waiting for the caller's next connect attempt.
    pub fn is_detached(&self) -> bool {
        self.stream.is_none()
    }

    /// Frames queued (staged ones included).
    pub fn queued(&self) -> usize {
        self.outq.len()
    }

    /// Something accepted for sending has not reached the socket yet.
    pub fn has_unflushed(&self) -> bool {
        !self.outq.is_empty() || self.batch_pos < self.batch.len()
    }

    /// Removes and returns the queued frames `pick` selects, skipping those
    /// already staged in a batch (their bytes may be partly on the wire).
    pub fn extract_queued(
        &mut self,
        mut pick: impl FnMut(&QueuedFrame) -> bool,
    ) -> Vec<QueuedFrame> {
        let mut out = Vec::new();
        let mut i = self.batch_frames;
        while i < self.outq.len() {
            if pick(&self.outq[i]) {
                out.extend(self.outq.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    fn reset_staged(&mut self) {
        self.batch.clear();
        self.batch_pos = 0;
        self.batch_frames = 0;
    }
}

/// The connections of one I/O thread, the poller they are registered with,
/// and the listener that feeds them.
#[derive(Debug)]
pub struct ConnTable<X> {
    poller: Poller,
    listener: TcpListener,
    conns: Vec<Option<Conn<X>>>,
    free_slots: Vec<usize>,
    /// Slots freed since the last [`ConnTable::recycle`].
    pending_free: Vec<usize>,
    /// Slots [`ConnTable::enqueue`] marked since the last
    /// [`ConnTable::flush_marked`], once each (`Conn::marked`).
    marked: Vec<usize>,
    next_gen: u64,
    events: Vec<Event>,
    rdbuf: Vec<u8>,
    metrics: ConnMetrics,
    /// Anchor of the timestamps on close events.
    epoch: Instant,
}

impl<X> ConnTable<X> {
    /// A table polling `injector`'s eventfd and `listener` (which must
    /// already be non-blocking). Writes are counted in `metrics`.
    pub fn new<T>(
        injector: &Injector<T>,
        listener: TcpListener,
        metrics: ConnMetrics,
        epoch: Instant,
    ) -> std::io::Result<Self> {
        let poller = Poller::new()?;
        poller.register(injector.waker.fd(), KEY_WAKER, Interest::READABLE)?;
        poller.register(listener.as_raw_fd(), KEY_LISTENER, Interest::READABLE)?;
        Ok(ConnTable {
            poller,
            listener,
            conns: Vec::new(),
            free_slots: Vec::new(),
            pending_free: Vec::new(),
            marked: Vec::new(),
            next_gen: 0,
            events: Vec::new(),
            rdbuf: vec![0u8; READ_CHUNK],
            metrics,
            epoch,
        })
    }

    /// Makes the slots closed since the last call reusable. Call it at the
    /// top of every loop turn, never while events of a [`ConnTable::wait`]
    /// are still being handled.
    pub fn recycle(&mut self) {
        self.free_slots.append(&mut self.pending_free);
    }

    /// Blocks until something is ready or `timeout` elapses; returns how
    /// many reports [`ConnTable::event`] now holds.
    pub fn wait(&mut self, timeout: Duration) -> usize {
        self.events.clear();
        let _ = self.poller.wait(&mut self.events, Some(timeout));
        self.events.len()
    }

    /// The `i`-th report of the last [`ConnTable::wait`].
    pub fn event(&self, i: usize) -> Ready {
        let ev = self.events[i];
        match ev.key {
            KEY_WAKER => Ready::Waker,
            KEY_LISTENER => Ready::Listener,
            key => Ready::Conn {
                slot: (key - KEY_CONN_BASE) as usize,
                readable: ev.readable,
                writable: ev.writable,
            },
        }
    }

    /// One past the highest slot ever used.
    pub fn slots(&self) -> usize {
        self.conns.len()
    }

    /// The connection in `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&Conn<X>> {
        self.conns.get(slot)?.as_ref()
    }

    /// The connection in `slot`, if any.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut Conn<X>> {
        self.conns.get_mut(slot)?.as_mut()
    }

    /// Every live connection with its slot.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Conn<X>)> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| Some((slot, c.as_ref()?)))
    }

    /// The generation the next connection will get (callers seed
    /// per-connection state from it before inserting).
    pub fn next_gen(&self) -> u64 {
        self.next_gen
    }

    /// Adds a connection without a socket: frames can queue on it while the
    /// caller dials ([`ConnTable::connecting`]). `handshake` opens the stream
    /// of every socket the connection gets.
    pub fn insert(&mut self, ext: X, handshake: Vec<u8>) -> usize {
        let conn = Conn {
            stream: None,
            open: false,
            gen: self.next_gen,
            outq: VecDeque::new(),
            batch: Vec::new(),
            batch_pos: 0,
            batch_frames: 0,
            want_write: false,
            marked: false,
            unwritten_frames: 0,
            unwritten_bytes: 0,
            handshake,
            inbuf: Vec::new(),
            ext,
        };
        self.next_gen += 1;
        if let Some(slot) = self.free_slots.pop() {
            self.conns[slot] = Some(conn);
            slot
        } else {
            self.conns.push(Some(conn));
            self.conns.len() - 1
        }
    }

    /// The next connection waiting on the listener, if any.
    pub fn accept_next(&mut self) -> Option<TcpStream> {
        let (stream, _) = self.listener.accept().ok()?;
        Some(stream)
    }

    /// Adds an accepted socket as an established connection, watched for
    /// input. `None` when the socket could not be set up (it is dropped).
    pub fn accept(&mut self, stream: TcpStream, ext: X) -> Option<usize> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let slot = self.insert(ext, Vec::new());
        if !self.attach(slot, stream, Interest::READABLE) {
            self.close(slot, CloseReason::PeerClosed);
            return None;
        }
        self.get_mut(slot)?.open = true;
        Some(slot)
    }

    /// Attaches the in-progress socket of a non-blocking connect to `slot`;
    /// completion arrives as writability. `false` when the poller refused
    /// the socket (the connection stays detached).
    pub fn connecting(&mut self, slot: usize, stream: TcpStream) -> bool {
        self.attach(slot, stream, Interest::BOTH)
    }

    fn attach(&mut self, slot: usize, stream: TcpStream, interest: Interest) -> bool {
        let key = KEY_CONN_BASE + slot as u64;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        if self
            .poller
            .register(stream.as_raw_fd(), key, interest)
            .is_err()
        {
            return false;
        }
        conn.stream = Some(stream);
        conn.want_write = interest.writable;
        true
    }

    /// Learns the verdict of the connect in flight on `slot`. On success
    /// the connection is established with its handshake staged ahead of
    /// whatever is queued; on failure nothing changes (the caller
    /// [`ConnTable::detach`]es or closes).
    pub fn finish_connect(&mut self, slot: usize) -> bool {
        let Some(conn) = self.get_mut(slot) else {
            return false;
        };
        let Some(stream) = conn.stream.as_ref() else {
            return false;
        };
        if !matches!(stream.take_error(), Ok(None)) {
            return false;
        }
        let _ = stream.set_nodelay(true);
        conn.open = true;
        conn.reset_staged();
        conn.batch.extend_from_slice(&conn.handshake);
        true
    }

    /// Drops the connection's socket (closing it also ends its poller
    /// registration) but keeps its queue: an unflushed batch is forgotten —
    /// its frames are still queued, so the whole batch is retried on the
    /// next socket, at-least-once across reconnects.
    pub fn detach(&mut self, slot: usize) {
        let Some(conn) = self.get_mut(slot) else {
            return;
        };
        conn.stream = None;
        conn.open = false;
        conn.want_write = false;
        conn.reset_staged();
    }

    /// Closes and removes the connection in `slot`, returning it (its
    /// `queued()` frames are lost; the caller accounts for them).
    pub fn close(&mut self, slot: usize, reason: CloseReason) -> Option<Conn<X>> {
        let mut conn = self.conns.get_mut(slot)?.take()?;
        conn.stream = None;
        self.pending_free.push(slot);
        atum_obs::trace_event!(
            Net,
            at = self.epoch.elapsed().as_micros() as u64,
            node = 0,
            slots = [slot as u64, reason as u64, conn.outq.len() as u64],
            "connection {slot} closed: {reason:?}"
        );
        Some(conn)
    }

    /// Reads one chunk from the connection: `Some(n)` bytes arrived (`0`
    /// when the socket is drained, or there is none), `None` on EOF or
    /// error — the caller closes or reconnects. With `keep` unset the bytes
    /// are discarded (write-only connections watch their read half for EOF
    /// alone; so does everyone while draining).
    pub fn read(&mut self, slot: usize, keep: bool) -> Option<usize> {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return Some(0);
        };
        let Some(mut stream) = conn.stream.as_ref() else {
            return Some(0);
        };
        loop {
            match stream.read(&mut self.rdbuf) {
                Ok(0) => return None,
                Ok(n) => {
                    if keep {
                        conn.inbuf.extend_from_slice(&self.rdbuf[..n]);
                    }
                    return Some(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Some(0),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }

    /// Queues a frame unless `capacity` frames already wait. `false` means
    /// refused (also when the slot is empty): the caller drops the frame or
    /// closes the connection. Never blocks, and writes only a full batch
    /// (see the module docs); anything less waits for
    /// [`ConnTable::flush_marked`]. A socket that fails under that write
    /// stays marked: the pre-wait flush meets the error again and reports
    /// it, where the owner's policy for broken sockets runs.
    pub fn enqueue(&mut self, slot: usize, item: QueuedFrame, capacity: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        if conn.outq.len() >= capacity {
            return false;
        }
        let len = item.route.map_or(0, |_| frame::ROUTE_FRAME_LEN) + item.frame.len();
        conn.outq.push_back(item);
        self.metrics
            .peak_outbound_queue
            .record_max(conn.outq.len() as u64);
        if !conn.open {
            return true; // The connect's completion moves this queue.
        }
        conn.unwritten_frames += 1;
        conn.unwritten_bytes += len;
        let full = conn.unwritten_frames >= MAX_BATCH_FRAMES.min(capacity)
            || conn.unwritten_bytes >= MAX_BATCH_BYTES;
        // A full batch is written now — tried even behind a socket that
        // pushed back: a peer that drains it mid-turn (the reactor's own
        // self-connection is one) makes room the kernel could be using, and
        // one attempt per batch is what that costs. Anything less is left
        // to write readiness there, and to the pre-wait flush otherwise.
        let settled = if full {
            self.flush(slot)
        } else {
            conn.want_write
        };
        if !settled {
            let conn = self.conns[slot].as_mut().expect("present above");
            if !conn.marked {
                conn.marked = true;
                self.marked.push(slot);
            }
        }
        true
    }

    /// Flushes every connection [`ConnTable::enqueue`] marked since the last
    /// call and returns the slots whose socket failed (the caller closes or
    /// reconnects them). The owner calls it once per loop turn, before
    /// [`ConnTable::wait`] — and before it works out how long to wait, when
    /// its answer to a broken socket is a timer.
    pub fn flush_marked(&mut self) -> Vec<usize> {
        let mut failed = Vec::new();
        let mut marked = std::mem::take(&mut self.marked);
        for slot in marked.drain(..) {
            // `None`: closed since it was marked.
            let Some(conn) = self.get_mut(slot).filter(|c| c.marked) else {
                continue;
            };
            conn.marked = false;
            if !self.flush(slot) {
                failed.push(slot);
            }
        }
        self.marked = marked;
        failed
    }

    /// Drives the write side of one connection: stages batches from the
    /// queue, writes until the queue is empty or the kernel pushes back, and
    /// arms/disarms write interest accordingly. `false` when the socket
    /// failed mid-write (the caller closes or reconnects); a connection
    /// without an established socket has nothing to fail.
    pub fn flush(&mut self, slot: usize) -> bool {
        let key = KEY_CONN_BASE + slot as u64;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return true;
        };
        if !conn.open {
            return true;
        }
        conn.unwritten_frames = 0;
        conn.unwritten_bytes = 0;
        let metrics = &self.metrics;
        let mut stream = conn.stream.as_ref().expect("open without socket");
        loop {
            if conn.batch_pos >= conn.batch.len() {
                // The previous batch (if any) is fully on the wire.
                if conn.batch_frames > 0 {
                    metrics.frames_sent.add(conn.batch_frames as u64);
                    conn.outq.drain(..conn.batch_frames);
                    conn.batch_frames = 0;
                }
                conn.batch_pos = 0;
                if conn.outq.is_empty() {
                    conn.batch.clear();
                    if conn.want_write {
                        conn.want_write = false;
                        let _ = self
                            .poller
                            .modify(stream.as_raw_fd(), key, Interest::READABLE);
                    }
                    return true;
                }
                conn.batch_frames = fill_batch(
                    &conn.outq,
                    &mut conn.batch,
                    MAX_BATCH_FRAMES,
                    MAX_BATCH_BYTES,
                );
            }
            match stream.write(&conn.batch[conn.batch_pos..]) {
                Ok(n) => {
                    metrics.writes.inc();
                    metrics.bytes_sent.add(n as u64);
                    conn.batch_pos += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.modify(stream.as_raw_fd(), key, Interest::BOTH);
                    }
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::wire::{self, FRAME_KIND_MESSAGE, FRAME_KIND_ROUTE, MAX_FRAME_LEN};
    use atum_types::NodeId;

    /// A table with one accepted connection, and the peer's end of it.
    fn table_with_peer() -> (ConnTable<()>, usize, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let injector: Injector<()> = Injector::new().unwrap();
        let mut table = ConnTable::new(
            &injector,
            listener,
            ConnMetrics::new(&Registry::new("test"), "net"),
            Instant::now(),
        )
        .unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let stream = loop {
            assert!(table.wait(Duration::from_secs(5)) > 0, "no connection");
            if let Some(stream) = table.accept_next() {
                break stream;
            }
        };
        let slot = table.accept(stream, ()).unwrap();
        (table, slot, peer)
    }

    #[test]
    fn a_frame_split_at_every_byte_boundary_scans_to_the_same_kind_and_body() {
        let (mut table, slot, mut peer) = table_with_peer();
        peer.set_nodelay(true).unwrap();
        let body = wire::encode_to_vec(&0xFEED_u64);
        let bytes = frame::frame_bytes(FRAME_KIND_MESSAGE, &body);
        for cut in 0..=bytes.len() {
            for part in [&bytes[..cut], &bytes[cut..]] {
                if part.is_empty() {
                    continue;
                }
                // Before the rest arrives the prefix is "incomplete", never
                // an error and never a frame.
                let buffered = &table.get(slot).unwrap().inbuf;
                assert!(
                    matches!(
                        frame::scan_frame(buffered, &frame::NODE_KINDS, MAX_FRAME_LEN),
                        Ok(None)
                    ),
                    "cut {cut}"
                );
                peer.write_all(part).unwrap();
                let mut got = 0;
                while got < part.len() {
                    assert!(
                        table.wait(Duration::from_secs(5)) > 0,
                        "cut {cut}: no input"
                    );
                    got += table.read(slot, true).expect("connection stays open");
                }
            }
            let buffered = &table.get_mut(slot).unwrap().inbuf;
            let (kind, range) = frame::scan_frame(buffered, &frame::NODE_KINDS, MAX_FRAME_LEN)
                .unwrap()
                .expect("complete frame");
            assert_eq!(
                (kind, &buffered[range.clone()]),
                (FRAME_KIND_MESSAGE, &body[..])
            );
            table.get_mut(slot).unwrap().inbuf.drain(..range.end);
            assert!(table.get(slot).unwrap().inbuf.is_empty());
        }
    }

    #[test]
    fn fill_batch_honours_frame_and_byte_bounds() {
        let route = Some(Route {
            from: NodeId::new(1),
            to: NodeId::new(2),
        });
        let item = |len: usize| QueuedFrame {
            route,
            frame: vec![0u8; len].into(),
        };
        let per_item = |len: usize| frame::ROUTE_FRAME_LEN + len;

        // Frame bound: 3 of the 5 queued messages.
        let q: VecDeque<QueuedFrame> = (0..5).map(|_| item(100)).collect();
        let mut batch = Vec::new();
        assert_eq!(fill_batch(&q, &mut batch, 3, usize::MAX), 3);
        assert_eq!(batch.len(), 3 * per_item(100));

        // Byte bound: two items fit, the third would exceed it.
        let q: VecDeque<QueuedFrame> = (0..3).map(|_| item(100)).collect();
        assert_eq!(fill_batch(&q, &mut batch, 64, 2 * per_item(100)), 2);

        // An oversized frame is still taken (alone), never wedged.
        let q: VecDeque<QueuedFrame> = [item(1000), item(10)].into();
        assert_eq!(fill_batch(&q, &mut batch, 64, 250), 1);
        assert_eq!(batch.len(), per_item(1000));

        // Routed items interleave route and message frames, unrouted ones
        // (the edge wire) are the frame alone — scannable in order.
        let msg: Arc<[u8]> =
            frame::frame_bytes(FRAME_KIND_MESSAGE, &wire::encode_to_vec(&7u64)).into();
        let q: VecDeque<QueuedFrame> = [route, None]
            .map(|route| QueuedFrame {
                route,
                frame: msg.clone(),
            })
            .into();
        assert_eq!(fill_batch(&q, &mut batch, 64, usize::MAX), 2);
        assert_eq!(batch.len(), per_item(msg.len()) + msg.len());
        let mut rest = &batch[..];
        for expected in [FRAME_KIND_ROUTE, FRAME_KIND_MESSAGE, FRAME_KIND_MESSAGE] {
            let (kind, range) = frame::scan_frame(rest, &frame::NODE_KINDS, MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(kind, expected);
            rest = &rest[range.end..];
        }
        assert!(rest.is_empty());
    }

    /// Everything the peer's end of the connection holds right now.
    fn peer_drain(peer: &mut TcpStream) -> usize {
        peer.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4096];
        let mut total = 0;
        loop {
            match peer.read(&mut buf) {
                Ok(0) => panic!("connection closed"),
                Ok(n) => total += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return total,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    #[test]
    fn a_turn_of_enqueues_is_one_write_at_the_pre_wait_flush() {
        let (mut table, slot, mut peer) = table_with_peer();
        let frame: Arc<[u8]> = frame::frame_bytes(FRAME_KIND_MESSAGE, &[7u8; 24]).into();
        let item = || QueuedFrame {
            route: None,
            frame: frame.clone(),
        };
        const N: usize = 10;
        for _ in 0..N {
            assert!(table.enqueue(slot, item(), 1024));
        }
        // Queued and marked, nothing written.
        assert_eq!(table.metrics.writes.get(), 0);
        assert_eq!(table.get(slot).unwrap().queued(), N);
        assert_eq!(peer_drain(&mut peer), 0);
        assert!(table.flush_marked().is_empty(), "the socket did not fail");
        assert_eq!(table.metrics.writes.get(), 1);
        assert_eq!(table.metrics.frames_sent.get(), N as u64);
        assert!(!table.get(slot).unwrap().has_unflushed());
        // Nothing is marked any more: a second flush has nothing to do.
        assert!(table.flush_marked().is_empty());
        assert_eq!(table.metrics.writes.get(), 1);
        let mut got = 0;
        while got < N * frame.len() {
            std::thread::sleep(Duration::from_millis(1));
            got += peer_drain(&mut peer);
        }
        assert_eq!(got, N * frame.len());
    }

    #[test]
    fn a_full_batch_is_written_without_waiting_for_the_turn_to_end() {
        let (mut table, slot, _peer) = table_with_peer();
        let item = |len: usize| QueuedFrame {
            route: None,
            frame: vec![0u8; len].into(),
        };
        // Frame bound: the 64th enqueue on a healthy socket writes.
        for _ in 1..MAX_BATCH_FRAMES {
            assert!(table.enqueue(slot, item(16), 1024));
        }
        assert_eq!(table.metrics.writes.get(), 0);
        assert!(table.enqueue(slot, item(16), 1024));
        assert_eq!(table.metrics.writes.get(), 1);
        assert_eq!(table.metrics.frames_sent.get(), MAX_BATCH_FRAMES as u64);
        assert_eq!(table.get(slot).unwrap().queued(), 0);
        // The caller's bound, when smaller, is the batch: a healthy socket
        // never refuses a frame for frames queued in the same turn.
        for _ in 0..3 * 4 {
            assert!(table.enqueue(slot, item(16), 4));
        }
        assert_eq!(table.metrics.writes.get(), 1 + 3);
        // Byte bound: the frame that brings the queue to MAX_BATCH_BYTES.
        assert!(table.enqueue(slot, item(MAX_BATCH_BYTES / 2), 1024));
        assert_eq!(table.metrics.writes.get(), 4);
        assert!(table.enqueue(slot, item(MAX_BATCH_BYTES / 2), 1024));
        assert!(table.metrics.writes.get() > 4);
        // The pre-wait flush finds the slot still listed and nothing to do
        // beyond what the kernel did not take.
        assert!(table.flush_marked().is_empty());
    }

    #[test]
    fn out_queue_overflow_says_close_and_never_blocks() {
        // A peer that never reads: the socket buffers fill, flush returns
        // with the rest still queued, the queue reaches its bound, and
        // enqueue refuses — at no point does the owner wait for the peer.
        let (mut table, slot, _silent_peer) = table_with_peer();
        const CAPACITY: usize = 8;
        let frame: Arc<[u8]> = vec![0u8; 256 * 1024].into();
        let item = || QueuedFrame {
            route: None,
            frame: frame.clone(),
        };
        let started = Instant::now();
        let mut accepted = 0usize;
        while table.enqueue(slot, item(), CAPACITY) {
            accepted += 1;
            assert!(accepted < 10_000, "a silent peer absorbed 2.5 GB");
            assert!(table.flush(slot), "the socket did not fail");
        }
        assert!(table.flush(slot));
        assert_eq!(table.get(slot).unwrap().queued(), CAPACITY);
        assert!(table.get(slot).unwrap().has_unflushed());
        assert!(started.elapsed() < Duration::from_secs(5));
        // The caller's verdict: close this one connection. Its slot comes
        // back only after the turn ends, under a new generation.
        let closed = table.close(slot, CloseReason::Overflow).unwrap();
        assert_eq!(closed.queued(), CAPACITY);
        assert!(!table.enqueue(slot, item(), CAPACITY));
        assert_ne!(table.insert((), Vec::new()), slot);
        table.recycle();
        let reused = table.insert((), Vec::new());
        assert_eq!(reused, slot);
        assert_ne!(table.get(reused).unwrap().gen(), closed.gen());
    }
}
