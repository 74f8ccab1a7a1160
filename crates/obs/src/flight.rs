//! The flight recorder: a bounded per-node ring of recent trace events,
//! dumped as replayable JSONL when something goes wrong.
//!
//! A [`FlightRecorder`] stores fixed-size [`FlightEvent`] records in a
//! pre-allocated ring: recording is allocation-free in steady state (one
//! mutex lock, one `Copy` write), so recorders stay armed through entire
//! benchmark runs without taxing the hot path. The TCP runtime arms one
//! recorder per hosted node and scopes it around every node dispatch with
//! [`scope`]; [`trace_event!`](crate::trace_event) call sites then land in
//! the recorder of whichever node is executing, with no plumbing through
//! the protocol layers.
//!
//! Dumps happen on panic ([`install_panic_dump`]), on demand
//! (`NodeHandle::dump_flight` in `atum-net`), and when
//! `NetCluster::wait_for_members` times out — so a wedged CI run arrives
//! with the stuck node's last ~512 protocol events attached.

use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, Once};

/// Default ring capacity: the last 512 events per node.
pub const FLIGHT_CAPACITY: usize = 512;

/// One recorded trace event: the fixed-size, heap-free mirror of a
/// [`trace_event!`](crate::trace_event) call (the lazily-formatted `detail`
/// string is sink-only and never stored here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-recorder sequence number (assigned on record).
    pub seq: u64,
    /// Event timestamp in microseconds of runtime time.
    pub at_us: u64,
    /// Raw id of the node the event concerns.
    pub node: u64,
    /// [`EventKind`](crate::trace::EventKind) discriminant.
    pub kind: u8,
    /// First kind-specific payload slot.
    pub a: u64,
    /// Second kind-specific payload slot.
    pub b: u64,
    /// Third kind-specific payload slot.
    pub c: u64,
}

impl FlightEvent {
    /// The event's kind name (`"unknown"` for a corrupt discriminant).
    pub fn kind_name(&self) -> &'static str {
        crate::trace::EventKind::from_u8(self.kind)
            .map(|k| k.as_str())
            .unwrap_or("unknown")
    }

    /// Renders the event as one JSON object line (the flight-dump schema).
    pub fn to_json_line(&self) -> String {
        let entries = vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("kind".to_string(), Value::Str(self.kind_name().to_string())),
            ("at_us".to_string(), Value::U64(self.at_us)),
            ("node".to_string(), Value::U64(self.node)),
            ("a".to_string(), Value::U64(self.a)),
            ("b".to_string(), Value::U64(self.b)),
            ("c".to_string(), Value::U64(self.c)),
        ];
        value_to_json(Value::Map(entries))
    }
}

/// The JSONL wire form of a [`FlightEvent`] (kind by name, not
/// discriminant), used for parsing dumps back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FlightLine {
    seq: u64,
    kind: String,
    at_us: u64,
    node: u64,
    a: u64,
    b: u64,
    c: u64,
}

/// Parses a JSONL flight dump back into events — the replay half of the
/// schema round trip. Unknown kind names are preserved as discriminant 255.
pub fn parse_jsonl(dump: &str) -> Result<Vec<FlightEvent>, serde_json::Error> {
    let mut events = Vec::new();
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        let parsed: FlightLine = serde_json::from_str(line)?;
        events.push(FlightEvent {
            seq: parsed.seq,
            at_us: parsed.at_us,
            node: parsed.node,
            kind: crate::trace::EventKind::parse(&parsed.kind)
                .map(|k| k as u8)
                .unwrap_or(u8::MAX),
            a: parsed.a,
            b: parsed.b,
            c: parsed.c,
        });
    }
    Ok(events)
}

/// Serialises a [`Value`] tree to compact JSON (shared with the trace
/// sink's line rendering).
pub(crate) fn value_to_json(value: Value) -> String {
    struct Line(Value);
    impl Serialize for Line {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Line(value)).expect("trace values are JSON-safe")
}

struct Ring {
    buf: Vec<FlightEvent>,
    next: usize,
    seq: u64,
}

/// A bounded ring of recent [`FlightEvent`]s. Cheap to record into
/// (allocation-free after construction), cheap to share (`Arc`), dumped
/// only on failure paths.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder holding the last [`FLIGHT_CAPACITY`] events.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(FLIGHT_CAPACITY)
    }

    /// A recorder holding the last `capacity` events (pre-allocated: no
    /// heap traffic per record afterwards).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                next: 0,
                seq: 0,
            }),
            capacity,
        }
    }

    /// Records one event, overwriting the oldest when full. `ev.seq` is
    /// replaced by the recorder's own monotonic sequence number.
    pub fn record(&self, mut ev: FlightEvent) {
        let mut ring = self.ring.lock().expect("flight ring lock");
        ev.seq = ring.seq;
        ring.seq += 1;
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
            ring.next = ring.buf.len() % self.capacity;
        } else {
            let next = ring.next;
            ring.buf[next] = ev;
            ring.next = (next + 1) % self.capacity;
        }
    }

    /// Number of events recorded so far (monotonic; may exceed capacity).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring lock").seq
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().expect("flight ring lock");
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() == self.capacity {
            out.extend_from_slice(&ring.buf[ring.next..]);
            out.extend_from_slice(&ring.buf[..ring.next]);
        } else {
            out.extend_from_slice(&ring.buf);
        }
        out
    }

    /// The retained events as replayable JSONL, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.snapshot() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Scopes `recorder` as the destination of this thread's trace events
/// until the returned guard drops (the previous scope is restored). The
/// TCP reactor wraps every node dispatch in one of these.
pub fn scope(recorder: &Arc<FlightRecorder>) -> FlightScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(recorder.clone()));
    FlightScope { prev }
}

/// Guard returned by [`scope`]; restores the previous recorder on drop.
#[derive(Debug)]
pub struct FlightScope {
    prev: Option<Arc<FlightRecorder>>,
}

impl Drop for FlightScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The recorder currently scoped on this thread, if any.
pub fn current() -> Option<Arc<FlightRecorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Records into the thread's scoped recorder (no-op without a scope).
/// Allocation-free: one TLS read, one mutex lock, one `Copy` write.
pub(crate) fn record_current(ev: FlightEvent) {
    CURRENT.with(|c| {
        if let Some(rec) = &*c.borrow() {
            rec.record(ev);
        }
    });
}

/// Installs a process-wide panic hook (once) that dumps the panicking
/// thread's scoped flight recorder to stderr as JSONL before chaining to
/// the previous hook. A panic in a reactor thread therefore arrives with
/// the hosted node's last protocol events attached.
pub fn install_panic_dump() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(rec) = current() {
                eprintln!("--- flight recorder dump (panicking thread) ---");
                eprint!("{}", rec.dump_jsonl());
                eprintln!("--- end flight recorder dump ---");
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq_hint: u64) -> FlightEvent {
        FlightEvent {
            seq: 0,
            at_us: 1_000 + seq_hint,
            node: 7,
            kind: crate::trace::EventKind::Join as u8,
            a: seq_hint,
            b: 2,
            c: 3,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..6 {
            rec.record(ev(i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        assert_eq!(rec.recorded(), 6);
    }

    #[test]
    fn dump_round_trips_through_jsonl() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..5 {
            let mut e = ev(i);
            e.kind = (i % 3) as u8; // join / walk / welcome
            rec.record(e);
        }
        let dump = rec.dump_jsonl();
        assert_eq!(dump.lines().count(), 5);
        let parsed = parse_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed, rec.snapshot());
        assert!(dump.contains("\"kind\":\"walk\""));
    }

    #[test]
    fn panic_dump_reaches_stderr_via_hook() {
        // The hook chain must survive a panic with a scoped recorder: the
        // dump itself must not panic or deadlock. (Visual stderr content is
        // covered by the integration tests; here we pin that the hook runs
        // and the panic still propagates.)
        install_panic_dump();
        let rec = Arc::new(FlightRecorder::with_capacity(4));
        rec.record(ev(1));
        let rec2 = rec.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = scope(&rec2);
            panic!("deliberate test panic");
        });
        assert!(result.is_err());
        assert!(current().is_none(), "scope guard restored on unwind");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let a = Arc::new(FlightRecorder::new());
        let b = Arc::new(FlightRecorder::new());
        {
            let _ga = scope(&a);
            {
                let _gb = scope(&b);
                record_current(ev(1));
            }
            record_current(ev(2));
        }
        record_current(ev(3)); // no scope: dropped
        assert_eq!(b.recorded(), 1);
        assert_eq!(a.recorded(), 1);
    }
}
