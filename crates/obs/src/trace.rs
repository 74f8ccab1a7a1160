//! Structured event tracing: the typed vocabulary, the enable mask and the
//! pluggable JSONL sink behind [`trace_event!`](crate::trace_event).
//!
//! The enable state is a process-wide `AtomicU32` bitmask: one bit per
//! [`EventKind`], one bit that arms flight recording, and one sentinel bit
//! meaning "environment not read yet". [`armed`] is the only thing a
//! disabled call site executes — a single relaxed load (see the crate docs
//! for the full off-path invariant).

use serde::Value;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// The typed protocol-event vocabulary. The simulator and the TCP runtime
/// emit the *same* kinds for the same protocol situations — pinned by the
/// `tests/obs_trace.rs` parity test — so a trace from either substrate
/// reads identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Join protocol progress: contact requests, admissions, retries.
    Join = 0,
    /// Placement / re-insertion random-walk routing steps.
    Walk = 1,
    /// Welcome quorum assembly at a joiner or transferred member.
    Welcome = 2,
    /// An SMR engine rejected an incoming value (slot in `a`, reason code
    /// in `b` — see the README's reason table).
    SmrReject = 3,
    /// Overlay cycle surgery: split insertions, merge patches, link repair.
    CyclePatch = 4,
    /// The fault plane (net) or the loss/partition model (sim) injected a
    /// fault into live traffic.
    FaultInjected = 5,
    /// Broadcast anti-entropy issued a pull (or re-proposed a held op) to
    /// close a delivery hole.
    AntiEntropyPull = 6,
    /// Growth-driver diagnostics (end-of-run non-member and vgroup sweep).
    Growth = 7,
    /// Churn-driver diagnostics (stuck nodes, ghost audit).
    Churn = 8,
    /// Connection-layer events: every close of a node or edge connection,
    /// with its reason (slot in `a`, reason code in `b`, frames lost in
    /// `c` — see the README's reason table).
    Net = 9,
    /// Reactor-loop instrumentation events (starvation, saturation).
    Reactor = 10,
    /// Edge-gateway events: breaker transitions, load shedding, drain
    /// progress at the client-facing service boundary.
    Edge = 11,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 12] = [
        EventKind::Join,
        EventKind::Walk,
        EventKind::Welcome,
        EventKind::SmrReject,
        EventKind::CyclePatch,
        EventKind::FaultInjected,
        EventKind::AntiEntropyPull,
        EventKind::Growth,
        EventKind::Churn,
        EventKind::Net,
        EventKind::Reactor,
        EventKind::Edge,
    ];

    /// The stable wire name of this kind (the JSONL `kind` field).
    pub const fn as_str(self) -> &'static str {
        match self {
            EventKind::Join => "join",
            EventKind::Walk => "walk",
            EventKind::Welcome => "welcome",
            EventKind::SmrReject => "smr-reject",
            EventKind::CyclePatch => "cycle-patch",
            EventKind::FaultInjected => "fault-injected",
            EventKind::AntiEntropyPull => "anti-entropy-pull",
            EventKind::Growth => "growth",
            EventKind::Churn => "churn",
            EventKind::Net => "net",
            EventKind::Reactor => "reactor",
            EventKind::Edge => "edge",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == name)
    }

    /// Reconstructs a kind from its discriminant (flight-recorder storage).
    pub fn from_u8(raw: u8) -> Option<EventKind> {
        EventKind::ALL.get(raw as usize).copied()
    }

    const fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// Mask bit: at least one flight recorder is armed in this process.
const FLIGHT_BIT: u32 = 1 << 30;
/// Mask bit: the environment has not been read yet.
const UNINIT_BIT: u32 = 1 << 31;
/// All kind bits.
const ALL_KINDS: u32 = (1 << EventKind::ALL.len()) - 1;

static MASK: AtomicU32 = AtomicU32::new(UNINIT_BIT);

/// `true` when an event of `kind` should be constructed at all — because
/// its sink bit is enabled *or* a flight recorder may want it. This is the
/// entire cost of a disabled call site: one relaxed load and a branch.
#[inline]
pub fn armed(kind: EventKind) -> bool {
    let mask = MASK.load(Ordering::Relaxed);
    if mask & UNINIT_BIT != 0 {
        return armed_slow(kind);
    }
    mask & (FLIGHT_BIT | kind.bit()) != 0
}

/// `true` when `kind` is enabled for sink emission (flight recording is
/// not considered).
#[inline]
pub fn sink_enabled(kind: EventKind) -> bool {
    let mask = MASK.load(Ordering::Relaxed);
    if mask & UNINIT_BIT != 0 {
        init_from_env();
        return sink_enabled(kind);
    }
    mask & kind.bit() != 0
}

#[cold]
fn armed_slow(kind: EventKind) -> bool {
    init_from_env();
    armed(kind)
}

/// Reads the trace configuration from the environment, once per process.
///
/// * `ATUM_TRACE` — `all`, `off`, or a comma-separated list of kind names
///   (`join,walk,smr-reject`).
/// * `ATUM_TRACE_OUT` — path of a JSONL sink file; implies `ATUM_TRACE=all`
///   when no explicit kind selection was made.
///
/// Idempotent and race-free: concurrent first calls all derive the same
/// mask from the same environment.
fn init_from_env() {
    let mut mask = 0u32;
    let mut explicit = false;
    if let Ok(spec) = std::env::var("ATUM_TRACE") {
        explicit = true;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "all" => mask |= ALL_KINDS,
                "off" | "none" => mask = 0,
                name => {
                    if let Some(kind) = EventKind::parse(name) {
                        mask |= kind.bit();
                    } else {
                        eprintln!("warning: ATUM_TRACE names unknown event kind {name:?}");
                    }
                }
            }
        }
    }
    if let Ok(path) = std::env::var("ATUM_TRACE_OUT") {
        if let Err(e) = set_output_file(&path) {
            eprintln!("warning: could not open ATUM_TRACE_OUT={path}: {e}");
        } else if !explicit && mask == 0 {
            mask = ALL_KINDS;
        }
    }
    MASK.fetch_or(mask, Ordering::Relaxed);
    MASK.fetch_and(!UNINIT_BIT, Ordering::Relaxed);
}

/// Overrides the enabled kinds programmatically (harness / test use). The
/// flight-recording bit is preserved; the environment is no longer
/// consulted afterwards.
pub fn set_enabled_kinds(kinds: &[EventKind]) {
    let mut mask = 0u32;
    for kind in kinds {
        mask |= kind.bit();
    }
    let flight = MASK.load(Ordering::Relaxed) & FLIGHT_BIT;
    MASK.store(mask | flight, Ordering::Relaxed);
}

/// Enables every event kind (harness / test use).
pub fn enable_all_kinds() {
    set_enabled_kinds(&EventKind::ALL);
}

/// Arms or disarms flight recording process-wide. The TCP runtime arms it
/// when it hosts its first node; a process that never arms it pays nothing
/// for the recorder's existence.
pub fn set_flight_recording(on: bool) {
    if on {
        MASK.fetch_or(FLIGHT_BIT, Ordering::Relaxed);
    } else {
        MASK.fetch_and(!FLIGHT_BIT, Ordering::Relaxed);
    }
}

/// An in-process sink callback: receives each enabled event's kind and its
/// rendered JSONL line (no trailing newline).
pub type Collector = Arc<dyn Fn(EventKind, &str) + Send + Sync>;

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
    Collector(Collector),
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sink::Stderr => f.write_str("Sink::Stderr"),
            Sink::File(_) => f.write_str("Sink::File"),
            Sink::Collector(_) => f.write_str("Sink::Collector"),
        }
    }
}

fn sink() -> &'static RwLock<Sink> {
    static SINK: OnceLock<RwLock<Sink>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(Sink::Stderr))
}

/// Routes enabled events to stderr (the default).
pub fn set_output_stderr() {
    *sink().write().expect("trace sink lock") = Sink::Stderr;
}

/// Routes enabled events to a JSONL file (created/appended) — the sink the
/// bench binaries' `--trace-out` flag selects.
pub fn set_output_file(path: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    *sink().write().expect("trace sink lock") = Sink::File(Mutex::new(file));
    Ok(())
}

/// Routes enabled events to an in-process collector (test / harness use).
pub fn set_output_collector(collector: Collector) {
    *sink().write().expect("trace sink lock") = Sink::Collector(collector);
}

/// The enabled-path body behind [`trace_event!`](crate::trace_event): feeds
/// the current flight recorder (fixed-size record, no allocation) and, when
/// the kind has a sink bit, renders the JSONL line. Call sites reach this
/// only through the macro's [`armed`] guard.
pub fn record<F: FnOnce() -> Option<String>>(
    kind: EventKind,
    at_us: u64,
    node: u64,
    a: u64,
    b: u64,
    c: u64,
    detail: F,
) {
    let mask = MASK.load(Ordering::Relaxed);
    if mask & FLIGHT_BIT != 0 {
        crate::flight::record_current(crate::flight::FlightEvent {
            seq: 0,
            at_us,
            node,
            kind: kind as u8,
            a,
            b,
            c,
        });
    }
    if mask & kind.bit() != 0 {
        let line = render_line(kind, at_us, node, a, b, c, detail());
        match &*sink().read().expect("trace sink lock") {
            Sink::Stderr => eprintln!("{line}"),
            Sink::File(file) => {
                let mut file = file.lock().expect("trace sink file lock");
                let _ = writeln!(file, "{line}");
            }
            Sink::Collector(collector) => collector(kind, &line),
        }
    }
}

/// Renders one event as a single JSON object line — the same schema the
/// flight recorder dumps, plus the optional `detail` field.
fn render_line(
    kind: EventKind,
    at_us: u64,
    node: u64,
    a: u64,
    b: u64,
    c: u64,
    detail: Option<String>,
) -> String {
    let mut entries = vec![
        ("kind".to_string(), Value::Str(kind.as_str().to_string())),
        ("at_us".to_string(), Value::U64(at_us)),
        ("node".to_string(), Value::U64(node)),
        ("a".to_string(), Value::U64(a)),
        ("b".to_string(), Value::U64(b)),
        ("c".to_string(), Value::U64(c)),
    ];
    if let Some(detail) = detail {
        entries.push(("detail".to_string(), Value::Str(detail)));
    }
    crate::flight::value_to_json(Value::Map(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::parse("nonsense"), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn mask_and_collector_flow() {
        // Unit tests share the process-wide mask with each other only
        // within this binary; configure explicitly rather than from env.
        set_enabled_kinds(&[EventKind::Join]);
        assert!(sink_enabled(EventKind::Join));
        assert!(!sink_enabled(EventKind::Walk));
        assert!(armed(EventKind::Join));

        let hits = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let hits = hits.clone();
            let seen = seen.clone();
            set_output_collector(Arc::new(move |kind, line| {
                hits.fetch_add(1, Ordering::SeqCst);
                seen.lock().unwrap().push((kind, line.to_string()));
            }));
        }
        crate::trace_event!(Join, at = 5, node = 7, slots = [1, 2, 3], "hello {}", 42);
        crate::trace_event!(Walk, at = 6, node = 7, slots = [0, 0, 0]); // disabled
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0].0, EventKind::Join);
        assert!(seen[0].1.contains("\"kind\":\"join\""));
        assert!(seen[0].1.contains("\"detail\":\"hello 42\""));
        drop(seen);
        set_output_stderr();
        set_enabled_kinds(&[]);
    }
}
