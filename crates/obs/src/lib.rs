//! `atum-obs`: runtime-neutral observability for the Atum reproduction.
//!
//! The paper's claims are emergent properties — membership convergence,
//! broadcast reach, degradation under churn — so the middleware must expose
//! its own runtime state as first-class data. This crate is that layer,
//! shared by the discrete-event simulator and the TCP reactor runtime:
//!
//! * [`trace`] — structured protocol-event tracing. Call sites use the
//!   [`trace_event!`] macro to emit typed events (`join`, `walk`, `welcome`,
//!   `smr-reject`, `cycle-patch`, `fault-injected`, `anti-entropy-pull`, …)
//!   as one JSON object per line to a pluggable sink (stderr, a file, or an
//!   in-process collector). Filtering is per event kind, configured once at
//!   startup from `ATUM_TRACE`.
//! * [`metrics`] — the one metrics store: a [`Registry`] of named counters,
//!   gauges and fixed-bucket histograms per owner (runtime, gateway,
//!   process), read through [`Snapshot`]s.
//! * [`flight`] — a bounded per-node ring buffer of recent trace events
//!   (the *flight recorder*), dumped as replayable JSONL on panic, on
//!   demand, or when a cluster harness times out waiting for membership.
//!
//! # The off-path overhead invariant
//!
//! Tracing sits on protocol hot paths, so this crate follows the fault
//! plane's "off = one atomic load" discipline, and every release must keep
//! it:
//!
//! 1. **Disabled means one relaxed load.** When no event kind is enabled
//!    and no flight recorder is armed, an expanded [`trace_event!`] call
//!    site performs exactly one `Ordering::Relaxed` load of a process-wide
//!    `AtomicU32` bitmask and branches away. None of the macro's argument
//!    expressions — timestamps, id conversions, slot values, the format
//!    string — are evaluated on that path, and nothing allocates
//!    (`tests/obs_alloc.rs` pins this with a counting global allocator).
//! 2. **Flight recording is allocation-free in steady state.** When a
//!    flight recorder is armed (the TCP runtime arms one per hosted node),
//!    an event is a fixed-size `Copy` record written into a pre-allocated
//!    ring under a mutex: no heap traffic per event, ever. Strings are
//!    only built when a *sink* kind is enabled.
//! 3. **Configuration is read once.** Environment variables are consulted
//!    exactly once, on the first call site hit; after that the mask is
//!    immutable unless a test or harness overrides it explicitly.
//!
//! The CI `obs-smoke` job holds the hot path to these rules end to end: the
//! benchmark's `node_sync` workload run with every kind enabled must stay
//! within 25% of its own `cpu_ms_per_op` with tracing disabled, and lose no
//! delivery either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod metrics;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY};
pub use metrics::{
    global, AtomicHistogram, Counter, Gauge, HistogramValue, MetricValue, Registry, Snapshot,
};
pub use trace::EventKind;

/// Emits one structured trace event.
///
/// The first argument is an [`EventKind`](trace::EventKind) variant name;
/// `at` is the event timestamp in microseconds (runtime time: simulated in
/// the simulator, since-start on the wall clock); `node` is the raw id of
/// the node the event concerns; `slots` carries up to three kind-specific
/// `u64` payload values (ids, epochs, reason codes — see the README's event
/// schema table). An optional trailing format string adds a human-readable
/// `detail` field that is **only** rendered when the event's kind is
/// enabled for a sink.
///
/// When the kind is disabled and no flight recorder is armed, the whole
/// call site is one relaxed atomic load: none of the argument expressions
/// are evaluated (see the crate docs for the full invariant).
///
/// ```
/// atum_obs::trace_event!(Join, at = 42, node = 7, slots = [9, 0, 0]);
/// atum_obs::trace_event!(Walk, at = 42, node = 7, slots = [1, 2, 3], "hop {} of {}", 1, 4);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($kind:ident, at = $at:expr, node = $node:expr, slots = [$a:expr, $b:expr, $c:expr] $(,)?) => {
        if $crate::trace::armed($crate::trace::EventKind::$kind) {
            $crate::trace::record(
                $crate::trace::EventKind::$kind,
                $at,
                $node,
                $a,
                $b,
                $c,
                || ::core::option::Option::None,
            );
        }
    };
    ($kind:ident, at = $at:expr, node = $node:expr, slots = [$a:expr, $b:expr, $c:expr], $($fmt:tt)+) => {
        if $crate::trace::armed($crate::trace::EventKind::$kind) {
            $crate::trace::record(
                $crate::trace::EventKind::$kind,
                $at,
                $node,
                $a,
                $b,
                $c,
                || ::core::option::Option::Some(::std::format!($($fmt)+)),
            );
        }
    };
}
