//! `atum-edge`: the hardened client gateway at Atum's service boundary.
//!
//! Nine PRs of this reproduction made nodes talk to nodes; this crate is
//! where *external clients* — untrusted, misbehaving, or merely slow —
//! meet the overlay. Production middleware earns its robustness at that
//! boundary, so every client request is wrapped in a robustness kit:
//!
//! * **Circuit breakers** ([`breaker`]) — per-backend-node closed → open →
//!   half-open recovery driven by failure-rate windows, so a dead or
//!   partitioned backend stops receiving traffic within a window and is
//!   probed back into rotation when it recovers.
//! * **Request deduplication** ([`dedup`]) — client-supplied idempotency
//!   keys in a bounded TTL cache, so retried writes apply exactly once
//!   even when the retry straddles a breaker trip.
//! * **Deadlines with jittered retry** ([`gateway`]) — every request
//!   carries a deadline; failed attempts back off exponentially (with
//!   jitter) and rotate to alternate backends until the deadline or the
//!   attempt budget runs out.
//! * **Load shedding** — a bounded admission queue sheds the newest
//!   request with a machine-readable [`EdgeStatus::Overloaded`] reply, so
//!   saturation degrades to fast rejection instead of latency collapse.
//! * **Graceful shutdown** — readiness flips first, the listener stops
//!   accepting, in-flight requests drain within
//!   [`gateway::DRAIN_TIMEOUT`], and only then do sockets close.
//!
//! The wire vocabulary ([`EdgeRequest`]/[`EdgeResponse`]) lives in
//! `atum_types::edge` and shares the versioned frame header with the
//! node-to-node wire under its own frame kinds; a gateway connection
//! receiving node frames (or vice versa) is a violation that closes only
//! that connection. Client sockets live in the same connection layer as the
//! node runtime's ([`atum_net::conn`]) under the same framing
//! ([`atum_net::frame`]); what this crate adds is the client wire's
//! vocabulary and the policy around it. Every count the gateway keeps lives
//! under `edge.*` in its own `atum_obs::Registry`
//! ([`EdgeGateway::registry`]); [`EdgeSnapshot`] and the `Stats` probe are
//! views of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod breaker;
pub mod client;
pub mod dedup;
pub mod gateway;

pub use atum_types::edge::{EdgeOp, EdgeRequest, EdgeResponse, EdgeStatus};
pub use backend::{EdgeBackend, EdgeBackendError};
pub use breaker::{Breaker, BreakerConfig, BreakerState, BreakerTransition};
pub use client::EdgeClient;
pub use dedup::{DedupCache, DedupConfig, DedupDecision};
pub use gateway::{DrainReport, EdgeConfig, EdgeGateway, EdgeProbe, EdgeSnapshot};
