//! Core identifiers, configuration and shared data types for the Atum
//! group-communication middleware.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace builds on these definitions.
//!
//! # Overview
//!
//! * [`NodeId`], [`VgroupId`], [`BroadcastId`] — opaque identifiers. A node
//!   presents itself by its [`NodeId`] alone: transports map it to an
//!   address, and the key registry in `atum-crypto` to a key.
//! * [`Composition`] — the membership of a volatile group, with the quorum
//!   arithmetic used throughout the paper (majority, ⌊(g−1)/2⌋, ⌊(g−1)/3⌋).
//! * [`Params`] — the system parameters of Table 1 (`hc`, `rwl`, `gmin`,
//!   `gmax`, `k`) plus the operational knobs used by the implementation.
//! * [`guideline`] — the configuration guideline of Figure 4, mapping a
//!   target number of vgroups to recommended `(rwl, hc)` pairs.
//! * [`wire`] — the binary codec: one `wire_encode` field walk per type,
//!   written to bytes, counted, or digested by [`WireWriter`]'s three sinks.
//! * [`WireSize`] — the byte count the network simulator charges per message
//!   for bandwidth and serialisation-delay modelling (for protocol messages,
//!   the codec's counting pass plus framing).
//!
//! # Example
//!
//! ```
//! use atum_types::{Composition, NodeId, Params, SmrMode};
//!
//! let comp: Composition = (0..7).map(NodeId::new).collect();
//! assert_eq!(comp.len(), 7);
//! // A 7-node vgroup tolerates 3 faults synchronously, 2 asynchronously.
//! assert_eq!(comp.max_faults(SmrMode::Synchronous), 3);
//! assert_eq!(comp.max_faults(SmrMode::Asynchronous), 2);
//!
//! let params = Params::default();
//! assert!(params.gmin <= params.gmax);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod composition;
pub mod config;
pub mod edge;
pub mod error;
pub mod guideline;
pub mod id;
pub mod time;
pub mod wire;

pub use composition::Composition;
pub use config::{GossipPolicy, Params, SmrMode};
pub use edge::{EdgeOp, EdgeRequest, EdgeResponse, EdgeStatus};
pub use error::{AtumError, Result};
pub use guideline::{recommended_params, GuidelineEntry};
pub use id::{BroadcastId, NodeId, TopicId, VgroupId, WalkId};
pub use time::{Duration, Instant};
pub use wire::{FrameMemo, WireDecode, WireEncode, WireError, WireReader, WireSize, WireWriter};
