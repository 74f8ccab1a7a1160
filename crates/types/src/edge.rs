//! The client-facing edge protocol: the request/response vocabulary an
//! external client speaks to an Atum gateway.
//!
//! External clients are not Atum nodes: they hold no membership, run no
//! overlay and are not trusted. They talk to a *gateway* over the same
//! length-prefixed framing as the node-to-node wire (8-byte header, magic +
//! version + kind + `u32` body length) but with their own frame kinds —
//! [`FRAME_KIND_EDGE_REQUEST`](crate::wire::FRAME_KIND_EDGE_REQUEST) /
//! [`FRAME_KIND_EDGE_RESPONSE`](crate::wire::FRAME_KIND_EDGE_RESPONSE) — so
//! a client frame arriving on a node listener (or a node frame arriving on
//! a gateway listener) is a protocol violation that closes the connection.
//!
//! The vocabulary is deliberately tiny: one request envelope carrying a
//! correlation sequence number, an optional idempotency key, an optional
//! per-request deadline, and one operation drawn from the three application
//! services (ASub publish, AShare-style fetch, AStream-style append) plus
//! the two probe operations (`Health`, `Stats`). Every reply carries a
//! machine-readable [`EdgeStatus`] so saturation and shutdown degrade to
//! *fast, typed rejection* (`Overloaded`, `ShuttingDown`) instead of
//! silence.
//!
//! Variant tags are wire ABI — append new variants, never renumber.

/// One client request to a gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRequest {
    /// Client-chosen correlation number, echoed verbatim in the response.
    /// Clients pipelining several requests on one connection match replies
    /// by this value.
    pub seq: u64,
    /// Client-supplied idempotency key. Two write requests carrying the
    /// same key apply at most once: the gateway caches the first outcome
    /// (bounded, TTL-limited) and replays it with
    /// [`EdgeStatus::Duplicate`] for retries.
    pub idempotency_key: Option<u64>,
    /// Per-request deadline in milliseconds from gateway receipt; `0`
    /// selects the gateway's default. Queue wait, execution and every
    /// retry all count against it.
    pub deadline_ms: u32,
    /// The operation.
    pub op: EdgeOp,
}

/// The operation a client asks the gateway to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeOp {
    /// Liveness/readiness probe (`/healthz`-style). Answered by the
    /// gateway itself, bypassing admission, so it stays truthful under
    /// overload and during drain.
    Health,
    /// Gateway statistics snapshot (counters, breaker states, queue
    /// depths) as one JSON object. Also answered by the gateway itself.
    Stats,
    /// ASub: publish `payload` on `topic` (a write; benefits from an
    /// idempotency key).
    Publish {
        /// Raw topic identifier.
        topic: u64,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// AShare-style read: fetch the value stored under `key`.
    Fetch {
        /// Raw key identifier.
        key: u64,
    },
    /// AStream-style write: append `chunk` to `stream` (a write; benefits
    /// from an idempotency key).
    Append {
        /// Raw stream identifier.
        stream: u64,
        /// Chunk bytes.
        chunk: Vec<u8>,
    },
}

/// One gateway reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeResponse {
    /// The request's correlation number, echoed verbatim.
    pub seq: u64,
    /// Machine-readable outcome.
    pub status: EdgeStatus,
    /// Operation result bytes (empty on failures; the original cached
    /// result on [`EdgeStatus::Duplicate`]).
    pub payload: Vec<u8>,
}

/// Machine-readable request outcome. The non-`Ok` variants are the edge's
/// robustness contract: every failure mode a client can hit has a typed,
/// immediate answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EdgeStatus {
    /// The operation executed.
    Ok = 0,
    /// The admission queue was full; the request was shed without
    /// executing. Retry with backoff.
    Overloaded = 1,
    /// No backend could serve the request (breakers open, backends
    /// failing) within its retry budget.
    Unavailable = 2,
    /// The request's deadline expired before an attempt succeeded.
    DeadlineExceeded = 3,
    /// The request was malformed at the semantic level (unknown operation
    /// arguments, oversized payload).
    BadRequest = 4,
    /// The gateway is draining for shutdown and admits no new work.
    ShuttingDown = 5,
    /// The idempotency key was already applied; the payload replays the
    /// original outcome. The write did NOT apply a second time.
    Duplicate = 6,
}

impl EdgeStatus {
    /// The stable lowercase name (used in stats snapshots and logs).
    pub const fn as_str(self) -> &'static str {
        match self {
            EdgeStatus::Ok => "ok",
            EdgeStatus::Overloaded => "overloaded",
            EdgeStatus::Unavailable => "unavailable",
            EdgeStatus::DeadlineExceeded => "deadline-exceeded",
            EdgeStatus::BadRequest => "bad-request",
            EdgeStatus::ShuttingDown => "shutting-down",
            EdgeStatus::Duplicate => "duplicate",
        }
    }
}

crate::wire_codec!(EdgeStatus, "edge status tag" {
    0 => Ok,
    1 => Overloaded,
    2 => Unavailable,
    3 => DeadlineExceeded,
    4 => BadRequest,
    5 => ShuttingDown,
    6 => Duplicate,
});

crate::wire_codec!(EdgeOp, "edge op tag" {
    0 => Health,
    1 => Stats,
    2 => Publish { topic, payload },
    3 => Fetch { key },
    4 => Append { stream, chunk },
});

crate::wire_codec!(EdgeRequest {
    seq,
    idempotency_key,
    deadline_ms,
    op
});
crate::wire_codec!(EdgeResponse {
    seq,
    status,
    payload
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_exact, encode_to_vec, WireDecode, WireEncode, WireError};

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_to_vec(v);
        let back: T = decode_exact(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn requests_round_trip_over_every_op() {
        for op in [
            EdgeOp::Health,
            EdgeOp::Stats,
            EdgeOp::Publish {
                topic: 9,
                payload: vec![1, 2, 3],
            },
            EdgeOp::Fetch { key: 0xdead },
            EdgeOp::Append {
                stream: 4,
                chunk: vec![0; 64],
            },
        ] {
            round_trip(&EdgeRequest {
                seq: 42,
                idempotency_key: Some(7),
                deadline_ms: 1500,
                op,
            });
        }
        round_trip(&EdgeRequest {
            seq: 0,
            idempotency_key: None,
            deadline_ms: 0,
            op: EdgeOp::Health,
        });
    }

    #[test]
    fn responses_round_trip_over_every_status() {
        for raw in 0..=6u8 {
            let status: EdgeStatus = decode_exact(&[raw]).expect("valid status");
            assert_eq!(status as u8, raw);
            round_trip(&EdgeResponse {
                seq: raw as u64,
                status,
                payload: vec![raw; raw as usize],
            });
        }
        assert_eq!(
            decode_exact::<EdgeStatus>(&[7]),
            Err(WireError::Malformed("edge status tag"))
        );
    }

    #[test]
    fn truncation_and_bad_tags_are_rejected() {
        let req = EdgeRequest {
            seq: 1,
            idempotency_key: Some(2),
            deadline_ms: 3,
            op: EdgeOp::Publish {
                topic: 4,
                payload: vec![5; 16],
            },
        };
        let bytes = encode_to_vec(&req);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<EdgeRequest>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut bad = bytes.clone();
        // The op tag sits after seq (8) + Some-key (1 + 8) + deadline (4).
        bad[21] = 200;
        assert!(decode_exact::<EdgeRequest>(&bad).is_err());
    }
}
