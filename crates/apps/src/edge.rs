//! Mapping between the edge protocol's operations and the application
//! payloads the three services broadcast.
//!
//! The gateway (`atum-edge`) is deliberately agnostic about what its
//! operations *mean* — it routes `EdgeOp`s into a backend. This module
//! supplies the application-side halves of those operations so gateway
//! backends, benchmarks and tests all agree on the bytes: a `Publish`
//! becomes an [`AsubEvent`] broadcast payload, an `Append` becomes a
//! stream-chunk payload tagged with its stream, and both are recoverable
//! from delivered broadcasts for verification.

use crate::asub::{AsubEvent, EventRef};
use atum_types::edge::EdgeOp;
use atum_types::wire::encode_to_vec;
use atum_types::TopicId;

/// The broadcast payload for an edge operation, or `None` for operations
/// that do not broadcast (probes and reads). Encoded straight from the
/// borrowed body into one exactly-sized buffer.
pub fn broadcast_payload(op: &EdgeOp) -> Option<Vec<u8>> {
    let (id, data) = match op {
        EdgeOp::Publish { topic, payload } => (*topic, payload),
        EdgeOp::Append { stream, chunk } => (*stream, chunk),
        EdgeOp::Health | EdgeOp::Stats | EdgeOp::Fetch { .. } => return None,
    };
    Some(encode_to_vec(&EventRef {
        topic: TopicId::new(id),
        data,
    }))
}

/// Recovers the `(raw topic-or-stream id, data)` pair from a delivered
/// broadcast payload produced by [`broadcast_payload`]. Used by
/// verification harnesses to count applies per operation.
pub fn decode_broadcast(bytes: &[u8]) -> Option<(u64, Vec<u8>)> {
    let event = AsubEvent::decode(bytes)?;
    Some((event.topic.raw(), event.data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_round_trip_through_broadcast_payloads() {
        let publish = EdgeOp::Publish {
            topic: 9,
            payload: vec![1, 2, 3],
        };
        let bytes = broadcast_payload(&publish).expect("publish broadcasts");
        assert_eq!(decode_broadcast(&bytes), Some((9, vec![1, 2, 3])));

        let append = EdgeOp::Append {
            stream: 4,
            chunk: vec![7; 8],
        };
        let bytes = broadcast_payload(&append).expect("append broadcasts");
        assert_eq!(decode_broadcast(&bytes), Some((4, vec![7; 8])));
    }

    #[test]
    fn probes_and_reads_do_not_broadcast() {
        for op in [EdgeOp::Health, EdgeOp::Stats, EdgeOp::Fetch { key: 1 }] {
            assert_eq!(broadcast_payload(&op), None);
        }
    }
}
