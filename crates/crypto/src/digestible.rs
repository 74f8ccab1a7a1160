//! Structural digests: hash a value's wire-codec field walk straight into
//! the SHA-256 state, with no intermediate encoding.
//!
//! A protocol value has exactly one description of its fields — its
//! `WireEncode::wire_encode` — and [`Digestible`] is that walk run against
//! the writer's digest sink ([`WireWriter::digesting`]) instead of a buffer.
//! The bytes that are authenticated therefore cannot drift from the bytes
//! that travel: a field added to the codec is in the digest by construction.
//!
//! # Injectivity
//!
//! A decodable encoding is prefix-free by construction: fixed-width
//! integers, a length before every variable-length field, a distinct tag
//! byte per enum variant — the rules `WireDecode` already depends on. The
//! digest stream applies the same rules with two historical primitive
//! differences (big-endian integers, 64-bit length prefixes; see
//! [`WireWriter`]), neither of which affects them. Two structurally
//! different values thus produce different streams, and a digest collision
//! would require a SHA-256 collision.
//!
//! Domain-separated pre-images — signature chains, the membership seeds —
//! are byte lists hashed with [`Digest::of_parts`], not field walks, and do
//! not go through here.

use crate::digest::Digest;
use atum_types::{WireEncode, WireWriter};
use sha2::{Digest as _, Sha256};

/// Values with a structural content digest: every [`WireEncode`] type.
pub trait Digestible {
    /// The value's structural content digest.
    fn structural_digest(&self) -> Digest;
}

impl<T: WireEncode> Digestible for T {
    fn structural_digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        let mut feed = |bytes: &[u8]| hasher.update(bytes);
        self.wire_encode(&mut WireWriter::digesting(&mut feed));
        Digest::from_bytes(hasher.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_types::{BroadcastId, Composition, NodeId};

    #[test]
    fn digest_stream_is_big_endian_with_u64_lengths() {
        // Hashing the walk must agree with hashing the concatenated digest
        // stream: BE integers, a u64 length before the byte string.
        let id = BroadcastId::new(NodeId::new(0x0102_0304_0506_0708), 9);
        let mut expected = vec![1, 2, 3, 4, 5, 6, 7, 8];
        expected.extend_from_slice(&9u64.to_be_bytes());
        assert_eq!(id.structural_digest(), Digest::of(&expected));
        let bytes = b"ab".to_vec();
        let mut expected = 2u64.to_be_bytes().to_vec();
        expected.extend_from_slice(b"ab");
        assert_eq!(bytes.structural_digest(), Digest::of(&expected));
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_slices() {
        let a = (b"ab".to_vec(), b"c".to_vec());
        let b = (b"a".to_vec(), b"bc".to_vec());
        assert_ne!(a.structural_digest(), b.structural_digest());
    }

    #[test]
    fn id_types_digest_distinctly() {
        // Same raw value, different type-level meaning is fine (callers tag
        // context); what matters is distinct values → distinct digests.
        assert_ne!(
            NodeId::new(1).structural_digest(),
            NodeId::new(2).structural_digest()
        );
        assert_ne!(
            BroadcastId::new(NodeId::new(1), 0).structural_digest(),
            BroadcastId::new(NodeId::new(0), 1).structural_digest()
        );
        let c1: Composition = [1u64, 2].iter().map(|&i| NodeId::new(i)).collect();
        let c2: Composition = [1u64, 3].iter().map(|&i| NodeId::new(i)).collect();
        assert_ne!(c1.structural_digest(), c2.structural_digest());
        assert_eq!(c1.structural_digest(), c1.clone().structural_digest());
    }
}
