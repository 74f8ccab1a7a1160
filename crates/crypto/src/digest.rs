//! SHA-256 digests.

use serde::{Deserialize, Serialize};
use sha2::{Digest as _, Sha256};
use std::fmt;

/// A SHA-256 digest.
///
/// Used for message-content hashing (the digest optimisation of §5.1), for
/// AShare chunk integrity checks, and as the deduplication key of the group
/// message collector.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest (used as a placeholder, never produced by
    /// hashing).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes a byte slice.
    pub fn of(bytes: &[u8]) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(bytes);
        Digest(hasher.finalize())
    }

    /// Hashes the concatenation of several byte slices (avoids allocating a
    /// joined buffer).
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut hasher = Sha256::new();
        for p in parts {
            hasher.update(p);
        }
        Digest(hasher.finalize())
    }

    /// Combines two digests into one (Merkle-style), used to fold chunk
    /// digests into a whole-file digest.
    pub fn combine(&self, other: &Digest) -> Digest {
        Digest::of_parts(&[&self.0, &other.0])
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a digest from raw bytes (for tests and deserialisation).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Interprets the first eight bytes as a big-endian integer. Handy for
    /// deriving deterministic pseudo-random values from hashed content.
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }

    /// Short hexadecimal prefix for logging.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl atum_types::WireEncode for Digest {
    fn wire_encode(&self, w: &mut atum_types::WireWriter<'_>) {
        w.put_bytes(&self.0);
    }
}

impl atum_types::WireDecode for Digest {
    fn wire_decode(r: &mut atum_types::WireReader<'_>) -> Result<Self, atum_types::WireError> {
        Ok(Digest(r.take_bytes(32)?.try_into().unwrap()))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_collision_free_on_simple_inputs() {
        assert_eq!(Digest::of(b"abc"), Digest::of(b"abc"));
        assert_ne!(Digest::of(b"abc"), Digest::of(b"abd"));
        assert_ne!(Digest::of(b""), Digest::ZERO);
    }

    #[test]
    fn known_sha256_vector() {
        // SHA-256("abc") from FIPS 180-2.
        let expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
        assert_eq!(Digest::of(b"abc").to_string(), expected);
    }

    #[test]
    fn of_parts_equals_concatenation() {
        assert_eq!(Digest::of_parts(&[b"foo", b"bar"]), Digest::of(b"foobar"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn as_u64_and_short_hex_derive_from_bytes() {
        let d = Digest::from_bytes([1u8; 32]);
        assert_eq!(d.as_u64(), u64::from_be_bytes([1; 8]));
        assert_eq!(d.short_hex(), "01010101");
        assert!(format!("{d:?}").contains("01010101"));
    }
}
