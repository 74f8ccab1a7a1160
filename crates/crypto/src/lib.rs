//! Cryptographic primitives for Atum: digests, keyed-hash signatures, MACs
//! and the signature chains used by the synchronous agreement protocol.
//!
//! # Substitution note
//!
//! The paper assumes standard public-key signatures and MACs (and a
//! computationally bounded adversary). This reproduction keeps the *digests*
//! real — SHA-256 via the `sha2` crate, exactly what AShare's integrity
//! checks need — but replaces public-key signatures with a **keyed-hash
//! scheme over a shared key registry**: every node owns a 32-byte secret, and
//! verifiers look the secret up in a [`KeyRegistry`] to recompute the tag.
//! Within the simulation's threat model this is equivalent: a Byzantine node
//! cannot produce a tag for another node's identity because it never learns
//! that node's secret (the registry is part of the trusted test harness, not
//! of any node's state). Wire sizes are still accounted at Ed25519/HMAC sizes
//! (see `atum_types::wire`) so bandwidth modelling is unaffected.
//!
//! # Structural digests
//!
//! Protocol values are digested by [`Digestible::structural_digest`]: one
//! blanket impl that hashes the value's wire-codec field walk, so no type
//! carries a second, hand-written description of its fields (see
//! [`digestible`]).
//!
//! # Example
//!
//! ```
//! use atum_crypto::{Digest, KeyRegistry};
//! use atum_types::NodeId;
//!
//! let mut registry = KeyRegistry::new();
//! let alice = NodeId::new(1);
//! registry.register(alice, 42);
//!
//! let sig = registry.signer(alice).unwrap().sign(b"hello");
//! assert!(registry.verify(alice, b"hello", &sig));
//! assert!(!registry.verify(alice, b"tampered", &sig));
//!
//! let d = Digest::of(b"some chunk");
//! assert_eq!(d, Digest::of(b"some chunk"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod digest;
pub mod digestible;
pub mod keys;

pub use chain::SignatureChain;
pub use digest::Digest;
pub use digestible::Digestible;
pub use keys::{KeyRegistry, Mac, NodeSigner, Signature};
