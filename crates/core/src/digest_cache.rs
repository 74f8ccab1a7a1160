//! A process-wide bounded cache of *verified* payload digests, keyed by the
//! exact encoded payload bytes.
//!
//! Receivers recompute a [`GroupEnvelope`](crate::GroupEnvelope)'s payload
//! digest at the trust boundary (the wire decoder) so a forged digest can
//! never subvert majority acceptance. Gossip makes byte-identical payloads
//! the common case *by design*: every member of the sending vgroup
//! transmits the same envelope to every member of the receiving vgroup, so
//! a node decodes the same payload bytes once per sender — and a process
//! hosting many nodes (loopback harnesses, benches) decodes them once per
//! (sender, receiver) pair. This cache lets every arrival after the first
//! skip the SHA-256 recompute.
//!
//! Soundness: the key is the *entire* received payload byte string and
//! decoding is deterministic, so byte equality implies the decoded payload —
//! and therefore its digest, the hash of the decoded value's codec walk — is
//! equal. The converse does not hold (a non-canonical composition encoding
//! decodes to the same value as the canonical one), which is why the cached
//! value is always the digest of the decoded value, never a hash of the key
//! bytes. Nothing weaker than full byte equality (no truncated hashing, no
//! pointer identity) is ever used, which keeps the trust-boundary guarantee
//! intact.
//!
//! The cache is bounded two ways: at most [`CACHE_CAPACITY`] entries
//! (FIFO-evicted) and only payloads up to [`MAX_ENTRY_BYTES`] are cached
//! (larger ones are rare and their SHA-256 is a smaller *fraction* of their
//! handling cost). The simulator never decodes wire bytes, so this cache is
//! invisible to simulated trajectories (`fabric_equivalence` goldens).

use atum_crypto::Digest;
use atum_obs::Counter;
// determinism-lint: allow (keyed lookups only; iteration order never observed)
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum number of cached digests.
const CACHE_CAPACITY: usize = 512;
/// Payloads larger than this are not cached.
const MAX_ENTRY_BYTES: usize = 16 * 1024;

#[derive(Default)]
struct Inner {
    // determinism-lint: allow (keyed lookups only; iteration order never observed)
    map: HashMap<Arc<[u8]>, Digest>,
    // Insertion order for FIFO eviction; shares the key allocation with the
    // map.
    order: VecDeque<Arc<[u8]>>,
}

/// The cache and its `core.digest_cache_{hits,misses}` counters in the
/// process-wide registry, resolved once with it.
struct Cache {
    inner: Mutex<Inner>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Cache {
        inner: Mutex::default(),
        hits: atum_obs::global().counter("core.digest_cache_hits"),
        misses: atum_obs::global().counter("core.digest_cache_misses"),
    })
}

/// Looks up the verified digest of an encoded payload, if a byte-identical
/// payload was decoded recently.
pub(crate) fn lookup(encoded_payload: &[u8]) -> Option<Digest> {
    if encoded_payload.len() > MAX_ENTRY_BYTES {
        return None;
    }
    let cache = cache();
    let found = cache
        .inner
        .lock()
        .expect("digest cache lock")
        .map
        .get(encoded_payload)
        .copied();
    match found {
        Some(_) => cache.hits.inc(),
        None => cache.misses.inc(),
    }
    found
}

/// Records the digest a decoder computed (and thereby verified) for an
/// encoded payload.
pub(crate) fn insert(encoded_payload: &[u8], digest: Digest) {
    if encoded_payload.len() > MAX_ENTRY_BYTES {
        return;
    }
    let key: Arc<[u8]> = Arc::from(encoded_payload);
    let mut inner = cache().inner.lock().expect("digest cache lock");
    if inner.map.insert(key.clone(), digest).is_none() {
        inner.order.push_back(key);
        while inner.order.len() > CACHE_CAPACITY {
            if let Some(evicted) = inner.order.pop_front() {
                inner.map.remove(&evicted);
            }
        }
    }
}

/// Hit/miss counters of the verified-digest cache since process start
/// (`(hits, misses)`), a view of `core.digest_cache_{hits,misses}`. Benches
/// report these; tests assert duplicates hit.
pub fn verified_digest_stats() -> (u64, u64) {
    let cache = cache();
    (cache.hits.get(), cache.misses.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_bytes_hit_after_first_insert() {
        let bytes = b"digest-cache-unit-test-payload".as_slice();
        let digest = Digest::of(bytes);
        // The first lookup may or may not miss (other tests share the
        // process-wide cache), so assert through this key's own lifecycle.
        insert(bytes, digest);
        assert_eq!(lookup(bytes), Some(digest));
        // A different byte string never aliases.
        assert_eq!(lookup(b"digest-cache-unit-test-other"), None);
    }

    #[test]
    fn oversized_payloads_are_never_cached() {
        let big = vec![7u8; MAX_ENTRY_BYTES + 1];
        insert(&big, Digest::of(&big));
        assert_eq!(lookup(&big), None);
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        // Fill well past capacity with unique keys; the cache must stay at
        // its bound and the oldest of *these* keys must be gone.
        for i in 0..(CACHE_CAPACITY as u64 + 64) {
            let key = format!("digest-cache-capacity-{i}");
            insert(key.as_bytes(), Digest::of(key.as_bytes()));
        }
        let inner = cache().inner.lock().unwrap();
        assert!(inner.map.len() <= CACHE_CAPACITY);
        assert_eq!(inner.map.len(), inner.order.len());
    }
}
