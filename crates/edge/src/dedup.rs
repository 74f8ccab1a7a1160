//! Request deduplication: a bounded TTL cache keyed by client-supplied
//! idempotency keys, so retried writes apply at most once.
//!
//! The cache records a key *before* the write executes (an `InFlight`
//! marker) and promotes it to `Done` with the cached outcome afterwards.
//! That ordering is what makes retries safe across every interleaving:
//!
//! * retry after the original finished → `Done` hit, replay the outcome;
//! * retry while the original is still executing (e.g. the client's
//!   timeout fired because a breaker tripped mid-request) → `InFlight`
//!   hit, the caller waits for the original instead of re-executing;
//! * original *failed* without applying → the marker is removed and the
//!   retry executes fresh.
//!
//! Capacity eviction only removes `Done` entries (oldest first) — evicting
//! an `InFlight` marker could let a concurrent retry double-apply, and
//! in-flight markers are naturally bounded by the gateway's admission
//! queue. Expired `Done` entries are purged lazily on access.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Tuning for the [`DedupCache`]; the gateway's is
/// [`DEDUP`](crate::gateway::DEDUP).
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Maximum retained `Done` outcomes.
    pub capacity: usize,
    /// How long a `Done` outcome is replayable.
    pub ttl: Duration,
}

/// What [`DedupCache::begin`] found for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupDecision {
    /// Unknown key: an `InFlight` marker was inserted; execute the write,
    /// then call [`DedupCache::complete`] or [`DedupCache::abort`].
    Fresh,
    /// The key is executing right now; wait and re-poll with
    /// [`DedupCache::poll`].
    InFlight,
    /// The key already applied; replay the cached payload.
    Done(Vec<u8>),
}

enum Entry {
    InFlight,
    Done { payload: Vec<u8>, expires: Instant },
}

/// Bounded idempotency-key cache. All methods take `now` so TTL semantics
/// are testable without sleeping.
pub struct DedupCache {
    cfg: DedupConfig,
    entries: BTreeMap<u64, Entry>,
    /// `Done` keys in completion order, for capacity eviction.
    done_order: VecDeque<u64>,
    /// Completed outcomes dropped for capacity before their TTL.
    pub evicted: u64,
}

impl std::fmt::Debug for DedupCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupCache")
            .field("entries", &self.entries.len())
            .field("evicted", &self.evicted)
            .finish()
    }
}

impl DedupCache {
    /// An empty cache.
    pub fn new(cfg: DedupConfig) -> DedupCache {
        DedupCache {
            cfg,
            entries: BTreeMap::new(),
            done_order: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Retained entries (in-flight markers + cached outcomes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Claims `key` for execution, or reports what is already known.
    pub fn begin(&mut self, key: u64, now: Instant) -> DedupDecision {
        match self.entries.get(&key) {
            Some(Entry::InFlight) => return DedupDecision::InFlight,
            Some(Entry::Done { payload, expires }) => {
                if now < *expires {
                    return DedupDecision::Done(payload.clone());
                }
                // Expired: fall through and reclaim the key.
                self.remove_done(key);
            }
            None => {}
        }
        self.entries.insert(key, Entry::InFlight);
        DedupDecision::Fresh
    }

    /// Non-claiming lookup, used while waiting out a concurrent
    /// `InFlight` execution of the same key.
    pub fn poll(&self, key: u64, now: Instant) -> Option<DedupDecision> {
        match self.entries.get(&key) {
            Some(Entry::InFlight) => Some(DedupDecision::InFlight),
            Some(Entry::Done { payload, expires }) if now < *expires => {
                Some(DedupDecision::Done(payload.clone()))
            }
            _ => None,
        }
    }

    /// Promotes a `Fresh` claim to a replayable outcome.
    pub fn complete(&mut self, key: u64, payload: Vec<u8>, now: Instant) {
        self.entries.insert(
            key,
            Entry::Done {
                payload,
                expires: now + self.cfg.ttl,
            },
        );
        self.done_order.push_back(key);
        while self.done_count() > self.cfg.capacity {
            let Some(oldest) = self.done_order.front().copied() else {
                break;
            };
            if matches!(self.entries.get(&oldest), Some(Entry::Done { .. })) {
                self.entries.remove(&oldest);
                self.evicted += 1;
            }
            self.done_order.pop_front();
        }
    }

    /// Releases a `Fresh` claim whose execution failed without applying,
    /// so a retry may execute.
    pub fn abort(&mut self, key: u64) {
        if matches!(self.entries.get(&key), Some(Entry::InFlight)) {
            self.entries.remove(&key);
        }
    }

    fn done_count(&self) -> usize {
        self.done_order
            .iter()
            .filter(|k| matches!(self.entries.get(k), Some(Entry::Done { .. })))
            .count()
    }

    fn remove_done(&mut self, key: u64) {
        self.entries.remove(&key);
        self.done_order.retain(|k| *k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, ttl_ms: u64) -> DedupCache {
        DedupCache::new(DedupConfig {
            capacity,
            ttl: Duration::from_millis(ttl_ms),
        })
    }

    #[test]
    fn retry_after_completion_replays_the_outcome() {
        let mut c = cache(8, 1_000);
        let t0 = Instant::now();
        assert_eq!(c.begin(7, t0), DedupDecision::Fresh);
        c.complete(7, b"applied".to_vec(), t0);
        assert_eq!(c.begin(7, t0), DedupDecision::Done(b"applied".to_vec()));
    }

    #[test]
    fn concurrent_retry_sees_in_flight_then_done() {
        let mut c = cache(8, 1_000);
        let t0 = Instant::now();
        assert_eq!(c.begin(7, t0), DedupDecision::Fresh);
        // The retry arrives while the original still executes.
        assert_eq!(c.begin(7, t0), DedupDecision::InFlight);
        assert_eq!(c.poll(7, t0), Some(DedupDecision::InFlight));
        c.complete(7, b"x".to_vec(), t0);
        assert_eq!(c.poll(7, t0), Some(DedupDecision::Done(b"x".to_vec())));
    }

    #[test]
    fn aborted_claims_free_the_key() {
        let mut c = cache(8, 1_000);
        let t0 = Instant::now();
        assert_eq!(c.begin(7, t0), DedupDecision::Fresh);
        c.abort(7);
        assert_eq!(c.begin(7, t0), DedupDecision::Fresh, "retry re-executes");
    }

    #[test]
    fn outcomes_expire_after_ttl() {
        let mut c = cache(8, 100);
        let t0 = Instant::now();
        assert_eq!(c.begin(7, t0), DedupDecision::Fresh);
        c.complete(7, vec![1], t0);
        let late = t0 + Duration::from_millis(150);
        assert_eq!(c.poll(7, late), None);
        assert_eq!(c.begin(7, late), DedupDecision::Fresh);
    }

    #[test]
    fn capacity_evicts_oldest_done_but_never_in_flight() {
        let mut c = cache(2, 10_000);
        let t0 = Instant::now();
        assert_eq!(c.begin(100, t0), DedupDecision::Fresh); // stays in flight
        for key in 0..3u64 {
            assert_eq!(c.begin(key, t0), DedupDecision::Fresh);
            c.complete(key, vec![key as u8], t0);
        }
        assert_eq!(c.evicted, 1);
        assert_eq!(c.begin(0, t0), DedupDecision::Fresh, "oldest was evicted");
        assert_eq!(
            c.begin(100, t0),
            DedupDecision::InFlight,
            "in-flight markers survive eviction pressure"
        );
        assert_eq!(c.begin(2, t0), DedupDecision::Done(vec![2]));
    }
}
