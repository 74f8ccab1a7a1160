//! A bounded set that forgets in insertion order.
//!
//! [`FifoSet`] keeps its keys in one ring, oldest first, and finds them
//! through an open-addressed index of 4-byte entries. The group-message
//! collector remembers its `(source vgroup, digest)` keys in one and the
//! seen-cache its broadcast ids: both look a key up on every copy they
//! receive, and both let the oldest key go when a new one would pass the
//! limit.

use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// The most keys a set holds: every ring position has its own 16-bit
/// sequence number.
const MAX_LIMIT: usize = 1 << 16;

/// An index entry: the occupied bit, the entry's probe distance from its
/// home bucket (5 bits), a 10-bit hash tag and the 16-bit sequence number of
/// a ring slot. Zero is an empty bucket.
const OCCUPIED: u32 = 1 << 31;

/// Probe distances from this one on are stored as this one: such an
/// entry's home is found by hashing its key again. A full 65 536-key index
/// holds about one in 140 000 entries that far out.
const FAR: usize = 31;

/// The entry for a key with hash `hash`, `dist` buckets past its home, in
/// ring slot `seq`. The tag is the hash's top bits and the home its bottom
/// bits ([`home`]), so a probe skips an entry unless both its home and its
/// tag are the key's.
fn entry(hash: u64, dist: usize, seq: u16) -> u32 {
    OCCUPIED | (dist.min(FAR) as u32) << 26 | ((hash >> 54) as u32) << 16 | u32::from(seq)
}

/// `entry` moved to `dist` buckets past its home.
fn moved(entry: u32, dist: usize) -> u32 {
    entry & !((FAR as u32) << 26) | (dist.min(FAR) as u32) << 26
}

/// The bucket a key with hash `hash` probes from.
fn home(hash: u64, mask: usize) -> usize {
    hash as usize & mask
}

/// What [`FifoSet::insert`] did with a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inserted {
    /// The key was already remembered, at this ring position.
    Present(usize),
    /// The key now sits at this ring position, the newest; a full set let
    /// its oldest key go first, the one with sequence number `evicted`.
    Added { at: usize, evicted: Option<u16> },
}

/// Up to `limit` keys, each once, in the order they were inserted; a full
/// set forgets its oldest key to make room for a new one.
///
/// The ring is the state and it is ordered: `Debug` renders it alone. The
/// index beside it may be hashed, with a key private to this set, because
/// nothing iterates it: it only answers where in the ring a key is, and that
/// answer depends on key equality alone. The key matters because the keys
/// can be a peer's choice (a vote's digest); with a known hash a flooder
/// could aim every key at one probe run.
#[derive(Clone)]
pub(crate) struct FifoSet<K> {
    /// The keys, oldest first; at most `limit` of them.
    ring: VecDeque<K>,
    /// Open-addressed, linear-probing table of the ring's sequence numbers
    /// ([`entry`]); a power of two long and at most half full, so a probe
    /// always ends at an empty bucket. Removal shifts the run back: no
    /// tombstones.
    index: Vec<u32>,
    /// Sequence number of `ring[0]`; `ring[i]` is `first + i`, wrapping.
    first: u16,
    // determinism-lint: allow (hashes position index entries only; nothing iterates the index; `Debug` renders the ring)
    hasher: std::hash::RandomState,
    limit: usize,
}

impl<K: fmt::Debug> fmt::Debug for FifoSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.ring).finish()
    }
}

impl<K: Hash + Eq> FifoSet<K> {
    /// Creates a set that remembers up to `limit` keys, clamped to
    /// `1..=MAX_LIMIT`.
    pub(crate) fn new(limit: usize) -> Self {
        FifoSet {
            ring: VecDeque::new(),
            index: Vec::new(),
            first: 0,
            hasher: Default::default(),
            limit: limit.clamp(1, MAX_LIMIT),
        }
    }

    /// The most keys remembered at once.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// Number of remembered keys.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// The remembered keys, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &K> {
        self.ring.iter()
    }

    /// The sequence number of ring position `at`.
    pub(crate) fn seq(&self, at: usize) -> u16 {
        self.first.wrapping_add(at as u16)
    }

    /// The ring position of the remembered key with sequence number `seq`.
    fn position(&self, seq: u16) -> usize {
        usize::from(seq.wrapping_sub(self.first))
    }

    /// The ring position of `key`, if it is remembered.
    pub(crate) fn find(&self, key: &K) -> Option<usize> {
        self.find_hashed(self.hasher.hash_one(key), key)
    }

    /// Remembers `key` unless it already is; see [`Inserted`].
    pub(crate) fn insert(&mut self, key: K) -> Inserted {
        let hash = self.hasher.hash_one(&key);
        if let Some(at) = self.find_hashed(hash, &key) {
            return Inserted::Present(at);
        }
        // A full ring lets its oldest key go first: the ring's capacity then
        // settles at the limit instead of doubling past it.
        let evicted = (self.ring.len() >= self.limit).then(|| self.evict_oldest());
        if 2 * (self.ring.len() + 1) > self.index.len() {
            self.rebuild(self.ring.len() + 1);
        }
        let at = self.ring.len();
        self.enter(hash, self.seq(at));
        self.ring.push_back(key);
        Inserted::Added { at, evicted }
    }

    /// Forgets every key for which `keep` is false, visiting the ring
    /// oldest first. The survivors keep their order and are renumbered from
    /// the same first sequence number.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&K) -> bool) {
        let before = self.ring.len();
        self.ring.retain(keep);
        if self.ring.len() != before {
            self.rebuild(self.index.len() / 2);
        }
    }

    fn find_hashed(&self, hash: u64, key: &K) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut at = home(hash, mask);
        for dist in 0.. {
            let found = self.index[at];
            if found == 0 {
                break;
            }
            if found >> 16 == entry(hash, dist, 0) >> 16 {
                let pos = self.position(found as u16);
                if self.ring[pos] == *key {
                    return Some(pos);
                }
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Forgets the ring's oldest key and returns its sequence number: pops
    /// its slot and shifts the rest of its probe run back over its index
    /// entry.
    fn evict_oldest(&mut self) -> u16 {
        let oldest = self.ring.pop_front().expect("only a full ring evicts");
        let mask = self.index.len() - 1;
        let hash = self.hasher.hash_one(&oldest);
        let seq = self.first;
        self.first = self.first.wrapping_add(1);
        let mut hole = home(hash, mask);
        let mut dist = 0;
        while self.index[hole] != entry(hash, dist, seq) {
            hole = (hole + 1) & mask;
            dist += 1;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let moving = self.index[at];
            if moving == 0 {
                break;
            }
            // An entry may fill the hole unless its home lies after the
            // hole, between the hole and where the entry sits.
            let dist = match (moving >> 26) as usize & FAR {
                FAR => {
                    let key = &self.ring[self.position(moving as u16)];
                    at.wrapping_sub(home(self.hasher.hash_one(key), mask)) & mask
                }
                near => near,
            };
            let gap = at.wrapping_sub(hole) & mask;
            if dist >= gap {
                self.index[hole] = moved(moving, dist - gap);
                hole = at;
            }
        }
        self.index[hole] = 0;
        seq
    }

    /// Re-enters every ring slot into an empty index with room for `room`
    /// keys at most half full.
    fn rebuild(&mut self, room: usize) {
        let buckets = (2 * room).next_power_of_two().max(16);
        self.index.clear();
        self.index.resize(buckets, 0);
        for at in 0..self.ring.len() {
            let hash = self.hasher.hash_one(&self.ring[at]);
            self.enter(hash, self.seq(at));
        }
    }

    /// Enters ring slot `seq`, whose key's hash is `hash`, at the first
    /// empty bucket of its probe run.
    fn enter(&mut self, hash: u64, seq: u16) {
        let mask = self.index.len() - 1;
        let mut at = home(hash, mask);
        let mut dist = 0;
        while self.index[at] != 0 {
            at = (at + 1) & mask;
            dist += 1;
        }
        self.index[at] = entry(hash, dist, seq);
    }

    /// Numbers the ring from `first`; the ring must be empty.
    #[cfg(test)]
    pub(crate) fn start_at(&mut self, first: u16) {
        assert!(self.ring.is_empty());
        self.first = first;
    }

    /// The most buckets any remembered key's probe passes: the distance
    /// from its home to its entry, plus one. Checks each entry's stored
    /// distance on the way.
    #[cfg(test)]
    pub(crate) fn longest_probe(&self) -> usize {
        let mask = self.index.len().saturating_sub(1);
        (0..self.index.len())
            .filter(|&at| self.index[at] != 0)
            .map(|at| {
                let key = &self.ring[self.position(self.index[at] as u16)];
                let dist = at.wrapping_sub(home(self.hasher.hash_one(key), mask)) & mask;
                assert_eq!((self.index[at] >> 26) as usize & FAR, dist.min(FAR));
                dist + 1
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key whose hash ignores its value: every key has one home, so the
    /// probe runs pass the stored distances' limit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Clash(u32, u32);

    impl Hash for Clash {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.1.hash(state);
        }
    }

    #[test]
    fn far_entries_shift_back_by_their_rehashed_home() {
        let mut set = FifoSet::new(48);
        for i in 0..200 {
            // Two homes, the second keyed every fourth insert.
            let key = Clash(i, u32::from(i % 4 == 0));
            assert!(matches!(set.insert(key), Inserted::Added { .. }));
            assert_eq!(set.insert(key), Inserted::Present(set.len() - 1));
            let oldest = i.saturating_sub(47);
            for j in oldest..=i {
                assert!(set.find(&Clash(j, u32::from(j % 4 == 0))).is_some());
            }
            if i >= 48 {
                assert!(set
                    .find(&Clash(i - 48, u32::from((i - 48) % 4 == 0)))
                    .is_none());
            }
            assert!(set.longest_probe() <= 48);
        }
        set.retain(|key| key.0 % 3 != 0);
        assert_eq!(set.len(), 32);
        assert!(set.iter().all(|key| set.find(key).is_some()));
        set.longest_probe();
    }
}
