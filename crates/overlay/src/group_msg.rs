//! Group messages: reliable vgroup-to-vgroup communication.
//!
//! A group message from vgroup A to vgroup B is sent by every correct node of
//! A to every node of B; a node of B *accepts* it once it has received the
//! same payload from a majority of A's composition (§3.1, Figure 3). With at
//! most ⌊(|A|−1)/2⌋ faulty members in A, a majority guarantees at least one
//! correct sender, so an accepted group message was really sent by A.
//!
//! The bandwidth optimisation of §5.1 splits what a sender ships: the
//! ⌈g/2⌉ *carriers* of a message ([`is_carrier`]) send the body, every other
//! member sends only its digest as a vote. ⌈g/2⌉ = g − majority + 1 is the
//! smallest set every majority must intersect — only majority − 1 members
//! are not carriers — so the copy that completes a quorum never has to wait
//! for a body, and it exceeds every fault bound (⌊(g−1)/2⌋ synchronously),
//! so at least one carrier is correct.
//!
//! The [`GroupMessageCollector`] implements the receiving side: it counts
//! distinct senders per `(source vgroup, payload digest)` pair, holds the
//! first body that arrives for the pair, and hands that body out exactly
//! once, when the majority threshold is crossed. A quorum of votes without a
//! body waits for one and names its voters, so the receiver can ask them for
//! it; a body whose digest differs from the voted one is a different pair
//! that never reaches a majority.
//!
//! Every copy a member receives passes through the collector, so finding a
//! copy's pair is the hot path. The collector keeps its pairs in a
//! bounded FIFO set: one ring of 40-byte keys in the order collection started,
//! found through a hashed index of 4-byte entries (one probe, where a
//! search tree would compare 40-byte keys a dozen times). Most pairs are
//! accepted within a few copies and then only suppress stragglers, so the
//! senders and body of a pair still being collected live in a side table
//! that holds those pairs alone.

use crate::fifo_set::{FifoSet, Inserted};
use atum_crypto::Digest;
use atum_types::{Composition, NodeId, VgroupId};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies one logical group message while it is being collected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    source: VgroupId,
    digest: Digest,
}

#[derive(Debug, Clone)]
struct Progress<B> {
    /// Distinct senders so far, sorted: at most one vgroup's worth.
    senders: Vec<NodeId>,
    /// The first body received for this key (votes carry none).
    body: Option<B>,
}

/// One remembered key as `Debug` renders it: collected while `progress` is
/// `Some`, accepted once it is `None` (kept to suppress duplicates from
/// stragglers).
struct Slot<'a, B> {
    key: &'a Key,
    progress: Option<&'a Progress<B>>,
}

impl<B: fmt::Debug> fmt::Debug for Slot<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("key", self.key)
            .field("progress", &self.progress)
            .finish()
    }
}

/// What one copy did to the collection of its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed<B> {
    /// Short of a majority (or a repeat, a stranger's copy, or a message
    /// accepted before).
    Pending,
    /// A majority vouches for the digest and none of them shipped the body:
    /// these are the senders so far. Carriers are ranked on the sender's own
    /// view of its vgroup, so members forwarding from diverging views can
    /// all take themselves for voters; the receiver then asks for the body.
    Starved(Vec<NodeId>),
    /// Majority and body: the retained body, handed out exactly once.
    Accepted(B),
}

/// Collects per-sender copies of group messages and reports majority
/// acceptance. `B` is what a body-bearing copy leaves behind until the
/// quorum fires — the envelope in `atum-core`, `()` where only the count
/// matters.
///
/// The keys' ring and the progress of the pending ones are the state, both
/// in the order collection started: `Debug` renders them together, slot by
/// slot, with `remember_limit`, and the model checker fingerprints that.
#[derive(Clone)]
pub struct GroupMessageCollector<B = ()> {
    /// Every key being collected or accepted, once, in the order collection
    /// started; at most `remember_limit` of them. A key is forgotten when it
    /// leaves the ring, so neither a withheld body nor a stream of
    /// fabricated digests can pin bodies and sender sets. Such a stream does
    /// shorten the duplicate-suppression window; a message it pushes out is
    /// accepted again only on a fresh majority of copies, and correct
    /// members send theirs once.
    keys: FifoSet<Key>,
    /// The progress of each key still being collected, by its ring sequence
    /// number: a key leaves when it is accepted or forgotten. Some keys never
    /// complete and stay for as long as the ring remembers them (dozens per
    /// node on a quiet fan-out, hundreds under churn), so this is a map, not
    /// a window from the oldest pending key to the newest, and a hashed one,
    /// so that a copy finds its key's progress in one probe however many
    /// stuck keys a flooder has filled it with.
    // determinism-lint: allow (looked up by sequence number only; nothing iterates it; `Debug` walks the ring)
    pending: std::collections::HashMap<u16, Progress<B>, BuildHasherDefault<SeqHasher>>,
}

/// Hashes a ring sequence number for the pending map: a Fibonacci multiply,
/// whose high half becomes the low bits the map picks its bucket from, so
/// numbers that share their low bits still spread. No key is needed: the
/// collector, not a peer, hands the numbers out, in order.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0 << 8 | u64::from(byte);
        }
    }

    fn write_u16(&mut self, seq: u16) {
        self.0 = u64::from(seq);
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
    }
}

impl<B: fmt::Debug> fmt::Debug for GroupMessageCollector<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring: Vec<Slot<'_, B>> = (self.keys.iter().enumerate())
            .map(|(at, key)| Slot {
                key,
                progress: self.pending.get(&self.keys.seq(at)),
            })
            .collect();
        f.debug_struct("GroupMessageCollector")
            .field("ring", &ring)
            .field("remember_limit", &self.keys.limit())
            .finish()
    }
}

impl GroupMessageCollector<()> {
    /// Records one received copy of a group message.
    ///
    /// * `source` / `source_composition` — the sending vgroup and its
    ///   composition as known to the receiver (used for the majority
    ///   threshold and to ignore senders that are not members).
    /// * `sender` — the individual node the copy came from.
    /// * `digest` — digest of the payload.
    /// * `full_payload` — whether this copy carried the payload in full or
    ///   only its digest (§5.1 optimisation).
    ///
    /// Returns `true` exactly once per `(source, digest)`: when the majority
    /// threshold is reached *and* at least one full copy has arrived.
    pub fn observe(
        &mut self,
        source: VgroupId,
        source_composition: &Composition,
        sender: NodeId,
        digest: Digest,
        full_payload: bool,
    ) -> bool {
        let body = full_payload.then_some(());
        let seen = self.observe_with_view(source, source_composition, None, sender, digest, body);
        seen == Observed::Accepted(())
    }
}

impl<B> GroupMessageCollector<B> {
    /// Creates a collector that tracks up to `remember_limit` messages,
    /// unfinished ones and accepted ones (for duplicate suppression)
    /// together.
    pub fn new(remember_limit: usize) -> Self {
        GroupMessageCollector {
            // Clamped to 1..=65 536: ring sequence numbers are 16 bits wide.
            keys: FifoSet::new(remember_limit),
            pending: Default::default(),
        }
    }

    /// Records one received copy of a group message: a body-bearing copy
    /// passes `Some(body)`, a digest vote `None`. Hands out the retained
    /// body exactly once per `(source, digest)`: when the majority threshold
    /// is reached *and* a body is on hand.
    ///
    /// `local_view` is the receiver's own (possibly fresher) view of the
    /// source composition, e.g. from its neighbour table. The acceptance
    /// threshold is the *smaller* majority of the two views: during churn
    /// the claimed composition can still list departed or never-activated
    /// members that will never send a copy, and holding the message to their
    /// inflated majority would make the receiver deaf to a live neighbour.
    /// Senders present in either view are counted.
    pub fn observe_with_view(
        &mut self,
        source: VgroupId,
        source_composition: &Composition,
        local_view: Option<&Composition>,
        sender: NodeId,
        digest: Digest,
        body: Option<B>,
    ) -> Observed<B> {
        let in_local = local_view.is_some_and(|v| v.contains(sender));
        if !source_composition.contains(sender) && !in_local {
            return Observed::Pending;
        }
        let majority = match local_view {
            Some(view) if !view.is_empty() => source_composition.majority().min(view.majority()),
            _ => source_composition.majority(),
        };
        let (seq, progress) = match self.keys.insert(Key { source, digest }) {
            Inserted::Present(at) => {
                let seq = self.keys.seq(at);
                match self.pending.get_mut(&seq) {
                    Some(progress) => (seq, progress),
                    None => return Observed::Pending,
                }
            }
            Inserted::Added { at, evicted } => {
                if let Some(evicted) = evicted {
                    self.pending.remove(&evicted);
                }
                let seq = self.keys.seq(at);
                let progress = Progress {
                    senders: Vec::new(),
                    body: None,
                };
                (seq, self.pending.entry(seq).or_insert(progress))
            }
        };
        if let Err(pos) = progress.senders.binary_search(&sender) {
            progress.senders.insert(pos, sender);
        }
        if progress.body.is_none() {
            progress.body = body;
        }
        if progress.senders.len() < majority {
            return Observed::Pending;
        }
        let Some(body) = progress.body.take() else {
            return Observed::Starved(progress.senders.clone());
        };
        self.pending.remove(&seq);
        Observed::Accepted(body)
    }

    /// Returns `true` if the message identified by `(source, digest)` has
    /// already been accepted.
    pub fn is_accepted(&self, source: VgroupId, digest: Digest) -> bool {
        let key = Key { source, digest };
        self.keys
            .find(&key)
            .is_some_and(|at| !self.pending.contains_key(&self.keys.seq(at)))
    }

    /// Number of messages still awaiting a majority (or a body).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drops partially collected messages — retained bodies included — from
    /// a source vgroup (used when the source is known to have reconfigured
    /// or disappeared and stale counts could otherwise linger).
    pub fn forget_source(&mut self, source: VgroupId) {
        // The ring closes up over the dropped keys, so every pending key
        // that stays is entered again under its new sequence number.
        let mut old = std::mem::take(&mut self.pending);
        let mut kept = Vec::new();
        let (mut seq, mut at) = (self.keys.seq(0), 0);
        self.keys.retain(|key| {
            let progress = old.remove(&seq);
            seq = seq.wrapping_add(1);
            let keep = progress.is_none() || key.source != source;
            if keep {
                kept.extend(progress.map(|progress| (at, progress)));
                at += 1;
            }
            keep
        });
        self.pending = (kept.into_iter())
            .map(|(at, progress)| (self.keys.seq(at), progress))
            .collect();
    }
}

/// Whether `member` is a *carrier* of the group message `digest` sent by
/// `source`: one of the ⌈g/2⌉ members that ship the body while the rest
/// vote with the digest (see the module docs for why that many). Members
/// are ranked by a hash of `(digest, member id)`, so every member derives
/// the same set without coordination and the set rotates per message.
pub fn is_carrier(source: &Composition, digest: Digest, member: NodeId) -> bool {
    let bytes = digest.as_bytes();
    let seed = u64::from_le_bytes(bytes[..8].try_into().expect("digest has 32 bytes"));
    let rank = |m: NodeId| (mix64(seed ^ mix64(m.raw())), m);
    let mine = rank(member);
    let carriers = source.len() + 1 - source.majority();
    source.contains(member) && source.iter().filter(|&m| rank(m) < mine).count() < carriers
}

/// The splitmix64 finaliser: a cheap bijective mixer (the digest half of the
/// rank is already a SHA-256 output; this only spreads the member id).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn accepts_on_majority_only_once() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3, 4, 5]);
        let d = Digest::of(b"payload");
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(2), d, true));
        // Third sender reaches the majority (3 of 5).
        assert!(c.observe(source, &composition, NodeId::new(3), d, true));
        // Further copies are duplicates.
        assert!(!c.observe(source, &composition, NodeId::new(4), d, true));
        assert!(c.is_accepted(source, d));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn duplicate_senders_do_not_count_twice() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(c.observe(source, &composition, NodeId::new(2), d, true));
    }

    #[test]
    fn non_members_are_ignored() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        assert!(!c.observe(source, &composition, NodeId::new(9), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(8), d, true));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn different_payloads_are_collected_independently() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d1 = Digest::of(b"a");
        let d2 = Digest::of(b"b");
        assert!(!c.observe(source, &composition, NodeId::new(1), d1, true));
        assert!(!c.observe(source, &composition, NodeId::new(1), d2, true));
        assert_eq!(c.pending_len(), 2);
        assert!(c.observe(source, &composition, NodeId::new(2), d1, true));
        assert!(c.observe(source, &composition, NodeId::new(3), d2, true));
    }

    #[test]
    fn digest_only_copies_need_one_full_copy() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(2);
        let composition = comp(&[1, 2, 3, 4, 5]);
        let d = Digest::of(b"big");
        // Three digest-only copies reach the majority but cannot be accepted.
        assert!(!c.observe(source, &composition, NodeId::new(1), d, false));
        assert!(!c.observe(source, &composition, NodeId::new(2), d, false));
        assert!(!c.observe(source, &composition, NodeId::new(3), d, false));
        // The first full copy completes it.
        assert!(c.observe(source, &composition, NodeId::new(4), d, true));
    }

    #[test]
    fn memory_of_accepted_messages_is_bounded() {
        let mut c = GroupMessageCollector::new(2);
        let composition = comp(&[1]);
        for i in 0..5u64 {
            let d = Digest::of(&i.to_be_bytes());
            assert!(c.observe(VgroupId::new(1), &composition, NodeId::new(1), d, true));
        }
        // Only the two most recent accepted digests are remembered.
        let old = Digest::of(&0u64.to_be_bytes());
        let recent = Digest::of(&4u64.to_be_bytes());
        assert!(!c.is_accepted(VgroupId::new(1), old));
        assert!(c.is_accepted(VgroupId::new(1), recent));
    }

    #[test]
    fn forget_source_drops_partial_state() {
        let mut c = GroupMessageCollector::new(10);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        c.observe(VgroupId::new(1), &composition, NodeId::new(1), d, true);
        c.observe(VgroupId::new(2), &composition, NodeId::new(1), d, true);
        assert_eq!(c.pending_len(), 2);
        c.forget_source(VgroupId::new(1));
        assert_eq!(c.pending_len(), 1);
    }

    #[test]
    fn a_restarted_key_is_in_the_ring_once_and_stays_accepted() {
        // The ring holds 4 keys. K loses its unfinished state twice — pushed
        // out by newer keys, then dropped with its source — and restarts
        // each time; a stale second ring entry would take `accepted[K]`
        // with it long before 4 newer keys have started.
        let mut c = GroupMessageCollector::<u64>::new(4);
        let composition = comp(&[1, 2, 3]);
        let (source, k) = (VgroupId::new(1), Digest::of(b"k"));
        let mut see = |source, sender, digest, body| {
            c.observe_with_view(
                source,
                &composition,
                None,
                NodeId::new(sender),
                digest,
                body,
            )
        };
        assert_eq!(see(source, 1, k, Some(7)), Observed::Pending);
        for i in 0..4u64 {
            let other = Digest::of(&i.to_le_bytes());
            assert_eq!(see(VgroupId::new(2), 1, other, Some(i)), Observed::Pending);
        }
        // K's sender and body went with it: a vote alone starts it over.
        assert_eq!(see(source, 2, k, None), Observed::Pending);
        c.forget_source(source);
        assert_eq!(c.pending_len(), 3);
        let mut see = |source, sender, digest, body| {
            c.observe_with_view(
                source,
                &composition,
                None,
                NodeId::new(sender),
                digest,
                body,
            )
        };
        assert_eq!(see(source, 1, k, Some(8)), Observed::Pending);
        assert_eq!(see(source, 2, k, None), Observed::Accepted(8));
        for i in 4..7u64 {
            let other = Digest::of(&i.to_le_bytes());
            assert_eq!(see(VgroupId::new(2), 1, other, Some(i)), Observed::Pending);
        }
        assert_eq!(see(source, 3, k, Some(9)), Observed::Pending);
        assert!(c.is_accepted(source, k));
        assert_eq!(c.pending_len(), 3);
    }

    #[test]
    fn the_retained_body_is_the_first_and_is_handed_out_once() {
        let mut c = GroupMessageCollector::<&str>::new(8);
        let composition = comp(&[1, 2, 3, 4]);
        let (source, d) = (VgroupId::new(1), Digest::of(b"m"));
        let mut see = |sender, body| {
            c.observe_with_view(source, &composition, None, NodeId::new(sender), d, body)
        };
        assert_eq!(see(1, None), Observed::Pending);
        assert_eq!(see(2, Some("first")), Observed::Pending);
        assert_eq!(see(2, Some("again")), Observed::Pending);
        assert_eq!(see(3, None), Observed::Accepted("first"));
        assert_eq!(see(4, Some("late")), Observed::Pending);
    }

    #[test]
    fn a_majority_of_votes_without_a_body_names_its_voters() {
        let mut c = GroupMessageCollector::<&str>::new(8);
        let composition = comp(&[1, 2, 3, 4]);
        let (source, d) = (VgroupId::new(1), Digest::of(b"m"));
        let mut see = |sender, body| {
            c.observe_with_view(source, &composition, None, NodeId::new(sender), d, body)
        };
        let voters = |ids: &[u64]| Observed::Starved(ids.iter().map(|&i| NodeId::new(i)).collect());
        assert_eq!(see(3, None), Observed::Pending);
        assert_eq!(see(1, None), Observed::Pending);
        assert_eq!(see(2, None), voters(&[1, 2, 3]));
        assert_eq!(see(2, None), voters(&[1, 2, 3]));
        assert_eq!(see(4, Some("body")), Observed::Accepted("body"));
    }
    /// The collector as two plain lists and a ring, `accepted` asked first:
    /// what [`GroupMessageCollector::observe_with_view`] must keep computing
    /// however it finds its keys.
    struct Naive {
        in_progress: Vec<(Key, BTreeSet<NodeId>, Option<u64>)>,
        accepted: Vec<Key>,
        order: Vec<Key>,
        limit: usize,
    }

    impl Default for Naive {
        fn default() -> Self {
            Naive::with_limit(Naive::LIMIT)
        }
    }

    impl Naive {
        const LIMIT: usize = 4;

        fn with_limit(limit: usize) -> Self {
            Naive {
                in_progress: Vec::new(),
                accepted: Vec::new(),
                order: Vec::new(),
                limit,
            }
        }

        fn observe(
            &mut self,
            key: Key,
            majority: usize,
            sender: NodeId,
            body: Option<u64>,
        ) -> Observed<u64> {
            if self.accepted.contains(&key) {
                return Observed::Pending;
            }
            if !self.in_progress.iter().any(|p| p.0 == key) {
                if self.order.len() >= self.limit {
                    let oldest = self.order.remove(0);
                    self.in_progress.retain(|p| p.0 != oldest);
                    self.accepted.retain(|k| *k != oldest);
                }
                self.order.push(key.clone());
                self.in_progress.push((key.clone(), BTreeSet::new(), None));
            }
            let at = self.in_progress.iter().position(|p| p.0 == key).unwrap();
            let (_, senders, held) = &mut self.in_progress[at];
            senders.insert(sender);
            if held.is_none() {
                *held = body;
            }
            if senders.len() < majority {
                return Observed::Pending;
            }
            let Some(body) = held.take() else {
                return Observed::Starved(senders.iter().copied().collect());
            };
            self.in_progress.remove(at);
            self.accepted.push(key);
            Observed::Accepted(body)
        }

        fn forget_source(&mut self, source: VgroupId) {
            self.in_progress.retain(|p| p.0.source != source);
            let accepted = &self.accepted;
            self.order
                .retain(|k| k.source != source || accepted.contains(k));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Copies, votes and `forget_source` in random order, more keys than
        /// the ring holds: every result and `pending_len` equal the naive
        /// model's, step for step.
        #[test]
        fn collector_matches_the_naive_two_set_model(
            steps in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            let mut collector = GroupMessageCollector::<u64>::new(Naive::LIMIT);
            let mut naive = Naive::default();
            let claimed = comp(&[1, 2, 3]);
            let fresher = comp(&[4]);
            for (step, s) in steps.into_iter().enumerate() {
                let source = VgroupId::new(s % 2);
                if s / 2 % 8 == 0 {
                    collector.forget_source(source);
                    naive.forget_source(source);
                } else {
                    let digest = Digest::of(&[(s / 16 % 6) as u8]);
                    // 5 is in neither view.
                    let sender = NodeId::new(1 + s / 96 % 5);
                    let body = (s / 480 % 2 == 0).then_some(step as u64);
                    let local_view = (s / 960 % 2 == 0).then_some(&fresher);
                    let seen = collector
                        .observe_with_view(source, &claimed, local_view, sender, digest, body);
                    let known = claimed.contains(sender)
                        || local_view.is_some_and(|v| v.contains(sender));
                    let majority = local_view.map_or(2, |_| 2.min(fresher.majority()));
                    let expected = match known {
                        true => naive.observe(Key { source, digest }, majority, sender, body),
                        false => Observed::Pending,
                    };
                    proptest::prop_assert_eq!(seen, expected, "step {}", step);
                    proptest::prop_assert_eq!(
                        collector.is_accepted(source, digest),
                        naive.accepted.contains(&Key { source, digest })
                    );
                }
                proptest::prop_assert_eq!(collector.pending_len(), naive.in_progress.len());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The same model on a 64-key ring and 3 sources × 128 digests: keys
        /// sweep forward with the steps and now and then jump, so the index
        /// grows, evicts with backward shifts and is rebuilt by
        /// `forget_source` while results stay the model's, step for step.
        #[test]
        fn a_64_key_ring_matches_the_naive_model(
            steps in proptest::collection::vec(0u64..1_000_000, 300..1200),
        ) {
            let mut collector = GroupMessageCollector::<u64>::new(64);
            let mut naive = Naive::with_limit(64);
            let claimed = comp(&[1, 2, 3]);
            for (step, s) in steps.into_iter().enumerate() {
                let source = VgroupId::new(s % 3);
                if s / 3 % 64 == 0 {
                    collector.forget_source(source);
                    naive.forget_source(source);
                } else {
                    let near = step as u64 / 3 + s / 192 % 8;
                    let key = if s / 1536 % 16 == 0 { s / 24_576 } else { near } % 128;
                    let digest = Digest::of(&key.to_le_bytes());
                    let sender = NodeId::new(1 + s / 3 % 3);
                    let body = (s / 12 % 2 == 0).then_some(step as u64);
                    let seen = collector.observe_with_view(source, &claimed, None, sender, digest, body);
                    let expected = naive.observe(Key { source, digest }, 2, sender, body);
                    proptest::prop_assert_eq!(seen, expected, "step {}", step);
                    proptest::prop_assert_eq!(
                        collector.is_accepted(source, digest),
                        naive.accepted.contains(&Key { source, digest })
                    );
                }
                proptest::prop_assert_eq!(collector.pending_len(), naive.in_progress.len());
            }
        }
    }

    /// One copy of message `i` from `sender` of vgroup `source`, whose
    /// claimed composition is {1, 2, 3}.
    fn copy(
        c: &mut GroupMessageCollector<u64>,
        source: u64,
        sender: u64,
        i: u64,
        body: Option<u64>,
    ) -> Observed<u64> {
        let (source, sender) = (VgroupId::new(source), NodeId::new(sender));
        let digest = Digest::of(&i.to_le_bytes());
        c.observe_with_view(source, &comp(&[1, 2, 3]), None, sender, digest, body)
    }

    fn accepted(c: &GroupMessageCollector<u64>, source: u64, i: u64) -> bool {
        c.is_accepted(VgroupId::new(source), Digest::of(&i.to_le_bytes()))
    }

    #[test]
    fn sequence_numbers_wrap() {
        // Starting 8 short of 2^16 the numbers wrap while the ring fills;
        // starting 40 short, once it is full and evicting.
        for start in [u16::MAX - 8, u16::MAX - 40] {
            let mut c = GroupMessageCollector::new(16);
            c.keys.start_at(start);
            for i in 0..64 {
                assert_eq!(copy(&mut c, 1, 1, i, Some(i)), Observed::Pending);
                // Every other key stays unfinished: both kinds cross the wrap.
                if i % 2 == 0 {
                    assert_eq!(copy(&mut c, 1, 2, i, None), Observed::Accepted(i));
                }
            }
            assert_eq!(c.keys.seq(0), start.wrapping_add(48));
            for i in 0..64 {
                assert_eq!(accepted(&c, 1, i), i >= 48 && i % 2 == 0);
            }
            // The 8 unfinished keys still remembered kept their sender and body.
            assert_eq!(c.pending_len(), 8);
            for i in (49..64).step_by(2) {
                assert_eq!(copy(&mut c, 1, 3, i, None), Observed::Accepted(i));
            }
            assert_eq!(c.pending_len(), 0);
        }
    }

    #[test]
    fn the_limit_is_clamped_to_the_sequence_width() {
        let widest = GroupMessageCollector::<()>::new(usize::MAX);
        assert_eq!(widest.keys.limit(), 65_536);
        assert!(format!("{widest:?}").ends_with("remember_limit: 65536 }"));
        assert_eq!(GroupMessageCollector::<()>::new(0).keys.limit(), 1);
    }

    #[test]
    fn a_full_width_ring_reuses_the_evicted_sequence_number() {
        // At 65 536 keys a new key takes the number its evicted predecessor
        // had: an unfinished predecessor's progress must not pass to it.
        let mut c = GroupMessageCollector::new(usize::MAX);
        c.keys.start_at(u16::MAX - 8);
        let total = 65_536 + 64;
        for i in 0..total {
            assert_eq!(copy(&mut c, 1, 1, i, Some(i)), Observed::Pending);
            if i % 3 != 0 {
                assert_eq!(copy(&mut c, 1, 2, i, None), Observed::Accepted(i));
            }
        }
        let unfinished = (64..total).filter(|i| i % 3 == 0).count();
        assert_eq!(c.pending_len(), unfinished);
        for i in (0..64).chain(total - 64..total) {
            assert_eq!(accepted(&c, 1, i), i >= 64 && i % 3 != 0);
        }
        for i in (total - 64..total).filter(|i| i % 3 == 0) {
            assert_eq!(copy(&mut c, 1, 3, i, None), Observed::Accepted(i));
        }
    }

    #[test]
    fn keys_kept_by_forget_source_are_still_found() {
        let mut c = GroupMessageCollector::new(64);
        for i in 0..20 {
            for source in [1, 2] {
                copy(&mut c, source, 1, i, Some(i));
                if i % 2 == 0 {
                    copy(&mut c, source, 2, i, None);
                }
            }
        }
        assert_eq!(c.pending_len(), 20);
        c.forget_source(VgroupId::new(1));
        assert_eq!(c.pending_len(), 10);
        for i in 0..20 {
            if i % 2 == 0 {
                // Accepted from both sources, and still accepted.
                assert!(accepted(&c, 1, i) && accepted(&c, 2, i));
                assert_eq!(copy(&mut c, 1, 3, i, None), Observed::Pending);
                assert_eq!(copy(&mut c, 2, 3, i, None), Observed::Pending);
            } else {
                // Source 2's first sender and body are still held; source
                // 1's copy starts over.
                assert_eq!(copy(&mut c, 2, 2, i, None), Observed::Accepted(i));
                assert_eq!(copy(&mut c, 1, 2, i, None), Observed::Pending);
            }
        }
    }

    /// The model checker fingerprints this rendering: a fixed history of
    /// evictions, one `forget_source`, one starved key and one accepted key
    /// must print exactly this, whatever the layout behind it.
    #[test]
    fn the_rendering_is_pinned() {
        let mut c = GroupMessageCollector::new(5);
        copy(&mut c, 1, 1, 0, Some(0));
        copy(&mut c, 1, 1, 1, Some(1));
        copy(&mut c, 1, 1, 2, Some(2));
        assert_eq!(copy(&mut c, 1, 2, 2, None), Observed::Accepted(2));
        copy(&mut c, 2, 3, 3, None);
        let voters = vec![NodeId::new(1), NodeId::new(3)];
        assert_eq!(copy(&mut c, 2, 1, 3, None), Observed::Starved(voters));
        copy(&mut c, 1, 3, 4, Some(4));
        // Messages 0 and 1 leave the ring.
        copy(&mut c, 2, 2, 5, Some(5));
        copy(&mut c, 1, 1, 6, None);
        // Messages 4 and 6 go with their source; accepted 2 stays.
        c.forget_source(VgroupId::new(1));
        copy(&mut c, 1, 2, 7, Some(7));
        let pinned = concat!(
            "GroupMessageCollector { ring: [",
            "Slot { key: Key { source: VgroupId(1), digest: Digest(d86e8112…) }, ",
            "progress: None }, ",
            "Slot { key: Key { source: VgroupId(2), digest: Digest(35be322d…) }, ",
            "progress: Some(Progress { senders: [NodeId(1), NodeId(3)], body: None }) }, ",
            "Slot { key: Key { source: VgroupId(2), digest: Digest(f13ee6ed…) }, ",
            "progress: Some(Progress { senders: [NodeId(2)], body: Some(5) }) }, ",
            "Slot { key: Key { source: VgroupId(1), digest: Digest(aae89fc0…) }, ",
            "progress: Some(Progress { senders: [NodeId(2)], body: Some(7) }) }",
            "], remember_limit: 5 }",
        );
        assert_eq!(format!("{c:?}"), pinned);
    }

    #[test]
    fn the_rendering_is_the_ring_alone() {
        let feed = |c: &mut GroupMessageCollector<u64>| {
            for i in 0..40 {
                copy(c, i % 3, 1 + i % 2, i % 24, Some(i));
            }
        };
        let (mut a, mut b) = (
            GroupMessageCollector::new(16),
            GroupMessageCollector::new(16),
        );
        for _ in 0..2 {
            feed(&mut a);
            feed(&mut b);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(format!("{:?}", a.clone()), format!("{a:?}"));
            a.forget_source(VgroupId::new(1));
            b.forget_source(VgroupId::new(1));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(format!("{:?}", a.clone()), format!("{a:?}"));
        }
    }
}
