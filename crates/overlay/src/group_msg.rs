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

use atum_crypto::Digest;
use atum_types::{Composition, NodeId, VgroupId};
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet, VecDeque};

/// Identifies one logical group message while it is being collected.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    source: VgroupId,
    digest: Digest,
}

#[derive(Debug, Clone)]
struct Progress<B> {
    senders: BTreeSet<NodeId>,
    /// The first body received for this key (votes carry none).
    body: Option<B>,
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
/// All containers are ordered (determinism lint): collector state feeds
/// model-checker fingerprints and its iteration order must not depend on
/// hash seeds.
#[derive(Debug, Clone)]
pub struct GroupMessageCollector<B = ()> {
    in_progress: BTreeMap<Key, Progress<B>>,
    /// Keys already accepted (kept to suppress duplicates from stragglers).
    accepted: BTreeSet<Key>,
    /// Upper bound on tracked keys, to bound memory.
    remember_limit: usize,
    /// Every key in `in_progress` or `accepted`, once, in the order
    /// collection started; at most `remember_limit` of them. A key leaves
    /// both maps when it leaves the ring, so neither a withheld body nor a
    /// stream of fabricated digests can pin bodies and sender sets. Such a
    /// stream does shorten the duplicate-suppression window; a message it
    /// pushes out is accepted again only on a fresh majority of copies, and
    /// correct members send theirs once.
    order: VecDeque<Key>,
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
            in_progress: BTreeMap::new(),
            accepted: BTreeSet::new(),
            remember_limit: remember_limit.max(1),
            order: VecDeque::new(),
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
        let mut majority = source_composition.majority();
        if let Some(view) = local_view {
            if !view.is_empty() {
                majority = majority.min(view.majority());
            }
        }
        // The handful of keys in flight first: most copies are of one of
        // them, and only a miss walks the `remember_limit`-deep `accepted`.
        let mut evicted = None;
        let mut slot = match self.in_progress.entry(Key { source, digest }) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) => {
                if self.accepted.contains(slot.key()) {
                    return Observed::Pending;
                }
                // Evict before pushing: the ring's capacity then settles at
                // the limit instead of doubling past it.
                if self.order.len() >= self.remember_limit {
                    evicted = self.order.pop_front();
                }
                self.order.push_back(slot.key().clone());
                slot.insert_entry(Progress {
                    senders: BTreeSet::new(),
                    body: None,
                })
            }
        };
        let progress = slot.get_mut();
        progress.senders.insert(sender);
        if progress.body.is_none() {
            progress.body = body;
        }
        let observed = if progress.senders.len() < majority {
            Observed::Pending
        } else if let Some(body) = progress.body.take() {
            self.accepted.insert(slot.remove_entry().0);
            Observed::Accepted(body)
        } else {
            Observed::Starved(progress.senders.iter().copied().collect())
        };
        // The ring's oldest key is never the one observed (that one was in
        // neither map), so it can leave once the slot is let go.
        if let Some(oldest) = evicted {
            self.in_progress.remove(&oldest);
            self.accepted.remove(&oldest);
        }
        observed
    }

    /// Returns `true` if the message identified by `(source, digest)` has
    /// already been accepted.
    pub fn is_accepted(&self, source: VgroupId, digest: Digest) -> bool {
        self.accepted.contains(&Key { source, digest })
    }

    /// Number of messages still awaiting a majority (or a body).
    pub fn pending_len(&self) -> usize {
        self.in_progress.len()
    }

    /// Drops partially collected messages — retained bodies included — from
    /// a source vgroup (used when the source is known to have reconfigured
    /// or disappeared and stale counts could otherwise linger).
    pub fn forget_source(&mut self, source: VgroupId) {
        self.in_progress.retain(|k, _| k.source != source);
        let accepted = &self.accepted;
        self.order
            .retain(|k| k.source != source || accepted.contains(k));
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
    /// however it walks its maps.
    #[derive(Default)]
    struct Naive {
        in_progress: Vec<(Key, BTreeSet<NodeId>, Option<u64>)>,
        accepted: Vec<Key>,
        order: Vec<Key>,
    }

    impl Naive {
        const LIMIT: usize = 4;

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
                if self.order.len() >= Self::LIMIT {
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
}
