//! The engine's event queue: a monotone radix heap (Ahuja, Mehlhorn, Orlin
//! and Tarjan, JACM 1990) over 8-byte entries, keyed by simulated time
//! alone.
//!
//! # Contract
//!
//! * **Monotone.** Every pushed time is ≥ the time of the last entry popped
//!   (`last`). Simulated time never runs backwards, so the engine meets this
//!   by construction: `call_at` clamps to `now`, `add_node` pushes at `now`,
//!   and deliveries and timers add a delay to `now`. A push below `last`
//!   panics — it would be popped out of order — as does a time at or past
//!   2^40 µs (≈ 12.7 simulated days) or a slot at or past 2^24.
//! * **Earliest time first, FIFO among equal times**, with no sequence
//!   number. An entry's bucket is the highest bit where its time differs
//!   from `last`, and times equal to `last` sit in `current`. Hence:
//!   - equal times always share a bucket: the bucket is a function of the
//!     time and `last`, and moving `last` to the smallest time of the first
//!     non-empty bucket leaves every later bucket's entries where they
//!     belong (they differ from the old and the new `last` at the same
//!     highest bit);
//!   - a push appends to its bucket;
//!   - moving `last` drains the first non-empty bucket, in order, into
//!     lower buckets that are all empty, so each of them receives its
//!     entries in the order they were pushed;
//!   - `current` pops from the front.
//!
//!   So entries leave in `(time, push order)` order, exactly as a binary
//!   heap of `(time, sequence number)` would pop them.
//! * **Looking does not move `last`.** [`EventQueue::pop_until`] leaves the
//!   queue untouched when its earliest time is past the limit. Were a peek
//!   to redistribute, `last` could pass the engine's clock, and the next
//!   `call_at(now)` would land below it.
//!
//! An entry is `time << 24 | slot`: the event itself stays in the engine's
//! slab, and the queue moves 8-byte words. Every bucket has a vector of its
//! own, so room left in them adds up: a drained bucket keeps its capacity
//! for its next fill only up to 4 096 entries (32 KiB). Kept whole, the
//! buckets' room raised `sim_fanout`'s peak RSS by ≈ 1 MiB.

use std::collections::VecDeque;

/// Bits of an entry that hold the slab slot.
const SLOT_BITS: u32 = 24;
/// Bits of an entry that hold the time, in µs; the queue radixes on these.
const TIME_BITS: u32 = u64::BITS - SLOT_BITS;
/// The most entries' room a drained bucket keeps for its next fill.
const KEPT_CAPACITY: usize = 4096;

/// A monotone priority queue of `(time µs, slot)`, popped earliest time
/// first and in push order among equal times. See the module docs.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// The time of the last entry popped; no push may go below it.
    last: u64,
    /// Entries whose time is `last`, in push order.
    current: VecDeque<u64>,
    /// `buckets[b]`: entries whose time differs from `last` first at bit
    /// `b`, in push order.
    buckets: [Vec<u64>; TIME_BITS as usize],
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            last: 0,
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            len: 0,
        }
    }
}

impl EventQueue {
    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `slot` at time `at` (µs).
    ///
    /// # Panics
    ///
    /// Panics if `at` is below the last popped time, if `at` ≥ 2^40 or if
    /// `slot` ≥ 2^24.
    pub(crate) fn push(&mut self, at: u64, slot: usize) {
        assert!(
            at >= self.last,
            "event queued at {at} µs, before the last popped event at {} µs",
            self.last
        );
        assert!(at >> TIME_BITS == 0, "event time {at} µs is past 2^40 µs");
        assert!(slot >> SLOT_BITS == 0, "more than 2^24 events queued");
        let entry = at << SLOT_BITS | slot as u64;
        self.file(entry);
        self.len += 1;
    }

    /// Pops the earliest entry if its time is ≤ `limit`, as `(time, slot)`.
    /// Returns `None`, and leaves the queue as it was, when the queue is
    /// empty or its earliest time is past `limit`.
    pub(crate) fn pop_until(&mut self, limit: u64) -> Option<(u64, usize)> {
        if self.current.is_empty() {
            let b = self.buckets.iter().position(|bucket| !bucket.is_empty())?;
            let earliest = self.buckets[b].iter().map(|&e| e >> SLOT_BITS).min()?;
            if earliest > limit {
                return None;
            }
            self.last = earliest;
            let mut drained = std::mem::take(&mut self.buckets[b]);
            for entry in drained.drain(..) {
                self.file(entry);
            }
            if drained.capacity() <= KEPT_CAPACITY {
                self.buckets[b] = drained;
            }
        } else if self.last > limit {
            return None;
        }
        let entry = self.current.pop_front()?;
        self.len -= 1;
        Some((
            entry >> SLOT_BITS,
            (entry & ((1 << SLOT_BITS) - 1)) as usize,
        ))
    }

    /// Appends `entry` to the bucket its time belongs to relative to `last`.
    fn file(&mut self, entry: u64) {
        let diff = (entry >> SLOT_BITS) ^ self.last;
        if diff == 0 {
            self.current.push_back(entry);
        } else {
            self.buckets[diff.ilog2() as usize].push(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_times_pop_in_push_order_across_redistribution() {
        let mut queue = EventQueue::default();
        for (slot, at) in [9, 5, 9, 7, 5, 9].into_iter().enumerate() {
            queue.push(at, slot);
        }
        assert_eq!(queue.pop_until(4), None);
        assert_eq!(queue.pop_until(5), Some((5, 1)));
        queue.push(5, 6);
        queue.push(7, 7);
        let rest: Vec<_> = std::iter::from_fn(|| queue.pop_until(u64::MAX)).collect();
        assert_eq!(
            rest,
            [(5, 4), (5, 6), (7, 3), (7, 7), (9, 0), (9, 2), (9, 5)]
        );
        assert_eq!(queue.len(), 0);
    }

    #[test]
    #[should_panic(expected = "before the last popped event")]
    fn a_push_below_the_last_popped_time_panics() {
        let mut queue = EventQueue::default();
        queue.push(10, 0);
        queue.pop_until(10);
        queue.push(9, 1);
    }

    #[test]
    fn a_limit_below_the_head_leaves_last_where_it_was() {
        let mut queue = EventQueue::default();
        queue.push(100, 0);
        assert_eq!(queue.pop_until(50), None);
        // Had the look moved `last` to 100, this push would panic.
        queue.push(50, 1);
        assert_eq!(queue.pop_until(u64::MAX), Some((50, 1)));
        assert_eq!(queue.pop_until(u64::MAX), Some((100, 0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes (most at a few nearby times, some at exactly `last`) and
        /// `pop_until`s with limits below, at and above the head, against a
        /// list searched for its smallest `(time, push number)`.
        #[test]
        fn pops_match_a_sorted_list(
            ops in proptest::collection::vec(0u64..8 << 20, 1..300),
        ) {
            let mut queue = EventQueue::default();
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut last = 0;
            for (pushed, s) in ops.into_iter().enumerate() {
                let (op, x) = (s % 8, s / 8);
                let head = model.iter().min().map(|&(at, _)| at);
                match op {
                    // A push at `last`, near it (ties are likely), or far out.
                    0..=3 => {
                        let at = match op {
                            0 => last,
                            1 | 2 => last + x % 4,
                            _ => last + x,
                        };
                        queue.push(at, pushed);
                        model.push((at, pushed));
                    }
                    // A pop with a limit below, at or above the head.
                    _ => {
                        let limit = match (op, head) {
                            (4, Some(h)) => h.saturating_sub(1 + x % 3).max(last),
                            (5, Some(h)) => h,
                            (6, Some(h)) => h + x % 5,
                            _ => last + x,
                        };
                        let want = model
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &entry)| entry)
                            .filter(|(_, &(at, _))| at <= limit)
                            .map(|(i, _)| i)
                            .map(|i| model.remove(i));
                        prop_assert_eq!(queue.pop_until(limit), want);
                        if let Some((at, _)) = want {
                            last = at;
                        }
                    }
                }
                prop_assert_eq!(queue.len(), model.len());
            }
            model.sort_unstable();
            let rest: Vec<_> = std::iter::from_fn(|| queue.pop_until(u64::MAX)).collect();
            prop_assert_eq!(rest, model);
        }
    }
}
