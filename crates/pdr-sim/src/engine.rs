//! The discrete-event core: a time-ordered queue with deterministic ties.
//!
//! Determinism matters: every experiment in `EXPERIMENTS.md` must reproduce
//! bit-for-bit. Events at equal times pop in insertion order (a
//! monotonically increasing sequence number breaks ties), so simulation
//! results never depend on heap internals.
//!
//! Each heap entry carries one packed `u128` key, `at << 64 | seq`. It
//! orders exactly like the tuple `(at, seq)`, at the cost of one integer
//! comparison per sift step.
//!
//! **Tie rule.** Of two events at the same time, the one scheduled first
//! pops first. Only the relative order of sequence numbers matters, never
//! their values.
//!
//! **In-place rule.** [`EventQueue::schedule_pop`] is `schedule` followed
//! by `pop`, fused. When the new event is *strictly* earlier than every
//! pending one (than [`EventQueue::peek_time`]) or the queue is empty, it
//! would pop straight back, so it is returned without touching the heap:
//! the caller's stream continues in place. At a tie with a pending event,
//! that event was scheduled first and pops first, so it takes the new
//! event's place at the heap's top in one sift. An interpreter that
//! schedules its current stream's next wake through `schedule_pop` sees
//! exactly the pops a `schedule`/`pop` pair would give it, in the same
//! order.

use pdr_fabric::TimePs;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A deterministic time-ordered event queue carrying payloads of type `T`.
///
/// Payloads travel inside the heap entries, so memory tracks the events
/// pending, not every event ever scheduled.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Event<T>>>,
    seq: u64,
    now: TimePs,
}

/// A scheduled payload, ordered by its packed `(at, seq)` key alone.
#[derive(Debug)]
struct Event<T> {
    key: u128,
    payload: T,
}

impl<T> Event<T> {
    fn at(&self) -> TimePs {
        TimePs::from_ps((self.key >> 64) as u64)
    }
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: TimePs::ZERO,
        }
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> TimePs {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality).
    pub fn schedule(&mut self, at: TimePs, payload: T) {
        let key = self.next_key(at);
        self.heap.push(Reverse(Event { key, payload }));
    }

    /// Schedule `payload` at `at`, then pop the next event: the same
    /// result as [`EventQueue::schedule`] then [`EventQueue::pop`], in one
    /// sift of the heap — or none when the new event is strictly earliest
    /// and comes straight back (the in-place rule in the module docs).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality).
    pub fn schedule_pop(&mut self, at: TimePs, payload: T) -> (TimePs, T) {
        let mut event = Event {
            key: self.next_key(at),
            payload,
        };
        if let Some(mut top) = self.heap.peek_mut() {
            if top.0.key < event.key {
                std::mem::swap(&mut top.0, &mut event);
            }
        }
        self.now = event.at();
        (self.now, event.payload)
    }

    /// The packed key of a new event at `at`, taking the next sequence
    /// number.
    fn next_key(&mut self, at: TimePs) -> u128 {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let key = (u128::from(at.as_ps()) << 64) | u128::from(self.seq);
        self.seq += 1;
        key
    }

    /// Schedule `payload` after a delay from now.
    pub fn schedule_in(&mut self, delay: TimePs, payload: T) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Pop the next event, advancing the clock. `None` when empty.
    pub fn pop(&mut self) -> Option<(TimePs, T)> {
        let Reverse(event) = self.heap.pop()?;
        self.now = event.at();
        Some((self.now, event.payload))
    }

    /// Time of the next event to pop, without popping it. `None` when
    /// empty.
    pub fn peek_time(&self) -> Option<TimePs> {
        self.heap.peek().map(|Reverse(e)| e.at())
    }

    /// Write the pending events to `out` in pop order, as `(key,
    /// payload)` with the packed `at << 64 | seq` key. `out` is cleared
    /// first and its buffer reused.
    pub(crate) fn pending_in_order(&self, out: &mut Vec<(u128, T)>)
    where
        T: Copy,
    {
        out.clear();
        out.extend(self.heap.iter().map(|Reverse(e)| (e.key, e.payload)));
        out.sort_unstable_by_key(|&(key, _)| key);
    }

    /// Move every pending event and the clock `by` later. Every key grows
    /// by the same amount, so the pop order, ties included, is unchanged.
    ///
    /// # Panics
    /// Panics if a shifted time passes `u64::MAX`; callers check first.
    pub(crate) fn shift(&mut self, by: TimePs) {
        let by_key = u128::from(by.as_ps()) << 64;
        let mut events = std::mem::take(&mut self.heap).into_vec();
        for Reverse(e) in &mut events {
            e.key = e
                .key
                .checked_add(by_key)
                .expect("shifted event time overflows");
        }
        self.heap = BinaryHeap::from(events);
        self.now += by;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_ns(30), "c");
        q.schedule(TimePs::from_ns(10), "a");
        q.schedule(TimePs::from_ns(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule(TimePs::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_us(3), ());
        assert_eq!(q.now(), TimePs::ZERO);
        q.pop();
        assert_eq!(q.now(), TimePs::from_us(3));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_us(1), "first");
        q.pop();
        q.schedule_in(TimePs::from_us(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, TimePs::from_us(3));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_us(5), ());
        q.pop();
        q.schedule(TimePs::from_us(1), ());
    }

    #[test]
    fn storage_tracks_pending_events_not_history() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_in(TimePs::from_ns(1 + i % 3), i);
            q.schedule_in(TimePs::from_ns(2), i);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(q.heap.capacity() < 16, "{}", q.heap.capacity());
    }

    #[test]
    fn packed_keys_order_like_time_then_sequence() {
        let mut q = EventQueue::new();
        // Times past 2^32 ps and sequence numbers that would collide in a
        // narrower packing must still order by time first.
        q.schedule(TimePs::from_ps(u64::MAX), "last");
        q.schedule(TimePs::from_ps(1 << 40), "b");
        q.schedule(TimePs::from_ps(1 << 40), "c");
        q.schedule(TimePs::from_ps((1 << 40) - 1), "a");
        assert_eq!(q.peek_time(), Some(TimePs::from_ps((1 << 40) - 1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c", "last"]);
        assert_eq!(q.now(), TimePs::from_ps(u64::MAX));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_pop_equals_schedule_then_pop() {
        // Two queues fed the same operations, one with the fused call and
        // one with the pair, pop identical sequences — ties included.
        let mut fused = EventQueue::new();
        let mut pair = EventQueue::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = fused.now() + TimePs::from_ps(x % 4);
            if x.is_multiple_of(5) || fused.is_empty() {
                fused.schedule(at, i);
                pair.schedule(at, i);
                continue;
            }
            let got = fused.schedule_pop(at, i);
            pair.schedule(at, i);
            assert_eq!(Some(got), pair.pop());
            assert_eq!(fused.now(), pair.now());
            assert_eq!(fused.len(), pair.len());
        }
        let rest = |q: &mut EventQueue<u32>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(rest(&mut fused), rest(&mut pair));
    }

    #[test]
    fn schedule_pop_returns_a_strictly_earliest_event_in_place() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_ns(10), "later");
        assert_eq!(
            q.schedule_pop(TimePs::from_ns(5), "now"),
            (TimePs::from_ns(5), "now")
        );
        assert_eq!(q.len(), 1);
        // A tie goes to the event scheduled first.
        assert_eq!(
            q.schedule_pop(TimePs::from_ns(10), "tie"),
            (TimePs::from_ns(10), "later")
        );
        assert_eq!(q.pop(), Some((TimePs::from_ns(10), "tie")));
    }

    #[test]
    fn shift_moves_times_and_keeps_the_pop_order() {
        let mut q = EventQueue::new();
        q.schedule(TimePs::from_ns(3), "b");
        q.schedule(TimePs::from_ns(1), "a");
        q.schedule(TimePs::from_ns(3), "c");
        q.pop();
        let mut order = Vec::new();
        q.pending_in_order(&mut order);
        assert_eq!(
            order.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            ["b", "c"]
        );
        q.shift(TimePs::from_ns(10));
        assert_eq!(q.now(), TimePs::from_ns(11));
        // A new event at the shifted time of the pending ties pops last.
        q.schedule(TimePs::from_ns(13), "d");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            rest,
            [
                (TimePs::from_ns(13), "b"),
                (TimePs::from_ns(13), "c"),
                (TimePs::from_ns(13), "d")
            ]
        );
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(TimePs::from_ns(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
