//! The discrete-event core: a time-ordered queue with deterministic ties.
//!
//! Determinism matters: every experiment in `EXPERIMENTS.md` must reproduce
//! bit-for-bit. Events at equal times pop in insertion order (a
//! monotonically increasing sequence number breaks ties), so simulation
//! results never depend on heap internals.

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

/// A scheduled payload, ordered by `(at, seq)` alone.
#[derive(Debug)]
struct Event<T> {
    at: TimePs,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
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
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { at, seq, payload }));
    }

    /// Schedule `payload` after a delay from now.
    pub fn schedule_in(&mut self, delay: TimePs, payload: T) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Pop the next event, advancing the clock. `None` when empty.
    pub fn pop(&mut self) -> Option<(TimePs, T)> {
        let Reverse(Event { at, payload, .. }) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
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
