//! A time-ordered source of completion events.
//!
//! The flash firmware model and the HAMS NVMe engine complete work
//! out-of-order with respect to submission (the paper leans on this in its
//! eviction-hazard discussion, §V-B). [`CompletionSource`] keeps pending
//! completions ordered by simulated time with FIFO tie-breaking so that
//! components can pop "the next thing that finishes" deterministically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// An event scheduled to fire at a given simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub at: Nanos,
    /// Monotonic sequence number used to keep FIFO order among equal times.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T: Eq> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the BinaryHeap (a max-heap) pops the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T: Eq> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered source of completion events feeding an interrupt model.
///
/// Device models (the HAMS NVMe engine) schedule a completion when they
/// accept work; the consumer pops everything due at the current simulated
/// time in firing order. Multi-queue completion streams therefore retire in
/// one deterministic global order (time, then schedule order) rather than
/// per-queue or hash-map order.
///
/// # Example
///
/// ```
/// use hams_sim::{CompletionSource, Nanos};
///
/// let mut source = CompletionSource::new();
/// source.schedule(Nanos::from_micros(5), "fill-a");
/// source.schedule(Nanos::from_micros(2), "fill-b");
/// assert_eq!(source.pop_due(Nanos::from_micros(3)).unwrap().payload, "fill-b");
/// assert!(source.pop_due(Nanos::from_micros(3)).is_none());
/// assert_eq!(source.pop_due(Nanos::from_micros(5)).unwrap().payload, "fill-a");
/// assert!(source.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CompletionSource<T: Eq> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
}

impl<T: Eq> Default for CompletionSource<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq> CompletionSource<T> {
    /// Creates an empty source.
    #[must_use]
    pub fn new() -> Self {
        CompletionSource {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules a completion to fire at `at`. Returns the event's sequence
    /// number, which no other event of this source ever carries (clearing
    /// the source does not restart the numbering), so a consumer can tell
    /// a popped event from a later one that reuses its payload.
    pub fn schedule(&mut self, at: Nanos, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        seq
    }

    /// Removes and returns the earliest completion if it fires at or before
    /// `now`, with FIFO tie-breaking among equal times. Callers drain by
    /// looping until `None`; the first call costs one heap peek when
    /// nothing is due.
    pub fn pop_due(&mut self, now: Nanos) -> Option<ScheduledEvent<T>> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Returns `true` if no completion is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending completions (a power failure kills in-flight work;
    /// the journal-tag scan, not the completion stream, drives recovery).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every completion due at `now`, in firing order.
    fn drain<T: Eq>(source: &mut CompletionSource<T>, now: Nanos) -> Vec<T> {
        std::iter::from_fn(|| source.pop_due(now))
            .map(|e| e.payload)
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = CompletionSource::new();
        s.schedule(Nanos::from_nanos(5), 5u32);
        s.schedule(Nanos::from_nanos(1), 1u32);
        s.schedule(Nanos::from_nanos(3), 3u32);
        assert_eq!(drain(&mut s, Nanos::MAX), vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut s = CompletionSource::new();
        for i in 0..10u32 {
            s.schedule(Nanos::from_nanos(42), i);
        }
        assert_eq!(
            drain(&mut s, Nanos::from_nanos(42)),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pop_due_respects_now() {
        let mut s = CompletionSource::new();
        s.schedule(Nanos::from_nanos(10), "a");
        s.schedule(Nanos::from_nanos(20), "b");
        assert!(s.pop_due(Nanos::from_nanos(5)).is_none());
        assert_eq!(s.pop_due(Nanos::from_nanos(10)).unwrap().payload, "a");
        assert!(s.pop_due(Nanos::from_nanos(19)).is_none());
        assert!(!s.is_empty());
    }

    #[test]
    fn clear_empties_without_restarting_the_sequence() {
        let mut s = CompletionSource::new();
        assert!(s.is_empty());
        assert_eq!(s.schedule(Nanos::ZERO, 1u8), 0);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert!(s.pop_due(Nanos::MAX).is_none());
        assert_eq!(s.schedule(Nanos::ZERO, 1u8), 1);
    }
}
