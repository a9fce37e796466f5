//! An ordered future-event list.
//!
//! The flash firmware model and the HAMS NVMe engine complete work
//! out-of-order with respect to submission (the paper leans on this in its
//! eviction-hazard discussion, §V-B). [`EventQueue`] keeps pending completions
//! ordered by simulated time with FIFO tie-breaking so that components can pop
//! "the next thing that finishes" deterministically.

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

/// A time-ordered queue of future events with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use hams_sim::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_nanos(30), "late");
/// q.schedule(Nanos::from_nanos(10), "early");
/// q.schedule(Nanos::from_nanos(10), "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T: Eq> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
}

impl<T: Eq> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq> EventQueue<T> {
    /// Creates an empty event queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at time `at`. Returns the sequence number
    /// assigned to the event.
    pub fn schedule(&mut self, at: Nanos, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        seq
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Nanos) -> Option<ScheduledEvent<T>> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains every pending event in firing order.
    pub fn drain_ordered(&mut self) -> Vec<ScheduledEvent<T>> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.heap.pop() {
            out.push(e);
        }
        out
    }

    /// Removes all pending events without returning them.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A time-ordered source of completion events feeding an interrupt model.
///
/// Device models (the flash firmware, the HAMS NVMe engine) schedule a
/// completion when they accept work; the consumer drains everything due at
/// the current simulated time in firing order. This is a thin, purpose-named
/// wrapper over [`EventQueue`] that exists so multi-queue completion streams
/// retire in one deterministic global order (time, then schedule order)
/// rather than per-queue or hash-map order.
///
/// # Example
///
/// ```
/// use hams_sim::{CompletionSource, Nanos};
///
/// let mut source = CompletionSource::new();
/// source.schedule(Nanos::from_micros(5), "fill-a");
/// source.schedule(Nanos::from_micros(2), "fill-b");
/// let due = source.drain_due(Nanos::from_micros(3));
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].payload, "fill-b");
/// assert_eq!(source.next_at(), Some(Nanos::from_micros(5)));
/// ```
#[derive(Debug, Clone)]
pub struct CompletionSource<T: Eq> {
    events: EventQueue<T>,
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
            events: EventQueue::new(),
        }
    }

    /// Schedules a completion to fire at `at`. Returns the event's sequence
    /// number, which no other event of this source ever carries (clearing
    /// the source does not restart the numbering), so a consumer can tell
    /// a popped event from a later one that reuses its payload.
    pub fn schedule(&mut self, at: Nanos, payload: T) -> u64 {
        self.events.schedule(at, payload)
    }

    /// Removes and returns every completion due at or before `now`, in
    /// firing order with FIFO tie-breaking.
    pub fn drain_due(&mut self, now: Nanos) -> Vec<ScheduledEvent<T>> {
        let mut due = Vec::new();
        while let Some(e) = self.events.pop_due(now) {
            due.push(e);
        }
        due
    }

    /// Removes and returns the earliest completion if it fires at or before
    /// `now` — the allocation-free way to drain: callers loop until `None`
    /// instead of collecting a [`Self::drain_due`] vector. The first call
    /// costs one heap peek when nothing is due.
    pub fn pop_due(&mut self, now: Nanos) -> Option<ScheduledEvent<T>> {
        self.events.pop_due(now)
    }

    /// The firing time of the earliest pending completion.
    #[must_use]
    pub fn next_at(&self) -> Option<Nanos> {
        self.events.peek_time()
    }

    /// Number of pending completions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no completion is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all pending completions (a power failure kills in-flight work;
    /// the journal-tag scan, not the completion stream, drives recovery).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(5), 5u32);
        q.schedule(Nanos::from_nanos(1), 1u32);
        q.schedule(Nanos::from_nanos(3), 3u32);
        let order: Vec<u32> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(Nanos::from_nanos(42), i);
        }
        let order: Vec<u32> = q.drain_ordered().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), "a");
        q.schedule(Nanos::from_nanos(20), "b");
        assert!(q.pop_due(Nanos::from_nanos(5)).is_none());
        assert_eq!(q.pop_due(Nanos::from_nanos(10)).unwrap().payload, "a");
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(20)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn completion_source_drains_in_order_and_tracks_pending() {
        let mut s = CompletionSource::new();
        assert!(s.is_empty());
        s.schedule(Nanos::from_nanos(30), 3u32);
        s.schedule(Nanos::from_nanos(10), 1u32);
        s.schedule(Nanos::from_nanos(10), 2u32);
        assert_eq!(s.len(), 3);
        let due: Vec<u32> = s
            .drain_due(Nanos::from_nanos(10))
            .into_iter()
            .map(|e| e.payload)
            .collect();
        assert_eq!(due, vec![1, 2], "equal times must stay FIFO");
        assert_eq!(s.next_at(), Some(Nanos::from_nanos(30)));
        s.clear();
        assert!(s.drain_due(Nanos::MAX).is_empty());
    }

    #[test]
    fn clear_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::ZERO, 1u8);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
