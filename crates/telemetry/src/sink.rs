//! Trace sinks: where emitted spans go.

use std::collections::VecDeque;

use crate::span::Span;

/// A bounded ring buffer of spans. When full it drops the *oldest* span and
/// counts the loss, so a long run keeps its most recent window rather than
/// aborting or growing without bound.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    capacity: usize,
    ring: VecDeque<Span>,
    recorded: u64,
    dropped: u64,
}

impl SpanRecorder {
    /// A recorder keeping at most `capacity` spans (`capacity >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span recorder capacity must be at least 1");
        SpanRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Maximum number of retained spans.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of spans currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no spans are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total spans ever recorded, including any since evicted.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained spans in record order (oldest first).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Records every span `other` retained, oldest first, and carries over
    /// the spans `other` itself evicted, so [`SpanRecorder::recorded`] and
    /// [`SpanRecorder::dropped`] count every span either ring ever saw.
    pub fn absorb(&mut self, other: SpanRecorder) {
        for span in other.ring {
            self.record(span);
        }
        self.recorded += other.dropped;
        self.dropped += other.dropped;
    }

    /// Forgets all retained spans and resets the counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.recorded = 0;
        self.dropped = 0;
    }

    /// Always `true`: a recorder wants every span.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        true
    }

    /// Accepts one span, evicting the oldest when the ring is full. Never
    /// panics: telemetry observes the run, it never aborts it.
    pub fn record(&mut self, span: Span) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
        self.recorded += 1;
    }
}

/// The concrete sink the serving spine owns.
///
/// An enum rather than a trait object, so the disabled check compiles to a
/// tag test: the serving spine calls [`TelemetrySink::is_enabled`] before
/// building a span, and the disabled path never allocates.
#[derive(Debug, Clone, Default)]
pub enum TelemetrySink {
    /// Tracing off: the allocation-free default.
    #[default]
    Noop,
    /// Tracing on: spans land in a bounded ring.
    Recorder(SpanRecorder),
}

impl TelemetrySink {
    /// The disabled sink.
    #[must_use]
    pub fn disabled() -> Self {
        TelemetrySink::Noop
    }

    /// A recording sink with the given ring capacity.
    #[must_use]
    pub fn recording(capacity: usize) -> Self {
        TelemetrySink::Recorder(SpanRecorder::new(capacity))
    }

    /// The recorder, when tracing is on.
    #[must_use]
    pub fn recorder(&self) -> Option<&SpanRecorder> {
        match self {
            TelemetrySink::Noop => None,
            TelemetrySink::Recorder(r) => Some(r),
        }
    }

    /// Whether spans are wanted at all. Emitters skip span construction
    /// entirely when this is `false`.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetrySink::Recorder(_))
    }

    /// Accepts one span; dropped when disabled.
    #[inline]
    pub fn record(&mut self, span: Span) {
        if let TelemetrySink::Recorder(r) = self {
            r.record(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Layer;
    use hams_sim::Nanos;

    fn span(n: u64) -> Span {
        Span::new(
            Layer::Request,
            "s",
            Nanos::from_nanos(n),
            Nanos::from_nanos(n + 1),
        )
    }

    #[test]
    fn recorder_evicts_oldest_when_full() {
        let mut r = SpanRecorder::new(2);
        r.record(span(1));
        r.record(span(2));
        r.record(span(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 3);
        assert_eq!(r.dropped(), 1);
        let starts: Vec<u64> = r.spans().map(|s| s.start.as_nanos()).collect();
        assert_eq!(starts, vec![2, 3]);
    }

    #[test]
    fn absorb_appends_spans_and_carries_counters() {
        let mut run = SpanRecorder::new(3);
        run.record(span(1));
        let mut platform = SpanRecorder::new(2);
        for n in 2..=5 {
            platform.record(span(n));
        }
        run.absorb(platform);
        let starts: Vec<u64> = run.spans().map(|s| s.start.as_nanos()).collect();
        assert_eq!(starts, vec![1, 4, 5]);
        assert_eq!(run.recorded(), 5);
        assert_eq!(run.dropped(), 2);
        assert_eq!(run.len() as u64 + run.dropped(), run.recorded());
    }

    #[test]
    fn telemetry_sink_default_is_noop() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_enabled());
        assert!(sink.recorder().is_none());
    }

    #[test]
    fn telemetry_sink_records_when_enabled() {
        let mut sink = TelemetrySink::recording(8);
        assert!(sink.is_enabled());
        sink.record(span(5));
        assert_eq!(sink.recorder().unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_recorder_panics() {
        let _ = SpanRecorder::new(0);
    }
}
