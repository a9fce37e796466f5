//! Simulated-time observability for the HAMS reproduction.
//!
//! Every latency in this workspace is *simulated* time ([`hams_sim::Nanos`]),
//! so the telemetry layer records simulated instants too: a span's `ts` in the
//! exported Chrome trace is the request's position on the simulation timeline,
//! not a wall-clock measurement. The crate provides three pieces:
//!
//! 1. **Span tracing** — [`Span`] describes one interval of a request's
//!    lifecycle (admission wait, controller access, tag probe, NVMe submit,
//!    MSI delivery, archive service, ...), tagged with the tenant, tag shard,
//!    queue pair and archive device it touched. [`SpanRecorder`] is a bounded
//!    ring buffer of spans, and [`TelemetrySink`] the enum the serving spine
//!    threads through: disabled by default, a single branch on the hot path
//!    when off (no allocation, no virtual dispatch), a recorder when on.
//! 2. **Metrics registry** — [`MetricsRegistry`] samples named counters and
//!    gauges into time-bucketed series during a run (admission queue depth,
//!    in-flight NVMe commands, MSI burst sizes, internal-DRAM evictions,
//!    journal writes, per-tenant drops).
//! 3. **Exporters** — [`chrome_trace_json`] renders Perfetto-loadable Chrome
//!    `trace_event` JSON; the registry dumps CSV and JSON series.
//!
//! The hard contract: telemetry is *observation only*. Sinks record
//! already-computed timestamps and never feed back into the simulation, so
//! simulated metrics are byte-identical with tracing on or off
//! (`tests/telemetry_equivalence.rs` pins this on all eleven platforms).

mod export;
mod registry;
mod sink;
mod span;

pub use export::chrome_trace_json;
pub use registry::{MetricKind, MetricSeries, MetricsRegistry, SeriesBucket};
pub use sink::{SpanRecorder, TelemetrySink};
pub use span::{Layer, Span};

use hams_sim::Nanos;

/// Default ring-buffer capacity for a [`RunTelemetry`] recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Default time-bucket width for sampled metric series (100 µs).
pub const DEFAULT_BUCKET_WIDTH: Nanos = Nanos::from_micros(100);

/// Everything one traced run collects: the request-lifecycle spans and the
/// sampled metric series. The runners (`hams-platforms`) fill one of these
/// when tracing is requested; exporters consume it afterwards.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Ring buffer of recorded spans: runner-level request spans, then the
    /// platform's own sink absorbed at the end of the run.
    pub recorder: SpanRecorder,
    /// Time-bucketed counter/gauge series sampled during the run.
    pub registry: MetricsRegistry,
}

impl RunTelemetry {
    /// A collector with the default span capacity and bucket width.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY, DEFAULT_BUCKET_WIDTH)
    }

    /// A collector with an explicit span ring capacity and series bucket
    /// width.
    #[must_use]
    pub fn with_capacity(spans: usize, bucket_width: Nanos) -> Self {
        RunTelemetry {
            recorder: SpanRecorder::new(spans),
            registry: MetricsRegistry::new(bucket_width),
        }
    }

    /// The recorded spans sorted by start time (then end time), the order
    /// exporters and summaries want. Copies; call once per run, not per span.
    #[must_use]
    pub fn spans_sorted(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self.recorder.spans().copied().collect();
        spans.sort_by_key(|s| (s.start, s.end, s.layer.index()));
        spans
    }

    /// Number of spans recorded per serving-spine layer, indexed by
    /// [`Layer::index`].
    #[must_use]
    pub fn layer_counts(&self) -> [u64; Layer::ALL.len()] {
        let mut counts = [0u64; Layer::ALL.len()];
        for span in self.recorder.spans() {
            counts[span.layer.index()] += 1;
        }
        counts
    }
}

impl Default for RunTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_telemetry_sorts_and_counts_layers() {
        let mut t = RunTelemetry::with_capacity(16, Nanos::from_micros(1));
        t.recorder.record(Span::new(
            Layer::Controller,
            "b",
            Nanos::from_nanos(50),
            Nanos::from_nanos(60),
        ));
        t.recorder.record(Span::new(
            Layer::Request,
            "a",
            Nanos::from_nanos(10),
            Nanos::from_nanos(70),
        ));
        let sorted = t.spans_sorted();
        assert_eq!(sorted[0].name, "a");
        assert_eq!(sorted[1].name, "b");
        let counts = t.layer_counts();
        assert_eq!(counts[Layer::Request.index()], 1);
        assert_eq!(counts[Layer::Controller.index()], 1);
        assert_eq!(counts[Layer::Msi.index()], 0);
    }
}
