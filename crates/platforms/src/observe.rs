//! Run observers: what a serving loop reports besides its metrics.
//!
//! The closed loop ([`crate::run_workload`]) and the open loop
//! ([`crate::run_tenant_set_open_loop`]) are each one body, generic over an
//! [`Observer`]. `()` observes nothing: every hook is an empty default, so
//! the untraced loops compile with no telemetry code at all.
//! [`Tracer`] fills a [`RunTelemetry`] for the `_traced` entry points.
//! Observers only read instants the engine already computed, so traced and
//! untraced runs stay byte-identical (`tests/telemetry_equivalence.rs`).

use hams_sim::Nanos;
use hams_telemetry::{Layer, RunTelemetry, Span, TelemetrySink};

use crate::openloop::{OpenLoopRecord, TenantMetrics};
use crate::platform::{AccessOutcome, BatchRequest, Platform};

/// Hooks a serving loop calls at fixed points of a run.
pub(crate) trait Observer {
    /// Before the first dispatch.
    fn start(&mut self, _platform: &mut dyn Platform) {}

    /// A closed-loop access finished; its compute phase began at `ready`.
    fn access(&mut self, _ready: Nanos, _request: &BatchRequest, _outcome: &AccessOutcome) {}

    /// A closed-loop batch finished at `now`, `accesses` served so far.
    fn batch(&mut self, _platform: &dyn Platform, _now: Nanos, _accesses: u64) {}

    /// An open-loop request was served.
    fn request(&mut self, _request: &BatchRequest, _record: &OpenLoopRecord) {}

    /// An open-loop dispatch freed the server at `at`, leaving `queued`
    /// requests waiting; `ledgers` holds each tenant's counts so far.
    fn dispatch(
        &mut self,
        _platform: &dyn Platform,
        _at: Nanos,
        _queued: usize,
        _ledgers: &[TenantMetrics],
    ) {
    }

    /// After the last dispatch, before the metrics are folded.
    fn finish(&mut self, _platform: &mut dyn Platform) {}
}

/// The untraced runs.
impl Observer for () {}

/// The traced runs: request and admission spans, sampled series, and the
/// platform's own spans.
pub(crate) struct Tracer<'a> {
    telemetry: &'a mut RunTelemetry,
    /// Reused buffer for [`Platform::telemetry_gauges`].
    gauges: Vec<(&'static str, f64)>,
    /// `tenant{i}_dropped` series names, built once per tenant.
    drop_series: Vec<String>,
}

impl<'a> Tracer<'a> {
    pub(crate) fn new(telemetry: &'a mut RunTelemetry) -> Self {
        Tracer {
            telemetry,
            gauges: Vec::new(),
            drop_series: Vec::new(),
        }
    }

    /// Samples every gauge the platform exposes at simulated instant `at`.
    fn sample_gauges(&mut self, platform: &dyn Platform, at: Nanos) {
        self.gauges.clear();
        platform.telemetry_gauges(&mut self.gauges);
        for &(name, value) in &self.gauges {
            self.telemetry.registry.gauge(name, at, value);
        }
    }
}

impl Observer for Tracer<'_> {
    fn start(&mut self, platform: &mut dyn Platform) {
        let capacity = self.telemetry.recorder.capacity();
        platform.configure_trace(TelemetrySink::recording(capacity));
    }

    fn access(&mut self, ready: Nanos, request: &BatchRequest, outcome: &AccessOutcome) {
        let issued_at = ready + request.compute;
        self.telemetry.recorder.record(
            Span::new(Layer::Request, "access", issued_at, outcome.finished_at)
                .with_request(request.access.addr / 4096),
        );
    }

    fn batch(&mut self, platform: &dyn Platform, now: Nanos, accesses: u64) {
        self.telemetry
            .registry
            .counter("accesses_served", now, accesses as f64);
        self.sample_gauges(platform, now);
    }

    fn request(&mut self, request: &BatchRequest, record: &OpenLoopRecord) {
        let &OpenLoopRecord {
            tenant,
            arrival,
            started,
            finished,
        } = record;
        let page = request.access.addr / 4096;
        let span = |layer, name, from, to| {
            Span::new(layer, name, from, to)
                .with_tenant(tenant as u16)
                .with_request(page)
        };
        let recorder = &mut self.telemetry.recorder;
        recorder.record(span(Layer::Request, "sojourn", arrival, finished));
        recorder.record(span(Layer::Admission, "queue_wait", arrival, started));
    }

    fn dispatch(
        &mut self,
        platform: &dyn Platform,
        at: Nanos,
        queued: usize,
        ledgers: &[TenantMetrics],
    ) {
        while self.drop_series.len() < ledgers.len() {
            let tenant = self.drop_series.len();
            self.drop_series.push(format!("tenant{tenant}_dropped"));
        }
        let served: u64 = ledgers.iter().map(|t| t.served).sum();
        let registry = &mut self.telemetry.registry;
        registry.gauge("admission_queue_depth", at, queued as f64);
        registry.counter("requests_served", at, served as f64);
        for (name, ledger) in self.drop_series.iter().zip(ledgers) {
            registry.counter(name, at, ledger.dropped as f64);
        }
        self.sample_gauges(platform, at);
    }

    /// Absorbs the platform's own ring, eviction counters included, after
    /// the run's request spans.
    fn finish(&mut self, platform: &mut dyn Platform) {
        if let TelemetrySink::Recorder(spans) = platform.take_trace_sink() {
            self.telemetry.recorder.absorb(spans);
        }
    }
}
