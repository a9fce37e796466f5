//! Span conservation: the tracer's intervals agree with the engine.
//!
//! The open-loop engine's request and admission spans must agree
//! instant-for-instant with the per-request [`OpenLoopRecord`]s the engine
//! already pins, so a request's span durations decompose its recorded
//! sojourn exactly — on mmap, on hams-TE, and on hams-TE over a four-device
//! RAID-0 archive.

mod common;

use common::build_on;
use hams::platforms::{run_workload_open_loop_traced, OpenLoopConfig, PlatformKind, ScaleProfile};
use hams::telemetry::{Layer, RunTelemetry, Span};
use hams::workloads::WorkloadSpec;
use proptest::prelude::*;

proptest! {
    /// A traced open-loop run's spans agree with the engine's own
    /// per-request records: the i-th request span covers exactly
    /// `[arrival, finished]` (its duration IS the recorded sojourn), the
    /// i-th queue-wait span covers `[arrival, started]`, and each request
    /// span encloses its admission child.
    #[test]
    fn traced_open_loop_spans_match_the_engine_records(
        rate_per_sec in 10_000.0f64..10_000_000.0,
        platform in 0usize..3,
        seed in 0u64..200,
    ) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 300,
            seed,
        };
        let (kind, devices) = [
            (PlatformKind::Mmap, 1),
            (PlatformKind::HamsTE, 1),
            (PlatformKind::HamsTE, 4),
        ][platform];
        let spec = WorkloadSpec::by_name("update").unwrap();
        let config = OpenLoopConfig::poisson(rate_per_sec);
        let mut platform = build_on(kind, &scale, devices);
        let mut telemetry = RunTelemetry::new();
        let m = run_workload_open_loop_traced(
            platform.as_mut(),
            spec,
            &scale,
            &config,
            &mut telemetry,
        );

        let request_spans: Vec<Span> = telemetry
            .recorder
            .spans()
            .filter(|s| s.layer == Layer::Request)
            .copied()
            .collect();
        let waits: Vec<Span> = telemetry
            .recorder
            .spans()
            .filter(|s| s.layer == Layer::Admission && s.name == "queue_wait")
            .copied()
            .collect();
        prop_assert_eq!(request_spans.len() as u64, m.served);
        prop_assert_eq!(waits.len() as u64, m.served);
        prop_assert_eq!(m.records.len() as u64, m.served);

        for ((span, wait), record) in request_spans.iter().zip(&waits).zip(&m.records) {
            prop_assert_eq!(span.start, record.arrival);
            prop_assert_eq!(span.end, record.finished);
            prop_assert_eq!(span.duration(), record.sojourn());
            prop_assert_eq!(wait.start, record.arrival);
            prop_assert_eq!(wait.end, record.started);
            prop_assert!(span.encloses(wait), "admission wait escapes its request span");
        }
    }
}
