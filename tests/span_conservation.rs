//! Span conservation: the tracer's intervals add up, tile, and nest.
//!
//! Two layers of defence for the telemetry tier:
//!
//! 1. **By construction** — [`component_spans`] lays a request's
//!    [`LatencyVector`] out as back-to-back child spans, so for *any*
//!    breakdown the child durations must sum exactly to the vector's total,
//!    tile contiguously in time order, and nest inside the parent interval
//!    (property-tested over random component subsets and durations).
//! 2. **Against real runs** — the open-loop engine's request and admission
//!    spans must agree instant-for-instant with the per-request
//!    [`OpenLoopRecord`]s the engine already pins, so a request's span
//!    durations decompose its recorded sojourn exactly — on mmap, on
//!    hams-TE, and on hams-TE over a four-device RAID-0 archive.

mod common;

use common::build_on;
use hams::platforms::{run_workload_open_loop_traced, OpenLoopConfig, PlatformKind, ScaleProfile};
use hams::telemetry::{component_spans, Layer, RunTelemetry, Span};
use hams::workloads::WorkloadSpec;
use hams_sim::{ComponentId, LatencyVector, Nanos};
use proptest::collection;
use proptest::prelude::*;

/// The pre-interned component ids, so random breakdowns use the same names
/// the serving spine does.
const COMPONENTS: [ComponentId; 14] = [
    ComponentId::APP,
    ComponentId::DMA,
    ComponentId::DRAM,
    ComponentId::FLASH_ARRAY,
    ComponentId::FLASH_CHANNEL,
    ComponentId::FLASH_QUEUE,
    ComponentId::FTL,
    ComponentId::HAMS,
    ComponentId::HIL,
    ComponentId::IO_STACK,
    ComponentId::MMAP,
    ComponentId::NVDIMM,
    ComponentId::OS,
    ComponentId::SSD,
];

proptest! {
    /// For any breakdown (any component subset, any durations, duplicates
    /// included) and any start instant, the emitted child spans sum to the
    /// vector's total, tile back-to-back in time order, and nest inside the
    /// parent interval `[start, start + total]`.
    #[test]
    fn component_spans_conserve_tile_and_nest(
        parts in collection::vec((0usize..COMPONENTS.len(), 0u64..10_000_000), 0..12),
        start_ns in 0u64..1_000_000_000,
    ) {
        let mut breakdown = LatencyVector::new();
        for &(component, ns) in &parts {
            breakdown.add(COMPONENTS[component], Nanos::from_nanos(ns));
        }
        let start = Nanos::from_nanos(start_ns);
        let mut spans = Vec::new();
        let end = component_spans(Layer::Controller, start, &breakdown, &mut spans);

        // Conservation: child durations sum exactly to the vector's total.
        prop_assert_eq!(end, start + breakdown.total());
        let sum: Nanos = spans.iter().map(Span::duration).sum();
        prop_assert_eq!(sum, breakdown.total());

        // Tiling and ordering: each span starts where the previous ended.
        let mut cursor = start;
        for span in &spans {
            prop_assert_eq!(span.start, cursor);
            prop_assert!(span.end >= span.start);
            cursor = span.end;
        }
        prop_assert_eq!(cursor, end);

        // Nesting: the parent interval encloses every child.
        let parent = Span::new(Layer::Request, "total", start, end);
        for span in &spans {
            prop_assert!(parent.encloses(span));
        }
    }

    /// A traced open-loop run's spans agree with the engine's own
    /// per-request records: the i-th request span covers exactly
    /// `[arrival, finished]` (its duration IS the recorded sojourn), the
    /// i-th queue-wait span covers `[enqueued, started]`, and each request
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
            prop_assert_eq!(wait.start, record.enqueued);
            prop_assert_eq!(wait.end, record.started);
            prop_assert!(span.encloses(wait), "admission wait escapes its request span");
        }
    }
}
