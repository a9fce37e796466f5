//! The telemetry tier: tracing is observation, never perturbation.
//!
//! The span tracer and metrics registry ride along the serving spine
//! recording timestamps the engines already computed, so a traced run must
//! produce **byte-identical** simulated metrics to the untraced run on every
//! platform — closed loop and open loop, single- and multi-tenant. A tracer
//! that shifted a single dispatch instant would silently invalidate every
//! figure regenerated with it attached.
//!
//! On top of the equivalence pin, the tier checks the traces are worth
//! collecting: every served request yields a request-layer span, hardware
//! platforms surface their controller/tag-array/NVMe/MSI/archive crossings,
//! and the open-loop engine tags admission spans per tenant. Each pin also
//! runs the HAMS kinds on a four-device RAID-0 archive, derived from their
//! single-device twins (`common::build_on`).

mod common;

use common::build_on;
use hams::platforms::{
    run_tenant_set_open_loop, run_tenant_set_open_loop_traced, run_workload,
    run_workload_open_loop, run_workload_open_loop_traced, run_workload_traced, OpenLoopConfig,
    PlatformKind, ScaleProfile,
};
use hams::telemetry::{Layer, RunTelemetry, DEFAULT_BUCKET_WIDTH};
use hams::workloads::{ArrivalProcess, TenantSet, TenantSpec, WorkloadSpec};

fn tiny() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed: 23,
    }
}

/// Every platform of `PlatformKind::all` on one archive device, then the
/// four HAMS kinds again on four.
fn every_platform() -> impl Iterator<Item = (PlatformKind, u16)> {
    let raid = PlatformKind::hams_set().into_iter().map(|kind| (kind, 4));
    PlatformKind::all()
        .into_iter()
        .map(|kind| (kind, 1))
        .chain(raid)
}

fn count(telemetry: &RunTelemetry, layer: Layer) -> u64 {
    telemetry.layer_counts()[layer.index()]
}

#[test]
fn traced_closed_loop_is_byte_identical_on_all_platforms() {
    let scale = tiny();
    for workload in ["rndRd", "update"] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        for (kind, devices) in every_platform() {
            let mut plain = build_on(kind, &scale, devices);
            let reference = run_workload(plain.as_mut(), spec, &scale);

            let mut traced = build_on(kind, &scale, devices);
            let mut telemetry = RunTelemetry::new();
            let metrics = run_workload_traced(traced.as_mut(), spec, &scale, &mut telemetry);
            assert_eq!(
                metrics,
                reference,
                "{} d{devices} on {workload}: tracing changed the closed-loop metrics",
                kind.label()
            );
            assert_eq!(
                count(&telemetry, Layer::Request),
                scale.accesses as u64,
                "{} d{devices} on {workload}: every access must yield a request span",
                kind.label()
            );
        }
    }
}

#[test]
fn traced_open_loop_is_byte_identical_on_all_platforms() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    // A finite Poisson rate (queueing) and the saturated serial schedule
    // (every request at t = 0) both stay pinned.
    let configs = [
        OpenLoopConfig::poisson(2.0e5),
        OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            ..OpenLoopConfig::poisson(1.0)
        },
    ];
    for config in &configs {
        for (kind, devices) in every_platform() {
            let mut plain = build_on(kind, &scale, devices);
            let reference = run_workload_open_loop(plain.as_mut(), spec, &scale, config);

            let mut traced = build_on(kind, &scale, devices);
            let mut telemetry = RunTelemetry::new();
            let metrics = run_workload_open_loop_traced(
                traced.as_mut(),
                spec,
                &scale,
                config,
                &mut telemetry,
            );
            assert_eq!(
                metrics,
                reference,
                "{} d{devices}: tracing changed the open-loop metrics",
                kind.label()
            );
            assert_eq!(
                count(&telemetry, Layer::Request),
                metrics.served,
                "{}: every served request must yield a sojourn span",
                kind.label()
            );
            assert!(
                count(&telemetry, Layer::Admission) >= metrics.served,
                "{}: every served request crosses the admission layer",
                kind.label()
            );
            assert!(
                telemetry.registry.get("requests_served").is_some(),
                "{}: the registry must sample the served counter",
                kind.label()
            );
        }
    }
}

#[test]
fn traced_runs_cover_the_hardware_layers_on_hams_platforms() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let hams_kinds = PlatformKind::hams_set().into_iter();
    for (kind, devices) in hams_kinds.flat_map(|kind| [(kind, 1), (kind, 4)]) {
        let mut platform = build_on(kind, &scale, devices);
        let mut telemetry = RunTelemetry::new();
        run_workload_traced(platform.as_mut(), spec, &scale, &mut telemetry);
        for layer in [Layer::Controller, Layer::TagArray] {
            assert!(
                count(&telemetry, layer) > 0,
                "{}: no {} spans from a hardware-automated platform",
                kind.label(),
                layer.name()
            );
        }
        // The tiny cache cannot hold rndRd's working set, so misses must
        // reach the archive over NVMe.
        for layer in [Layer::Nvme, Layer::Archive] {
            assert!(
                count(&telemetry, layer) > 0,
                "{}: rndRd misses must cross the {} layer",
                kind.label(),
                layer.name()
            );
        }

        // A ring too small for the run still counts every span, the ones
        // the platform's own ring evicted included.
        assert_eq!(telemetry.recorder.dropped(), 0, "{}", kind.label());
        let mut platform = build_on(kind, &scale, devices);
        let mut small = RunTelemetry::with_capacity(scale.accesses, DEFAULT_BUCKET_WIDTH);
        run_workload_traced(platform.as_mut(), spec, &scale, &mut small);
        let small = &small.recorder;
        assert_eq!(small.len() as u64 + small.dropped(), small.recorded());
        assert_eq!(
            small.recorded(),
            telemetry.recorder.recorded(),
            "{}: a bounded ring lost count of the platform's evicted spans",
            kind.label()
        );
    }
}

#[test]
fn traced_tenant_set_is_byte_identical_and_tags_tenants() {
    let scale = tiny();
    let victim = WorkloadSpec::by_name("rndRd").unwrap();
    let antagonist = WorkloadSpec::by_name("update").unwrap();
    let set = TenantSet::new(vec![
        TenantSpec::new(
            "victim",
            victim,
            ArrivalProcess::Poisson {
                rate_per_sec: 1.5e5,
            },
        ),
        TenantSpec::new(
            "antagonist",
            antagonist,
            ArrivalProcess::Poisson {
                rate_per_sec: 3.0e5,
            },
        ),
    ]);
    let config = OpenLoopConfig::poisson(1.0);
    for (kind, devices) in [
        (PlatformKind::Mmap, 1),
        (PlatformKind::HamsTE, 1),
        (PlatformKind::HamsTE, 4),
    ] {
        let mut plain = build_on(kind, &scale, devices);
        let reference = run_tenant_set_open_loop(plain.as_mut(), &set, &scale, &config);

        let mut traced = build_on(kind, &scale, devices);
        let mut telemetry = RunTelemetry::new();
        let metrics =
            run_tenant_set_open_loop_traced(traced.as_mut(), &set, &scale, &config, &mut telemetry);
        assert_eq!(
            metrics,
            reference,
            "{}: tracing changed the multi-tenant metrics",
            kind.label()
        );
        let tenants: std::collections::BTreeSet<u16> = telemetry
            .recorder
            .spans()
            .filter(|s| s.layer == Layer::Request)
            .filter_map(|s| s.tenant)
            .collect();
        assert_eq!(
            tenants.len(),
            2,
            "{}: request spans must carry both tenant tags, got {tenants:?}",
            kind.label()
        );
        for tenant in 0..2 {
            assert!(
                telemetry
                    .registry
                    .get(&format!("tenant{tenant}_dropped"))
                    .is_some(),
                "{}: per-tenant drop counters must be sampled",
                kind.label()
            );
        }
    }
}
