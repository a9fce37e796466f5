//! The multi-tenant serving layer's pinned contract.
//!
//! Every open-loop run is a `TenantSet` merged into one time-ordered source
//! feeding one engine; `run_workload_open_loop` is the one-tenant set of its
//! workload and arrival process. The tier checks:
//!
//! 1. **One tenant's ledger is the merged run's.** A single-tenant set's
//!    arrivals, served, dropped, sojourn histogram and first and last
//!    instants equal the merged metrics on all 11 platforms, and record
//!    retention follows `keep_records` under random configs.
//! 2. **Each ledger conserves its requests, and the merged totals are
//!    their sums.** A request is counted only on its tenant's ledger, so
//!    each tenant's `arrivals == served + dropped` is the check that no
//!    request is lost or double-counted; the merged totals are derived from
//!    the ledgers when the run ends, and the sums pin that derivation
//!    (property-tested over random rates, weights and seeds).
//! 3. **The merged stream is time-ordered.** `TenantSource` yields arrivals
//!    in non-decreasing order and exactly `accesses_or(default)` requests
//!    per tenant (property-tested).
//!
//! The all-platform pins also run each HAMS kind on a four-device RAID-0
//! archive, derived from its single-device twin (`common::build_on`). The
//! open loop's oracle against the closed loop is
//! `tests/openloop_equivalence.rs`'s degenerate pin.

mod common;

use common::build_on;
use hams::platforms::{
    run_tenant_set_open_loop, run_workload_open_loop, OpenLoopConfig, PlatformKind, ScaleProfile,
    TenantMetrics, ADMISSION_QUEUE_DEPTH,
};
use hams::workloads::{ArrivalProcess, TenantSet, TenantSource, TenantSpec, WorkloadSpec};
use proptest::prelude::*;

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

fn sum_by(tenants: &[TenantMetrics], f: fn(&TenantMetrics) -> u64) -> u64 {
    tenants.iter().map(f).sum()
}

#[test]
fn single_tenant_ledger_equals_the_merged_metrics_on_all_platforms() {
    let scale = tiny();
    // The tenant-set engine takes each tenant's own arrival process.
    let config = OpenLoopConfig::poisson(1.0);
    for (workload, arrivals) in [
        (
            "rndRd",
            ArrivalProcess::Poisson {
                rate_per_sec: 2_000_000.0,
            },
        ),
        ("update", ArrivalProcess::Saturate),
    ] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let set = TenantSet::single("solo", spec, arrivals);
        for (kind, devices) in every_platform() {
            let mut p = build_on(kind, &scale, devices);
            let label = format!("{} d{devices}", kind.label());
            let mt = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &config);
            let merged = &mt.merged;
            assert_eq!(mt.tenants.len(), 1);
            let t = &mt.tenants[0];
            assert_eq!(t.arrivals, merged.arrivals, "{label}");
            assert_eq!(t.served, merged.served, "{label}");
            assert_eq!(t.dropped, merged.dropped, "{label}");
            assert_eq!(t.sojourn, merged.sojourn, "{label}");
            assert_eq!(t.first_arrival, merged.first_arrival, "{label}");
            assert_eq!(t.last_finish, merged.last_finish, "{label}");
            assert_eq!(merged.run.workload, workload, "{label}");
            assert!((mt.fairness() - 1.0).abs() < 1e-12, "{label}");
        }
    }
}

#[test]
fn per_tenant_counters_sum_to_merged_totals_on_all_platforms() {
    const BULK: usize = ADMISSION_QUEUE_DEPTH + 400;
    let scale = tiny();
    // Three competing tenants, one of them a saturating burst deeper than
    // the queue: every tenant drops, so the conservation check covers every
    // counter.
    let set = TenantSet::new(vec![
        TenantSpec::new(
            "reader",
            WorkloadSpec::by_name("rndRd").unwrap(),
            ArrivalProcess::Poisson {
                rate_per_sec: 3_000_000.0,
            },
        ),
        TenantSpec::new(
            "writer",
            WorkloadSpec::by_name("update").unwrap(),
            ArrivalProcess::Poisson {
                rate_per_sec: 6_000_000.0,
            },
        )
        .with_weight(2.0),
        TenantSpec::new(
            "bulk",
            WorkloadSpec::by_name("seqWr").unwrap(),
            ArrivalProcess::Saturate,
        )
        .with_accesses(BULK),
    ]);
    let config = OpenLoopConfig::poisson(1.0);
    for (kind, devices) in every_platform() {
        let mut p = build_on(kind, &scale, devices);
        let label = format!("{} d{devices}", kind.label());
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &config);
        assert_eq!(
            sum_by(&m.tenants, |t| t.arrivals),
            m.merged.arrivals,
            "{label}: merged arrivals are not the sum of the tenant ledgers"
        );
        assert_eq!(sum_by(&m.tenants, |t| t.served), m.merged.served, "{label}");
        assert_eq!(
            sum_by(&m.tenants, |t| t.dropped),
            m.merged.dropped,
            "{label}"
        );
        for t in &m.tenants {
            assert!(
                t.dropped > 0,
                "{label}: tenant {} must find the queue full",
                t.name
            );
            assert_eq!(
                t.arrivals,
                t.served + t.dropped,
                "{label}: tenant {} accounting does not close",
                t.name
            );
            assert_eq!(t.sojourn.count(), t.served, "{label}");
        }
        assert_eq!(
            m.tenants[2].arrivals, BULK as u64,
            "accesses override respected"
        );
        assert_eq!(
            m.tenants[0].arrivals + m.tenants[1].arrivals,
            2 * scale.accesses as u64
        );
        assert_eq!(m.merged.run.workload, "rndRd+update+seqWr");
        let fairness = m.fairness();
        assert!(fairness > 0.0 && fairness <= 1.0 + 1e-12);
    }
}

proptest! {
    /// The merged stream is time-ordered and complete for any tenant mix:
    /// arrivals are non-decreasing and each tenant contributes exactly its
    /// request count.
    #[test]
    fn merged_stream_is_time_ordered_and_complete(
        rates in collection::vec(1_000.0f64..50_000_000.0, 1..4),
        saturate_last in any::<bool>(),
        seed in 0u64..1_000,
        default_accesses in 50usize..300,
    ) {
        let names = ["a", "b", "c", "d"];
        let mut tenants: Vec<TenantSpec> = rates
            .iter()
            .enumerate()
            .map(|(i, &rate_per_sec)| {
                TenantSpec::new(
                    names[i],
                    WorkloadSpec::by_name("rndRd").unwrap(),
                    ArrivalProcess::Poisson { rate_per_sec },
                )
            })
            .collect();
        if saturate_last {
            let last = tenants.len() - 1;
            tenants[last] = tenants[last].clone().with_accesses(default_accesses / 2);
        }
        let set = TenantSet::new(tenants);
        let scaled: Vec<WorkloadSpec> = set.tenants.iter().map(|t| t.spec).collect();
        let source = TenantSource::new(&set, &scaled, seed, default_accesses);
        let mut counts = vec![0usize; set.len()];
        let mut last_arrival = None;
        for (tenant, _access, arrival) in source {
            prop_assert!(tenant < set.len());
            if let Some(prev) = last_arrival {
                prop_assert!(arrival >= prev, "merged stream went back in time");
            }
            last_arrival = Some(arrival);
            counts[tenant] += 1;
        }
        for (i, t) in set.tenants.iter().enumerate() {
            prop_assert_eq!(counts[i], t.accesses_or(default_accesses));
        }
    }

    /// Conservation under random rates and weights: every tenant's
    /// accounting closes and the per-tenant counters sum exactly to the
    /// merged totals.
    #[test]
    fn tenant_accounting_closes_under_random_configs(
        rate_a in 10_000.0f64..20_000_000.0,
        rate_b in 10_000.0f64..20_000_000.0,
        weight_b in 0.5f64..4.0,
        hams in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 250,
            seed,
        };
        let set = TenantSet::new(vec![
            TenantSpec::new(
                "a",
                WorkloadSpec::by_name("rndRd").unwrap(),
                ArrivalProcess::Poisson { rate_per_sec: rate_a },
            ),
            TenantSpec::new(
                "b",
                WorkloadSpec::by_name("update").unwrap(),
                ArrivalProcess::Poisson { rate_per_sec: rate_b },
            )
            .with_weight(weight_b),
        ]);
        let kind = if hams { PlatformKind::HamsTE } else { PlatformKind::Oracle };
        let config = OpenLoopConfig::poisson(1.0);
        let mut p = kind.build(&scale);
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &config);
        prop_assert_eq!(m.merged.arrivals, 2 * scale.accesses as u64);
        prop_assert_eq!(m.merged.arrivals, m.merged.served + m.merged.dropped);
        prop_assert_eq!(sum_by(&m.tenants, |t| t.arrivals), m.merged.arrivals);
        prop_assert_eq!(sum_by(&m.tenants, |t| t.served), m.merged.served);
        prop_assert_eq!(sum_by(&m.tenants, |t| t.dropped), m.merged.dropped);
        for t in &m.tenants {
            prop_assert_eq!(t.arrivals, t.served + t.dropped);
            prop_assert_eq!(t.sojourn.count(), t.served);
        }
        // Records carry valid tenant ids and per-tenant record counts match
        // the served counters.
        for (i, t) in m.tenants.iter().enumerate() {
            let recorded = m.merged.records.iter().filter(|r| r.tenant == i).count() as u64;
            prop_assert_eq!(recorded, t.served);
        }
        let fairness = m.fairness();
        prop_assert!(fairness > 0.0 && fairness <= 1.0 + 1e-12);
    }

    /// Record retention follows `keep_records` for any arrival rate: every
    /// served request is recorded when on, none when off.
    #[test]
    fn single_tenant_record_retention_holds_under_random_configs(
        rate_per_sec in 10_000.0f64..50_000_000.0,
        keep in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 250,
            seed,
        };
        let config = OpenLoopConfig::poisson(rate_per_sec).with_records(keep);
        let spec = WorkloadSpec::by_name("update").unwrap();
        let mut p = PlatformKind::HamsTE.build(&scale);
        let m = run_workload_open_loop(p.as_mut(), spec, &scale, &config);
        let kept = if keep { m.served } else { 0 };
        prop_assert_eq!(m.records.len() as u64, kept);
        prop_assert_eq!(m.sojourn.count(), m.served);
    }
}
