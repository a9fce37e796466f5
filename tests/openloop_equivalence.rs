//! The open-loop engine's pinned contract.
//!
//! The open-loop driver (`run_workload_open_loop`) feeds the same
//! `serve_batch_into` hot path as closed-loop replay, so it must degenerate
//! to it exactly:
//!
//! 1. **Rate → ∞ through the production queue is the serial schedule, byte
//!    for byte.** Under `ArrivalProcess::Saturate` every request arrives at
//!    t = 0; while none is dropped, every dispatch instant equals the
//!    previous finish — exactly what `run_workload_serial` does, which
//!    batching does not change — so [`RunMetrics`] must be identical on all
//!    11 platforms.
//! 2. **Accounting closes.** `arrivals = served + dropped` always, a burst
//!    past the queue's depth drops exactly its excess, and per-record
//!    timestamps are ordered with the sojourn decomposing into wait +
//!    service (property-tested over random rates and seeds).
//! 3. **The knee finder is prefix-monotone.** The fig24 knee is the end of
//!    the leading sustained prefix, so truncating a sweep can never move the
//!    knee to a higher offered load (property-tested on synthetic curves).
//!
//! The all-platform pins also run each HAMS kind on a four-device RAID-0
//! archive, derived from its single-device twin (`common::build_on`).

mod common;

use common::build_on;
use hams::platforms::{
    run_workload_open_loop, run_workload_serial, OpenLoopConfig, PlatformKind, ScaleProfile,
    ADMISSION_QUEUE_DEPTH,
};
use hams::workloads::{ArrivalProcess, WorkloadSpec};
use hams_bench::{fig24_knee, fig24_knees, OpenLoopRow};
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

/// Every request arrives at t = 0, through the production queue.
fn saturate() -> OpenLoopConfig {
    OpenLoopConfig {
        arrivals: ArrivalProcess::Saturate,
        ..OpenLoopConfig::poisson(1.0)
    }
}

#[test]
fn degenerate_open_loop_is_byte_identical_to_serial_on_all_platforms() {
    let scale = tiny();
    for workload in ["rndRd", "update"] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        for (kind, devices) in every_platform() {
            let mut serial = build_on(kind, &scale, devices);
            let mut open = build_on(kind, &scale, devices);
            let reference = run_workload_serial(serial.as_mut(), spec, &scale);
            let ol = run_workload_open_loop(open.as_mut(), spec, &scale, &saturate());
            assert_eq!(
                ol.run,
                reference,
                "{} d{devices} on {workload}: degenerate open-loop diverged from \
                 run_workload_serial",
                kind.label()
            );
            assert_eq!(ol.served, scale.accesses as u64);
            assert_eq!(ol.dropped, 0);
            assert_eq!(ol.arrivals, ol.served);
        }
    }
}

#[test]
fn drop_policy_accounting_closes_on_every_platform() {
    // A saturating burst 200 requests deeper than the queue: the first
    // catch-up admits ADMISSION_QUEUE_DEPTH of them and drops the rest.
    let scale = ScaleProfile {
        accesses: ADMISSION_QUEUE_DEPTH + 200,
        ..tiny()
    };
    let spec = WorkloadSpec::by_name("update").unwrap();
    for (kind, devices) in every_platform() {
        let mut p = build_on(kind, &scale, devices);
        let m = run_workload_open_loop(p.as_mut(), spec, &scale, &saturate());
        assert_eq!(
            m.arrivals,
            scale.accesses as u64,
            "{} d{devices}: every trace entry must arrive",
            kind.label()
        );
        assert_eq!(
            m.arrivals,
            m.served + m.dropped,
            "{} d{devices}: arrivals must split exactly into served + dropped",
            kind.label()
        );
        assert_eq!(
            m.dropped,
            200,
            "{} d{devices}: a saturated full queue must drop the burst's excess",
            kind.label()
        );
        assert_eq!(m.served, m.records.len() as u64);
        assert_eq!(m.sojourn.count(), m.served);
    }
}

proptest! {
    /// For any arrival rate, every served request's timestamps are ordered
    /// arrival ≤ started ≤ finished, so the sojourn bounds both of its
    /// components — and the arrival accounting closes.
    #[test]
    fn sojourn_dominates_wait_and_service_under_random_configs(
        rate_per_sec in 1_000.0f64..100_000_000.0,
        hams in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 300,
            seed,
        };
        let kind = if hams { PlatformKind::HamsTE } else { PlatformKind::Oracle };
        let config = OpenLoopConfig::poisson(rate_per_sec);
        let mut p = kind.build(&scale);
        let m = run_workload_open_loop(p.as_mut(), spec_update(), &scale, &config);
        prop_assert_eq!(m.arrivals, scale.accesses as u64);
        prop_assert_eq!(m.arrivals, m.served + m.dropped);
        for r in &m.records {
            prop_assert!(r.arrival <= r.started);
            prop_assert!(r.started <= r.finished);
            prop_assert!(r.sojourn() >= r.service());
            prop_assert!(r.sojourn() >= r.queue_wait());
            prop_assert_eq!(r.sojourn(), r.queue_wait() + r.service());
        }
    }

    /// Truncating a rising sweep never moves the knee to a higher offered
    /// load: for every prefix, `fig24_knee(prefix) <= fig24_knee(full)`,
    /// and the knee is exactly the end of the leading sustained prefix.
    #[test]
    fn knee_finder_is_prefix_monotone(flags in collection::vec(any::<bool>(), 0..24)) {
        let rows: Vec<OpenLoopRow> = flags
            .iter()
            .enumerate()
            .map(|(i, &sustainable)| synthetic_row("a", i, sustainable))
            .collect();
        let expected = flags
            .iter()
            .take_while(|&&s| s)
            .count()
            .checked_sub(1);
        prop_assert_eq!(fig24_knee(&rows), expected);
        let full = fig24_knee(&rows);
        for cut in 0..=rows.len() {
            let prefix = fig24_knee(&rows[..cut]);
            prop_assert!(
                prefix.unwrap_or(0) <= full.unwrap_or(0) || full.is_none(),
                "prefix of {cut} rows moved the knee from {full:?} to {prefix:?}"
            );
            if full.is_none() {
                prop_assert_eq!(prefix, None);
            }
        }
        // The grouped summary agrees with the per-platform finder.
        let knees = fig24_knees(&rows);
        if rows.is_empty() {
            prop_assert!(knees.is_empty());
        } else {
            prop_assert_eq!(knees.len(), 1);
            let got = knees[0].1.as_ref().map(|r| r.offered_frac);
            let want = expected.map(|i| rows[i].offered_frac);
            prop_assert_eq!(got, want);
        }
    }
}

fn spec_update() -> WorkloadSpec {
    WorkloadSpec::by_name("update").unwrap()
}

fn synthetic_row(platform: &str, index: usize, sustainable: bool) -> OpenLoopRow {
    let offered_frac = 0.25 * (index + 1) as f64;
    OpenLoopRow {
        platform: platform.to_owned(),
        workload: "rndRd".to_owned(),
        offered_frac,
        offered_per_sec: offered_frac * 1e6,
        achieved_per_sec: if sustainable { offered_frac * 1e6 } else { 8e5 },
        dropped: u64::from(!sustainable) * 50,
        arrivals: 1_000,
        mean_us: 1.2,
        p50_us: 1.0,
        p99_us: 2.0,
        p999_us: 3.0,
        sustainable,
    }
}
