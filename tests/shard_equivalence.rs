//! The shard-invariance contract.
//!
//! Sharding the MoS tag array is *pure routing*: each bank owns a disjoint
//! subset of the direct-mapped sets, and a set's entry, victim choice and
//! busy window are the same no matter which bank holds it. The pinned
//! contract is therefore stricter than the multi-queue one — where striped
//! fills legitimately change latencies, the shard shape must change
//! *nothing*:
//!
//! 1. `run_workload` under `ShardConfig { count: n }` is byte-identical to
//!    `ShardConfig::single()` **and** to the unsharded per-access reference
//!    `run_workload_serial`, for all 11 platforms and n ∈ {1, 2, 8} (the CI
//!    matrix re-runs this suite under `HAMS_THREADS` ∈ {1, 8} ×
//!    `HAMS_SHARDS` ∈ {1, 4}),
//! 2. the hash policy is equally neutral: `Block` partitioning matches
//!    `Interleave` byte for byte,
//! 3. the `hams-TE-s{n}` registry sweep entries produce identical rows on
//!    the parallel grid, matching their own serial reference.
//! 4. the axes compose: a random HAMS variant served batched over a random
//!    shard shape matches the unsharded serial reference, and so does every
//!    shard count served through the parallel grid.

use hams::platforms::{
    register_hams_shard_sweep, run_grid_with, run_workload, run_workload_serial,
    run_workload_serial_sharded, run_workload_sharded, shard_sweep_label, PlatformKind,
    PlatformRegistry, ScaleProfile, ShardConfig,
};
use hams::workloads::WorkloadSpec;
use proptest::prelude::*;

fn tiny() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed: 31,
    }
}

#[test]
fn sharded_serving_is_byte_identical_to_the_unsharded_reference_on_all_platforms() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndWr").unwrap();
    for kind in PlatformKind::all() {
        let mut serial = kind.build(&scale);
        let reference = run_workload_serial(serial.as_mut(), spec, &scale);
        for n in [1u16, 2, 8] {
            let mut sharded = kind.build(&scale);
            let m =
                run_workload_sharded(sharded.as_mut(), spec, &scale, ShardConfig::interleaved(n));
            assert_eq!(
                m,
                reference,
                "{}: {n} shards diverged from the unsharded serial reference",
                kind.label()
            );
        }
    }
}

#[test]
fn single_shard_config_matches_every_other_count_and_the_batched_path() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("update").unwrap();
    for kind in PlatformKind::all() {
        let mut plain = kind.build(&scale);
        let batched = run_workload(plain.as_mut(), spec, &scale);
        let mut single = kind.build(&scale);
        let s = run_workload_sharded(single.as_mut(), spec, &scale, ShardConfig::single());
        assert_eq!(
            s,
            batched,
            "{}: ShardConfig::single() must be a no-op",
            kind.label()
        );
        for n in [2u16, 8] {
            let mut sharded = kind.build(&scale);
            let m =
                run_workload_sharded(sharded.as_mut(), spec, &scale, ShardConfig::interleaved(n));
            assert_eq!(
                m,
                s,
                "{}: {n} shards diverged from ShardConfig::single()",
                kind.label()
            );
        }
    }
}

#[test]
fn hash_policy_is_metrics_neutral() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    for kind in [PlatformKind::HamsTE, PlatformKind::HamsLP] {
        let mut interleaved = kind.build(&scale);
        let mut blocked = kind.build(&scale);
        let a = run_workload_serial_sharded(
            interleaved.as_mut(),
            spec,
            &scale,
            ShardConfig::interleaved(4),
        );
        let b =
            run_workload_serial_sharded(blocked.as_mut(), spec, &scale, ShardConfig::blocked(4));
        assert_eq!(
            a,
            b,
            "{}: Block partitioning diverged from Interleave",
            kind.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized serving-shape generator: a random HAMS variant, served
    /// batched over a random shard count and hash policy, must land on the
    /// bytes of the unsharded per-access reference.
    #[test]
    fn random_shard_shapes_are_byte_invisible_on_every_hams_variant(
        shards in 1u16..9,
        blocked in any::<bool>(),
        variant in 0usize..4,
    ) {
        let scale = tiny();
        let spec = WorkloadSpec::by_name("rndRd").unwrap();
        let kind = [
            PlatformKind::HamsTE,
            PlatformKind::HamsTP,
            PlatformKind::HamsLE,
            PlatformKind::HamsLP,
        ][variant];
        let shape = if blocked {
            ShardConfig::blocked(shards)
        } else {
            ShardConfig::interleaved(shards)
        };
        let mut serial = kind.build(&scale);
        let reference = run_workload_serial(serial.as_mut(), spec, &scale);
        let mut sharded = kind.build(&scale);
        let m = run_workload_sharded(sharded.as_mut(), spec, &scale, shape);
        prop_assert_eq!(
            m,
            reference,
            "{}: {:?} diverged from the unsharded serial reference",
            kind.label(),
            shape
        );
    }
}

/// The cross-axis smoke: grid workers (`HAMS_THREADS`, ambient via the CI
/// matrix) and tag-array shards commute — every combination lands on the
/// bytes of the unsharded serial reference. The registry entries bake the
/// shard count into their constructors so the parallel grid serves all of
/// them in one sweep.
#[test]
fn grid_threads_and_shards_commute() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("update").unwrap();
    let mut reference = PlatformKind::HamsTE.build(&scale);
    let expected = run_workload_serial(reference.as_mut(), spec, &scale);

    let mut registry = PlatformRegistry::new();
    let mut labels = Vec::new();
    for shards in [1u16, 2, 4, 8] {
        let label = format!("hams-TE-s{shards}");
        registry.register(label.clone(), move |scale: &ScaleProfile| {
            let mut platform = PlatformKind::HamsTE.build(scale);
            platform.configure_shards(ShardConfig::interleaved(shards));
            platform
        });
        labels.push(label);
    }
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    for (row, label) in grid.iter().zip(&labels) {
        assert_eq!(
            row, &expected,
            "{label}: the shard shape leaked into the metrics"
        );
    }
}

#[test]
fn shard_sweep_grid_is_byte_identical_across_counts_and_to_serial() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_shard_sweep(&mut registry, &[1, 2, 8]);
    let labels: Vec<String> = [1u16, 2, 8].iter().map(|&n| shard_sweep_label(n)).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();

    // Serial reference: each sweep cell through the per-access loop. The
    // sweep entries carry their ShardConfig in the constructor, so this loop
    // *is* run_workload_serial_sharded for them.
    let serial: Vec<_> = label_refs
        .iter()
        .map(|label| {
            let mut platform = registry.build(label, &scale).unwrap();
            run_workload_serial(platform.as_mut(), spec, &scale)
        })
        .collect();

    // The parallel grid must match at every worker count (the CI matrix runs
    // this suite under HAMS_THREADS ∈ {1, 8}), and — the shard contract —
    // every row must be identical: the shape may not shift a single byte.
    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    assert_eq!(grid, serial, "shard sweep grid diverged from serial");
    for row in &grid[1..] {
        assert_eq!(
            row, &grid[0],
            "a shard count produced different metrics than s1"
        );
    }
}
