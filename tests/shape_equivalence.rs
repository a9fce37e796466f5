//! The shape contract.
//!
//! A HAMS platform's NVMe queue pairs, tag-directory banks and archive
//! backend are fixed when it is built: `HamsConfig` carries the shape and
//! `HamsPlatform::from_config` lays it out once. Every shape must then serve
//! batched (`run_workload`) byte-identically to its per-access reference
//! (`run_workload_serial`) on all four HAMS variants, at every thread count
//! (the CI matrix runs this suite under `HAMS_THREADS` ∈ {1, 8} ×
//! `HAMS_SHARDS` ∈ {1, 4} × `HAMS_DEVICES` ∈ {1, 4}; the shapes a row does
//! not replace follow those defaults). Beyond that, each axis has its own
//! contract:
//!
//! 1. **Queues** legitimately change timing: striped fills overlap on the
//!    device, so more queue pairs strictly beat one on random reads.
//! 2. **Shards** only label the directory's sets: every bank count and
//!    hash policy is byte-identical to the one-bank directory.
//! 3. **Backends** partition work without changing it: a one-device RAID-0
//!    is the single archive byte for byte, per-device traffic of a wider
//!    array sums to the single-device totals, and the CXL attach routes
//!    identically but pays the slower link.

use hams::core::{AttachMode, PersistMode};
use hams::platforms::{
    build_cxl_platform, build_raid_sweep_platform, cxl_label, queue_sweep_label, raid_sweep_label,
    register_hams_queue_sweep, register_hams_raid_sweep, register_hams_shard_sweep, run_grid_with,
    run_workload, run_workload_serial, shard_sweep_label, BackendTopology, HamsPlatform, Platform,
    PlatformKind, PlatformRegistry, QueueConfig, ScaleProfile, ShardConfig,
};
use hams::workloads::WorkloadSpec;
use proptest::prelude::*;
use Shape::{Backend, Queues, Shards};
use Twin::{Built, Own, Registry};

/// The scale of the shape rows, with the seed of the axis they check: 23
/// for queues, 31 for shards, 37 for backends.
fn tiny(seed: u64) -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed,
    }
}

/// The four HAMS variants of the standard registry.
const VARIANTS: [(AttachMode, PersistMode); 4] = [
    (AttachMode::Loose, PersistMode::Persist),
    (AttachMode::Loose, PersistMode::Extend),
    (AttachMode::Tight, PersistMode::Persist),
    (AttachMode::Tight, PersistMode::Extend),
];

/// One field of a `HamsConfig`.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Queues(QueueConfig),
    Shards(ShardConfig),
    Backend(BackendTopology),
}

/// The registry's scaled HAMS variant, built with `shape` in place of its
/// default for that one field.
fn hams_with(
    variant: (AttachMode, PersistMode),
    scale: &ScaleProfile,
    shape: Shape,
) -> HamsPlatform {
    let (attach, persist) = variant;
    let config = *HamsPlatform::scaled(attach, persist, scale.cache_bytes())
        .controller()
        .config();
    HamsPlatform::from_config(match shape {
        Queues(queues) => config.with_queues(queues),
        Shards(shards) => config.with_shards(shards),
        Backend(backend) => config.with_backend(backend),
    })
}

/// What a shape must reproduce besides its own per-access reference.
#[derive(Debug, Clone, Copy)]
enum Twin {
    /// Nothing more: the shape legitimately changes timing.
    Own,
    /// The per-access reference of the registry's unmodified variant.
    Registry,
    /// The per-access reference of the variant built with another shape.
    Built(Shape),
}

/// One row of the shape contract: on all four HAMS variants, `shape` served
/// batched must equal its per-access reference at `tiny(seed)` on every
/// workload, and that reference must equal `twin`'s.
fn check_shape(shape: Shape, seed: u64, workloads: &[&str], twin: Twin) {
    let scale = tiny(seed);
    for workload in workloads {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        for variant in VARIANTS {
            let mut serial = hams_with(variant, &scale, shape);
            let reference = run_workload_serial(&mut serial, spec, &scale);
            let mut batched = hams_with(variant, &scale, shape);
            let name = batched.name().to_owned();
            assert_eq!(
                run_workload(&mut batched, spec, &scale),
                reference,
                "{name} on {workload}: {shape:?} served batched diverged from its \
                 per-access reference"
            );
            let (attach, persist) = variant;
            let mut other = match twin {
                Own => continue,
                Registry => HamsPlatform::scaled(attach, persist, scale.cache_bytes()),
                Built(other) => hams_with(variant, &scale, other),
            };
            assert_eq!(
                run_workload_serial(&mut other, spec, &scale),
                reference,
                "{name} on {workload}: {shape:?} diverged from its twin {twin:?}"
            );
        }
    }
}

#[test]
fn batched_mq_serving_equals_the_serial_mq_reference() {
    let striped = Queues(QueueConfig::striped(4));
    check_shape(striped, 23, &["rndRd", "update"], Own);
}

#[test]
fn single_queue_config_matches_the_serial_reference() {
    check_shape(Queues(QueueConfig::single()), 23, &["rndWr"], Own);
}

// The shard shape is pure routing, so every count matches the registry's
// default directory and the hash policy is neutral.
#[test]
fn sharded_serving_is_byte_identical_to_the_unsharded_reference() {
    for n in [1u16, 2, 8] {
        let sharded = Shards(ShardConfig::interleaved(n));
        check_shape(sharded, 31, &["rndWr"], Registry);
    }
}

#[test]
fn single_shard_config_matches_every_other_count_and_the_batched_path() {
    for n in [1u16, 2, 8] {
        let sharded = Shards(ShardConfig::interleaved(n));
        check_shape(sharded, 31, &["update"], Registry);
    }
}

#[test]
fn hash_policy_is_metrics_neutral() {
    let interleaved = Built(Shards(ShardConfig::interleaved(4)));
    check_shape(Shards(ShardConfig::blocked(4)), 31, &["rndRd"], interleaved);
}

// A one-device RAID-0 is the single archive; a wider array changes timing.
#[test]
fn single_backend_and_one_device_raid0_are_byte_identical() {
    let single = Backend(BackendTopology::single());
    check_shape(single, 37, &["rndWr"], Own);
    let raid = Backend(BackendTopology::raid0(1));
    check_shape(raid, 37, &["rndWr"], Built(single));
}

#[test]
fn raid_serving_is_byte_identical_between_batched_and_serial_paths() {
    let raid = Backend(BackendTopology::raid0(4));
    check_shape(raid, 37, &["rndRd", "update"], Own);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized serving-shape generator: a random HAMS variant, built
    /// with a random shard count and hash policy and served batched, must
    /// land on the bytes of the unsharded per-access reference.
    #[test]
    fn random_shard_shapes_are_byte_invisible_on_every_hams_variant(
        shards in 1u16..9,
        blocked in any::<bool>(),
        variant in 0usize..4,
    ) {
        let scale = tiny(31);
        let spec = WorkloadSpec::by_name("rndRd").unwrap();
        let shape = if blocked {
            ShardConfig::blocked(shards)
        } else {
            ShardConfig::interleaved(shards)
        };
        let (attach, persist) = VARIANTS[variant];
        let mut serial = HamsPlatform::scaled(attach, persist, scale.cache_bytes());
        let reference = run_workload_serial(&mut serial, spec, &scale);
        let mut sharded = hams_with(VARIANTS[variant], &scale, Shards(shape));
        let m = run_workload(&mut sharded, spec, &scale);
        prop_assert_eq!(
            m,
            reference,
            "{}: {:?} diverged from the unsharded serial reference",
            sharded.name(),
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
    let scale = tiny(31);
    let spec = WorkloadSpec::by_name("update").unwrap();
    let mut reference = PlatformKind::HamsTE.build(&scale);
    let expected = run_workload_serial(reference.as_mut(), spec, &scale);

    let te = (AttachMode::Tight, PersistMode::Extend);
    let mut registry = PlatformRegistry::new();
    let mut labels = Vec::new();
    for shards in [1u16, 2, 4, 8] {
        let label = format!("hams-TE-s{shards}");
        registry.register(label.clone(), move |scale: &ScaleProfile| {
            let shape = Shards(ShardConfig::interleaved(shards));
            Box::new(hams_with(te, scale, shape))
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

/// Serves every label of `registry` through the per-access loop, one
/// platform at a time: the serial reference of a sweep grid. The sweep
/// entries carry their shape in the constructor, so this loop is each
/// shape's per-access reference.
fn serial_rows(
    registry: &PlatformRegistry,
    labels: &[&str],
    spec: WorkloadSpec,
    scale: &ScaleProfile,
) -> Vec<hams::platforms::RunMetrics> {
    labels
        .iter()
        .map(|label| {
            let mut platform = registry.build(label, scale).unwrap();
            run_workload_serial(platform.as_mut(), spec, scale)
        })
        .collect()
}

#[test]
fn mq_grid_is_byte_identical_to_the_serial_reference() {
    let scale = tiny(23);
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_queue_sweep(&mut registry, &[1, 2, 4]);
    let labels: Vec<String> = [1u16, 2, 4].iter().map(|&n| queue_sweep_label(n)).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();

    // The parallel grid must match at every worker count. HAMS_THREADS is
    // process-global (mutating it here would race sibling tests), so the
    // sweep over worker counts lives in the CI matrix.
    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    assert_eq!(
        grid,
        serial_rows(&registry, &label_refs, spec, &scale),
        "multi-queue grid diverged from the serial reference"
    );
}

#[test]
fn shard_sweep_grid_is_byte_identical_across_counts_and_to_serial() {
    let scale = tiny(31);
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_shard_sweep(&mut registry, &[1, 2, 8]);
    let labels: Vec<String> = [1u16, 2, 8].iter().map(|&n| shard_sweep_label(n)).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();

    // The grid must match its serial reference and — the shard contract —
    // every row must be identical: the shape may not shift a single byte.
    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    assert_eq!(
        grid,
        serial_rows(&registry, &label_refs, spec, &scale),
        "shard sweep grid diverged from serial"
    );
    for row in &grid[1..] {
        assert_eq!(
            row, &grid[0],
            "a shard count produced different metrics than s1"
        );
    }
}

#[test]
fn raid_sweep_grid_rows_match_their_serial_twins() {
    let scale = tiny(37);
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_raid_sweep(&mut registry, &[1, 2, 4]);
    let mut labels: Vec<String> = [1u16, 2, 4].iter().map(|&n| raid_sweep_label(n)).collect();
    labels.push(cxl_label());
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();

    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    assert_eq!(
        grid,
        serial_rows(&registry, &label_refs, spec, &scale),
        "device sweep grid diverged from serial"
    );
}

#[test]
fn multi_queue_strictly_beats_single_queue_on_random_reads() {
    // A slightly larger run so the miss stream dominates; 32 KB MoS pages so
    // fills span eight LBAs and can stripe.
    let scale = ScaleProfile {
        capacity_divisor: 2048,
        accesses: 3_000,
        seed: 11,
    };
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_queue_sweep(&mut registry, &[1, 4]);

    let mut single = registry.build(&queue_sweep_label(1), &scale).unwrap();
    let mut striped = registry.build(&queue_sweep_label(4), &scale).unwrap();
    let s = run_workload(single.as_mut(), spec, &scale);
    let m = run_workload(striped.as_mut(), spec, &scale);

    let mean = |metrics: &hams::platforms::RunMetrics| {
        metrics.total_time.as_micros_f64() / metrics.accesses.max(1) as f64
    };
    assert!(
        mean(&m) < mean(&s),
        "4-queue mean access latency ({:.3}us) must be strictly below single-queue ({:.3}us)",
        mean(&m),
        mean(&s)
    );
}

#[test]
fn raid_per_device_traffic_sums_to_the_single_device_totals() {
    let scale = ScaleProfile {
        capacity_divisor: 2048,
        accesses: 2_500,
        seed: 9,
    };
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut d1 = build_raid_sweep_platform(&scale, 1);
    let mut d4 = build_raid_sweep_platform(&scale, 4);
    let m1 = run_workload(&mut d1, spec, &scale);
    let m4 = run_workload(&mut d4, spec, &scale);

    // Identical work, partitioned across four archives…
    assert_eq!(m1.accesses, m4.accesses);
    let single = d1.controller().archive().stats();
    let raid = d4.controller().archive().stats();
    assert_eq!(raid.bytes_read, single.bytes_read);
    assert_eq!(raid.bytes_written, single.bytes_written);
    // Fill stripe commands are stripe-aligned (4 KB each), so they route
    // whole and their count is invariant; whole-page eviction writes split
    // at stripe boundaries, counting once per segment — their *bytes* are
    // what must (and do) sum exactly.
    assert_eq!(raid.read_commands, single.read_commands);
    assert!(raid.write_commands >= single.write_commands);
    assert_eq!(
        d1.controller().stats().fill_bytes,
        d4.controller().stats().fill_bytes
    );
    assert_eq!(d1.controller().stats().hits, d4.controller().stats().hits);
    assert_eq!(
        d1.controller().stats().misses,
        d4.controller().stats().misses
    );
    let spread = d4
        .controller()
        .archive()
        .device_stats()
        .iter()
        .filter(|s| s.bytes_read + s.bytes_written > 0)
        .count();
    assert!(spread > 1, "traffic must actually fan out, spread={spread}");

    // …finished strictly faster — the acceptance bar for the d{n} sweep.
    assert!(
        m4.total_time < m1.total_time,
        "RAID-0 d4 ({}) must strictly beat d1 ({}) on random reads",
        m4.total_time,
        m1.total_time
    );
    assert!(m4.pages_per_sec > m1.pages_per_sec);
}

#[test]
fn cxl_attached_backend_trails_the_ddr4_attach_and_still_routes_identically() {
    let scale = ScaleProfile {
        capacity_divisor: 2048,
        accesses: 2_000,
        seed: 5,
    };
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut tight = build_raid_sweep_platform(&scale, 4);
    let mut cxl = build_cxl_platform(&scale);
    assert!(cxl.controller().backend_topology().uses_cxl());
    let m_tight = run_workload(&mut tight, spec, &scale);
    let m_cxl = run_workload(&mut cxl, spec, &scale);
    // Same stripe routing → same per-device traffic…
    assert_eq!(
        tight.controller().archive().stats(),
        cxl.controller().archive().stats()
    );
    // …but the CXL link is slower than the DDR4 register attach.
    assert!(
        m_cxl.total_time > m_tight.total_time,
        "CXL attach ({}) must pay more than the DDR4 attach ({})",
        m_cxl.total_time,
        m_tight.total_time
    );
}
