//! Integration and property tests for the persistency control of §IV-B/§V-C:
//! acknowledged writes survive power failures in every HAMS configuration —
//! including every shard shape of the MoS tag directory and every
//! multi-device archive backend — and recovery re-issues exactly the
//! journal-tagged commands, checking each against the bank labelling its
//! page's set and replaying it into the archive device that owns its
//! stripe.

use hams::core::{
    AttachMode, BackendTopology, HamsConfig, HamsController, PersistMode, ShardConfig,
};
use hams::sim::Nanos;
use proptest::prelude::*;

fn controller(attach: AttachMode, persist: PersistMode) -> HamsController {
    HamsController::new(HamsConfig::tiny_for_tests(attach, persist))
}

fn sharded_controller(
    attach: AttachMode,
    persist: PersistMode,
    shards: ShardConfig,
) -> HamsController {
    HamsController::new(HamsConfig::tiny_for_tests(attach, persist).with_shards(shards))
}

fn all_modes() -> Vec<(AttachMode, PersistMode)> {
    vec![
        (AttachMode::Loose, PersistMode::Persist),
        (AttachMode::Loose, PersistMode::Extend),
        (AttachMode::Tight, PersistMode::Persist),
        (AttachMode::Tight, PersistMode::Extend),
    ]
}

#[test]
fn every_mode_survives_a_power_failure_mid_eviction_storm() {
    for (attach, persist) in all_modes() {
        let mut hams = controller(attach, persist);
        let page_size = hams.config().mos_page_size;
        let pages = hams.cache_sets() as u64 + 64;
        let mut now = Nanos::ZERO;
        let mut written = Vec::new();
        for i in 0..pages {
            let addr = i * page_size;
            now = hams.access(addr, true, 64, now).finished_at;
            written.push(hams.page_of(addr));
        }
        let _event = hams.power_fail(now);
        let report = hams.recover(now);
        for page in written {
            assert!(
                hams.is_page_recoverable(page, report.completed_at),
                "{attach:?}/{persist:?}: page {page} lost"
            );
        }
    }
}

#[test]
fn every_mode_survives_a_power_failure_with_a_sharded_tag_array() {
    // The same eviction storm as above, but with the directory's sets
    // labelled with several banks — and pinned byte-identical to the
    // single-bank run: the power-failure event, the recovery report and the
    // controller stats may not shift under the shard shape.
    for (attach, persist) in all_modes() {
        for shards in [ShardConfig::interleaved(4), ShardConfig::blocked(3)] {
            let mut single = controller(attach, persist);
            let mut sharded = sharded_controller(attach, persist, shards);
            let page_size = sharded.config().mos_page_size;
            let pages = sharded.cache_sets() as u64 + 64;
            let mut now_a = Nanos::ZERO;
            let mut now_b = Nanos::ZERO;
            let mut written = Vec::new();
            for i in 0..pages {
                let addr = i * page_size;
                now_a = single.access(addr, true, 64, now_a).finished_at;
                now_b = sharded.access(addr, true, 64, now_b).finished_at;
                written.push(sharded.page_of(addr));
            }
            assert_eq!(
                now_a, now_b,
                "{attach:?}/{persist:?}/{shards:?} timing drifted"
            );
            let event_a = single.power_fail(now_a);
            let event_b = sharded.power_fail(now_b);
            assert_eq!(
                event_a, event_b,
                "{attach:?}/{persist:?}/{shards:?} event drifted"
            );
            let report_a = single.recover(now_a);
            let report_b = sharded.recover(now_b);
            assert_eq!(
                report_a, report_b,
                "{attach:?}/{persist:?}/{shards:?} recovery drifted"
            );
            for page in written {
                assert!(
                    sharded.is_page_recoverable(page, report_b.completed_at),
                    "{attach:?}/{persist:?}/{shards:?}: page {page} lost"
                );
            }
            assert_eq!(single.stats(), sharded.stats());
        }
    }
}

#[test]
fn recovery_replays_journal_tags_into_the_correct_shard() {
    let shards = ShardConfig::interleaved(4);
    let mut hams = sharded_controller(AttachMode::Loose, PersistMode::Extend, shards);
    let page_size = hams.config().mos_page_size;
    let sets = hams.cache_sets() as u64;
    let mut now = Nanos::ZERO;
    // Alias several sets so dirty evictions (journal-tagged writes) are in
    // flight across different banks when the power fails.
    for i in 0..(sets + 48) {
        now = hams.access(i * page_size, true, 64, now).finished_at;
    }
    // Every journal tag must carry the bank of its page's set, as the
    // directory routes it — the recovery scan needs no global ordering
    // point to find the owner.
    let pending = hams.engine().journaled_incomplete(now);
    assert!(
        !pending.is_empty(),
        "eviction storm should leave journal-tagged commands in flight"
    );
    for tracked in &pending {
        assert_eq!(
            tracked.shard,
            hams.shard_of_page(tracked.mos_page),
            "journal tag for page {} recorded the wrong bank",
            tracked.mos_page
        );
        assert!(tracked.shard < hams.num_shards());
    }
    let _ = hams.power_fail(now);
    let report = hams.recover(now);
    for page in &report.reissued_pages {
        assert!(
            hams.is_page_recoverable(*page, report.completed_at),
            "page {page} not recoverable after sharded replay"
        );
    }
}

#[test]
fn persist_mode_raid_failure_and_recovery_are_byte_identical_to_the_single_device_twin() {
    // Persist mode keeps one command outstanding, so the device resources
    // are idle whenever the next command arrives — a RAID-0 fan-out cannot
    // overlap anything and must be byte-identical to the single-archive
    // twin, failure, recovery, stats and all. (Tight attach: no per-device
    // DRAM whose aggregate capacity could shift read caching.)
    for shards in [ShardConfig::single(), ShardConfig::interleaved(4)] {
        let base =
            HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Persist).with_shards(shards);
        let mut single = HamsController::new(base);
        let mut raid =
            HamsController::new(base.with_backend(BackendTopology::raid0_striped(4, 4096)));
        assert_eq!(raid.num_devices(), 4);
        let page_size = raid.config().mos_page_size;
        let sets = raid.cache_sets() as u64;
        let mut now_a = Nanos::ZERO;
        let mut now_b = Nanos::ZERO;
        let mut written = Vec::new();
        // Cross-device conflicts: aliases of neighbouring sets map to
        // different devices (page-granularity stripes round-robin pages),
        // so in-flight evictions at the failure point span the whole set.
        for i in 0..(sets + 48) {
            let addr = (i % sets + (i / sets) * sets) * page_size;
            let a = single.access(addr, true, 64, now_a);
            let b = raid.access(addr, true, 64, now_b);
            assert_eq!(a, b, "persist-mode RAID timing drifted at access {i}");
            now_a = a.finished_at;
            now_b = b.finished_at;
            written.push(raid.page_of(addr));
        }
        let event_a = single.power_fail(now_a);
        let event_b = raid.power_fail(now_b);
        assert_eq!(event_a, event_b, "power-failure event drifted under RAID");
        let report_a = single.recover(now_a);
        let report_b = raid.recover(now_b);
        assert_eq!(report_a, report_b, "recovery report drifted under RAID");
        assert_eq!(single.stats(), raid.stats());
        for page in written {
            assert!(
                raid.is_page_recoverable(page, report_b.completed_at),
                "page {page} lost across power failure under RAID"
            );
        }
    }
}

#[test]
fn power_failure_mid_striped_raid_fill_recovers_every_acknowledged_write() {
    // Extend mode with multi-LBA pages, queue-striped fills and
    // page-granularity RAID stripes (device ownership aligned with the tag
    // banks): background evictions of different victim pages are in flight
    // to *several* archives at once when the power fails.
    let config = HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Extend)
        .with_mos_page_size(32 * 1024)
        .with_queues(hams::nvme::QueueConfig::striped(4))
        .with_shards(ShardConfig::interleaved(4))
        .with_backend(BackendTopology::raid0(4));
    let mut hams = HamsController::new(config);
    let page_size = hams.config().mos_page_size;
    let sets = hams.cache_sets() as u64;
    let mut now = Nanos::ZERO;
    let mut written = Vec::new();
    // Alias sets so dirty evictions and striped fills are in flight, then
    // fail immediately after an access acknowledges — its page's stripe
    // commands may still be outstanding.
    for i in 0..(sets + 32) {
        let addr = (i % sets + (i / sets) * sets) * page_size;
        now = hams.access(addr, true, 64, now).finished_at;
        written.push(hams.page_of(addr));
    }
    let pending = hams.engine().journaled_incomplete(now);
    assert!(
        !pending.is_empty(),
        "the storm should leave journal-tagged commands in flight"
    );
    // Every journal tag records the device the archive routes its stripe
    // to, and the in-flight set spans more than one device — the
    // cross-device conflict this test exists for.
    let mut devices_seen = std::collections::BTreeSet::new();
    for tracked in &pending {
        assert!(tracked.device < hams.num_devices());
        devices_seen.insert(tracked.device);
    }
    assert!(
        devices_seen.len() > 1,
        "in-flight commands should span devices, saw only {devices_seen:?}"
    );
    let _event = hams.power_fail(now);
    let report = hams.recover(now);
    for page in written {
        assert!(
            hams.is_page_recoverable(page, report.completed_at),
            "page {page} lost across a mid-fill power failure"
        );
    }
    for page in &report.reissued_pages {
        assert!(hams.is_page_recoverable(*page, report.completed_at));
    }
}

#[test]
fn power_failure_mid_parity_update_loses_no_acknowledged_write() {
    // A device fails mid-run on the parity array and the power then fails
    // while the array is still degraded — i.e. while journal-tagged writes
    // are being parity-absorbed by the failed stripes' buddies. Recovery
    // must replay the journal into the surviving devices and every
    // acknowledged write must still be recoverable, even the ones whose
    // home device is out.
    let config = HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Persist)
        .with_backend(BackendTopology::raid5_striped(4, 4096));
    let mut hams = HamsController::new(config);
    let page_size = hams.config().mos_page_size;
    let sets = hams.cache_sets() as u64;
    let mut now = Nanos::ZERO;
    let mut written = Vec::new();
    // Phase 1: healthy writes across every device.
    for i in 0..(sets + 16) {
        let addr = (i % sets + (i / sets) * sets) * page_size;
        now = hams.access(addr, true, 64, now).finished_at;
        written.push(hams.page_of(addr));
    }
    // Fail device 0 right now; the spare stays far away so the whole rest
    // of the stream runs degraded.
    hams.set_fault_plan(hams::core::FaultPlan::new().with_fail_stop(
        0,
        now,
        now + Nanos::from_secs(100),
    ));
    // Phase 2: degraded writes — the ones to device 0's stripes are
    // parity-absorbed mid-update when the power fails.
    for i in 0..(sets + 16) {
        let addr = (i % sets + (i / sets) * sets) * page_size;
        now = hams.access(addr, true, 64, now).finished_at;
        written.push(hams.page_of(addr));
    }
    assert_eq!(hams.array_state(), hams::core::ArrayState::Degraded);
    let stats = *hams.fault_stats().unwrap();
    assert!(
        stats.parity_absorbed_writes > 0,
        "the degraded phase must have parity-absorbed at least one write"
    );
    let _event = hams.power_fail(now);
    let report = hams.recover(now);
    for page in written {
        assert!(
            hams.is_page_recoverable(page, report.completed_at),
            "page {page} lost across a mid-parity-update power failure"
        );
    }
}

#[test]
fn power_failure_during_rebuild_loses_no_acknowledged_write() {
    // The spare has arrived and the rebuild is copying reconstructed rows
    // onto it — foreground writes keep journal-tagging — when the power
    // fails mid-rebuild. Nothing acknowledged may be lost, and once power
    // returns the rebuild runs dry and the array is healthy again with
    // every page durable.
    let config = HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Persist)
        .with_backend(BackendTopology::raid5_striped(4, 4096));
    let mut hams = HamsController::new(config);
    let page_size = hams.config().mos_page_size;
    let sets = hams.cache_sets() as u64;
    let mut now = Nanos::ZERO;
    let mut written = Vec::new();
    for i in 0..(sets + 16) {
        let addr = (i % sets + (i / sets) * sets) * page_size;
        now = hams.access(addr, true, 64, now).finished_at;
        written.push(hams.page_of(addr));
    }
    // Fail immediately, spare arrives almost at once, but pace the rebuild
    // slowly enough that phase 2 runs while rows are still being copied.
    hams.set_fault_plan(
        hams::core::FaultPlan::new()
            .with_fail_stop(1, now, now + Nanos::from_micros(1))
            .with_rebuild(hams::core::RebuildConfig {
                row_interval: Nanos::from_millis(100),
                ..hams::core::RebuildConfig::default()
            }),
    );
    for i in 0..(sets + 16) {
        let addr = (i % sets + (i / sets) * sets) * page_size;
        now = hams.access(addr, true, 64, now).finished_at;
        written.push(hams.page_of(addr));
    }
    assert_eq!(
        hams.array_state(),
        hams::core::ArrayState::Rebuilding,
        "phase 2 must have run while the rebuild was still in flight"
    );
    let stats = *hams.fault_stats().unwrap();
    assert!(
        stats.rebuild_rows_done < stats.rebuild_rows_total,
        "the power must fail before the rebuild runs dry"
    );
    let _event = hams.power_fail(now);
    let report = hams.recover(now);
    for page in &written {
        assert!(
            hams.is_page_recoverable(*page, report.completed_at),
            "page {page} lost across a mid-rebuild power failure"
        );
    }
    // Power is back: let the rebuild finish and re-check durability on the
    // healthy array — the journal replayed into both survivors and the
    // reconstructed device.
    hams.advance_faults(now + Nanos::from_secs(100));
    assert_eq!(hams.array_state(), hams::core::ArrayState::Healthy);
    let stats = *hams.fault_stats().unwrap();
    assert_eq!(stats.repairs_completed, 1);
    assert_eq!(stats.rebuild_rows_done, stats.rebuild_rows_total);
    for page in &written {
        assert!(
            hams.is_page_recoverable(*page, report.completed_at),
            "page {page} lost after the post-recovery rebuild completed"
        );
    }
}

#[test]
fn recovery_is_idempotent_when_nothing_is_in_flight() {
    let mut hams = controller(AttachMode::Tight, PersistMode::Extend);
    let mut now = Nanos::ZERO;
    for i in 0..32u64 {
        now = hams.access(i * 64, true, 64, now).finished_at;
    }
    // Let everything drain by advancing far into the future before failing.
    let quiet = now + Nanos::from_secs(1);
    let r1 = hams.access(0, false, 64, quiet);
    let event = hams.power_fail(r1.finished_at);
    assert_eq!(event.incomplete_commands, 0);
    let report = hams.recover(r1.finished_at);
    assert!(report.reissued_pages.is_empty());
}

#[test]
fn persist_mode_makes_evicted_pages_durable_on_flash_immediately() {
    let mut hams = controller(AttachMode::Loose, PersistMode::Persist);
    let page_size = hams.config().mos_page_size;
    let sets = hams.cache_sets() as u64;
    let mut now = Nanos::ZERO;
    // Dirty page 0, then evict it by touching its conflict partner.
    now = hams.access(0, true, 64, now).finished_at;
    now = hams.access(sets * page_size, true, 64, now).finished_at;
    // Give the FUA write time to complete, then check durability directly.
    let settled = now + Nanos::from_secs(1);
    let _ = hams.access(64, false, 64, settled);
    assert!(
        hams.page_durable_on_flash(0),
        "persist mode must push the evicted page to flash"
    );
}

proptest! {
    // 48 cases (the shim default): 12 was too few to hit the interesting
    // wait-queue interleavings — with the old wide generators (addresses in
    // 0..4096 over a ~2048-set span), two accesses rarely collided on a set,
    // so in-flight-conflict and eviction-during-fill paths went unexplored.
    // The generators below are narrowed to a small page span instead, which
    // forces set conflicts in nearly every case while keeping each case
    // short enough that the suite stays in the sub-second range.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random write-heavy access streams and a power failure at an
    /// arbitrary point, no acknowledged write is ever lost (extend mode,
    /// the weaker of the two persistence settings) — under any shard shape
    /// of the tag directory, with the whole failure/recovery sequence pinned
    /// byte-identical to a single-bank twin fed the same stream.
    ///
    /// `(set, alias)` pairs address page `set + alias * cache_sets`: every
    /// alias of a set maps to the *same* NVDIMM line with a different tag,
    /// so the stream constantly conflicts on in-flight lines and evicts
    /// dirty victims whose write-backs race the power failure. The sets
    /// 0..24 deliberately span several banks (interleaved partitioning puts
    /// consecutive sets in different banks), so conflicting in-flight
    /// evictions and fills are forced *across* shard boundaries, not just
    /// within one bank.
    #[test]
    fn random_streams_never_lose_acknowledged_writes(
        slots in proptest::collection::vec((0u64..24, 0u64..3), 16..96),
        fail_after in 5usize..80,
        shard_count in 1u16..9,
        policy_pick in 0u8..2,
    ) {
        let shards = if policy_pick == 0 {
            ShardConfig::interleaved(shard_count)
        } else {
            ShardConfig::blocked(shard_count)
        };
        let mut single = controller(AttachMode::Loose, PersistMode::Extend);
        let mut hams = sharded_controller(AttachMode::Loose, PersistMode::Extend, shards);
        let page_size = hams.config().mos_page_size;
        let sets = hams.cache_sets() as u64;
        let mut now = Nanos::ZERO;
        let mut now_single = Nanos::ZERO;
        let mut written = Vec::new();
        for (i, (set, alias)) in slots.iter().enumerate() {
            if i == fail_after {
                break;
            }
            let addr = (set + alias * sets) * page_size;
            now = hams.access(addr, true, 64, now).finished_at;
            now_single = single.access(addr, true, 64, now_single).finished_at;
            written.push(hams.page_of(addr));
        }
        prop_assert_eq!(now, now_single, "shard shape shifted the stream timing");
        let event = hams.power_fail(now);
        let event_single = single.power_fail(now_single);
        prop_assert_eq!(&event, &event_single);
        let report = hams.recover(now);
        let report_single = single.recover(now_single);
        prop_assert_eq!(&report, &report_single);
        for page in written {
            prop_assert!(
                hams.is_page_recoverable(page, report.completed_at),
                "page {page} lost after power failure under {shards:?}"
            );
        }
    }

    /// The multi-device twin of the stream property above: for random
    /// write-heavy streams over a RAID-0 archive set, a power failure at an
    /// arbitrary point never loses an acknowledged write, and every
    /// journal tag's recorded device matches the live archive routing.
    /// (Byte-identity to the single-device twin is *not* asserted here —
    /// extend-mode fan-out legitimately shifts timing; the persist-mode
    /// integration test above pins the byte-identical case.)
    #[test]
    fn raid_streams_never_lose_acknowledged_writes(
        slots in proptest::collection::vec((0u64..24, 0u64..3), 16..96),
        fail_after in 5usize..80,
        device_count in 1u16..5,
    ) {
        let mut hams = HamsController::new(
            HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
                .with_backend(BackendTopology::raid0_striped(device_count, 4096)),
        );
        let page_size = hams.config().mos_page_size;
        let sets = hams.cache_sets() as u64;
        let mut now = Nanos::ZERO;
        let mut written = Vec::new();
        for (i, (set, alias)) in slots.iter().enumerate() {
            if i == fail_after {
                break;
            }
            let addr = (set + alias * sets) * page_size;
            now = hams.access(addr, true, 64, now).finished_at;
            written.push(hams.page_of(addr));
        }
        for tracked in hams.engine().journaled_incomplete(now) {
            prop_assert_eq!(
                tracked.device,
                hams.device_of_page(tracked.mos_page),
                "journal tag recorded the wrong archive device"
            );
        }
        let _event = hams.power_fail(now);
        let report = hams.recover(now);
        for page in written {
            prop_assert!(
                hams.is_page_recoverable(page, report.completed_at),
                "page {page} lost after power failure on {device_count} devices"
            );
        }
    }

    /// The wait-queue / busy-bit machinery never deadlocks and never loses an
    /// access: the number of completed accesses always equals the number
    /// issued, regardless of the interleaving of reads and writes. The same
    /// aliased addressing as above drives the stream through the
    /// busy-line-conflict and eviction-during-pending-fill interleavings,
    /// and a back-dated re-access of the previous line exercises the wait
    /// queue against in-flight completions.
    #[test]
    fn accesses_are_never_lost_under_arbitrary_interleavings(
        ops in proptest::collection::vec((0u64..16, 0u64..4, any::<bool>()), 1..128),
        shard_count in 1u16..9,
    ) {
        let mut hams = sharded_controller(
            AttachMode::Tight,
            PersistMode::Extend,
            ShardConfig::interleaved(shard_count),
        );
        let page_size = hams.config().mos_page_size;
        let sets = hams.cache_sets() as u64;
        let mut now = Nanos::ZERO;
        let mut previous: Option<u64> = None;
        for (set, alias, is_write) in &ops {
            let addr = (set + alias * sets) * page_size;
            let result = hams.access(addr, *is_write, 64, now);
            prop_assert!(result.finished_at >= now, "time went backwards");
            // Touch the previously accessed line again *before* its fill or
            // eviction completes: the wait queue must park this access, not
            // drop it.
            if let Some(prev) = previous {
                let early = result.finished_at.saturating_sub(Nanos::from_nanos(1));
                let replay = hams.access(prev, false, 64, early);
                prop_assert!(replay.finished_at >= early);
            }
            previous = Some(addr);
            now = result.finished_at.max(now);
        }
        let issued = ops.len() as u64 * 2 - 1;
        prop_assert_eq!(hams.stats().accesses, issued);
        prop_assert_eq!(hams.stats().hits + hams.stats().misses, issued);
        prop_assert!(hams.stats().wait_stalls <= hams.stats().accesses);
    }
}
