//! The scaled HAMS platforms of the sensitivity studies.
//!
//! Each is [`HamsPlatform::scaled_config`] with the fields its study sweeps
//! replaced, so the shape they share (NVDIMM, pinned region, SSD DRAM) is
//! set in one place. They are returned concretely, not boxed, so harnesses
//! can read per-device archive stats and the fault state machine.

use hams_core::{AttachMode, BackendTopology, PersistMode, ShardConfig};
use hams_flash::LBA_SIZE;
use hams_nvme::QueueConfig;

use crate::hams::HamsPlatform;
use crate::runner::ScaleProfile;

/// MoS page size of the queue-count sweep. Striped fills split a page
/// across queue pairs at LBA (4 KB) granularity, so the sweep uses a page
/// spanning eight LBAs — small enough for scaled-down capacities, large
/// enough that every queue count up to eight gets its own stripe.
pub const QUEUE_SWEEP_PAGE_BYTES: u64 = 32 * 1024;

/// One point of the queue-count sweep (`fig21`): tightly-integrated,
/// extend-mode HAMS with [`QUEUE_SWEEP_PAGE_BYTES`] MoS pages and
/// `num_queues` striped NVMe queue pairs (MSI coalescing threshold
/// `num_queues`, 8 µs timer). One pair is [`QueueConfig::single`], so the
/// sweep's baseline is the exact single-queue engine at the same page size.
#[must_use]
pub fn queue_sweep_platform(scale: &ScaleProfile, num_queues: u16) -> HamsPlatform {
    HamsPlatform::from_config(
        HamsPlatform::scaled_config(AttachMode::Tight, PersistMode::Extend, scale.cache_bytes())
            .with_mos_page_size(QUEUE_SWEEP_PAGE_BYTES)
            .with_queues(QueueConfig::striped(num_queues)),
    )
}

/// One point of the shard-count sweep (`fig22`): tightly-integrated,
/// extend-mode HAMS on one queue pair with the tag directory's sets
/// labelled by `num_shards` interleaved banks. One bank is
/// [`ShardConfig::single`]. Unlike the queue sweep, every point must produce
/// byte-identical metrics — the shard-invariance contract — which the shard
/// golden snapshot and `hams-bench`'s `fig_shard_sensitivity` enforce.
#[must_use]
pub fn shard_sweep_platform(scale: &ScaleProfile, num_shards: u16) -> HamsPlatform {
    HamsPlatform::from_config(
        HamsPlatform::scaled_config(AttachMode::Tight, PersistMode::Extend, scale.cache_bytes())
            .with_queues(QueueConfig::single())
            .with_shards(ShardConfig::interleaved(num_shards)),
    )
}

/// MoS page size of the RAID device sweep: the queue sweep's eight-LBA page,
/// so the eight stripe commands of one fill have stripes to spread across
/// devices.
pub const RAID_SWEEP_PAGE_BYTES: u64 = 32 * 1024;

/// NVMe queue pairs used by every RAID device-sweep point. Held constant
/// across device counts so the sweep isolates device scaling: the d1
/// baseline pays the same queue shape, only the archive fan-out changes.
pub const RAID_SWEEP_QUEUES: u16 = 8;

/// HAMS at the RAID sweep's page and queue shape, attached by `attach`,
/// over `backend`.
fn raid_sweep_shape(
    scale: &ScaleProfile,
    attach: AttachMode,
    persist: PersistMode,
    backend: BackendTopology,
) -> HamsPlatform {
    HamsPlatform::from_config(
        HamsPlatform::scaled_config(attach, persist, scale.cache_bytes())
            .with_mos_page_size(RAID_SWEEP_PAGE_BYTES)
            .with_queues(QueueConfig::striped(RAID_SWEEP_QUEUES))
            .with_backend(backend),
    )
}

/// One point of the device sweep (`fig23`): tightly-integrated, extend-mode
/// HAMS with [`RAID_SWEEP_PAGE_BYTES`] MoS pages, [`RAID_SWEEP_QUEUES`]
/// queue pairs and a RAID-0 archive set of `devices` ULL-Flash devices at
/// LBA (4 KB) stripe granularity — each of a fill's stripe commands lands
/// wholly on the device owning its stripe, so one page fill fans out across
/// up to `devices` independent flash arrays. One device is the exact
/// single-archive engine (`tests/shape_equivalence.rs`).
/// `fig_device_scaling` reads the per-device stats to prove they sum to the
/// single-device run's.
#[must_use]
pub fn build_raid_sweep_platform(scale: &ScaleProfile, devices: u16) -> HamsPlatform {
    raid_sweep_shape(
        scale,
        AttachMode::Tight,
        PersistMode::Extend,
        BackendTopology::raid0_striped(devices, LBA_SIZE),
    )
}

/// The d4 RAID fan-out of [`build_raid_sweep_platform`] on the CXL attach
/// instead of the DDR4 register interface (`hams-CE`) — the
/// memory-expansion shape, slower than the tight attach and faster than
/// loose PCIe.
#[must_use]
pub fn build_cxl_platform(scale: &ScaleProfile) -> HamsPlatform {
    raid_sweep_shape(
        scale,
        AttachMode::Cxl,
        PersistMode::Extend,
        BackendTopology::raid0_striped(4, LBA_SIZE),
    )
}

/// Number of devices in the fault-scenario parity array: four, matching
/// the RAID sweep's widest point so degraded timing is comparable to the
/// healthy d4 run.
pub const FAULT_SWEEP_DEVICES: u16 = 4;

/// The label `fig26` and `degraded_serving` print for
/// [`build_fault_platform`].
#[must_use]
pub fn fault_label() -> String {
    "hams-TP-r5".to_owned()
}

/// The parity-archive fault scenario (`hams-TP-r5`): the d4 shape of
/// [`build_raid_sweep_platform`] on a rotating-parity backend instead of
/// plain RAID-0, in persist mode so every store reaches the archive
/// as a journal-tagged write — the traffic that matters when a device is
/// out: degraded writes are parity-absorbed and the rebuild has real
/// durable pages to copy onto the spare. With zero injected faults this
/// array is metrics-byte-identical to its RAID-0 twin
/// (`tests/fault_equivalence.rs` pins it); install a
/// [`hams_core::FaultPlan`] through the concrete controller
/// (`controller_mut().set_fault_plan`) to fail a device mid-run and measure
/// degraded serving and rebuild-under-load — `fig26_latency_under_rebuild`
/// drives this platform.
#[must_use]
pub fn build_fault_platform(scale: &ScaleProfile) -> HamsPlatform {
    raid_sweep_shape(
        scale,
        AttachMode::Tight,
        PersistMode::Persist,
        BackendTopology::raid5_striped(FAULT_SWEEP_DEVICES, LBA_SIZE),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;

    #[test]
    fn queue_sweep_points_pin_their_queue_shape() {
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 4, 8] {
            let platform = queue_sweep_platform(&scale, n);
            assert_eq!(platform.name(), "hams-TE");
            let config = platform.controller().config();
            assert_eq!(config.mos_page_size, QUEUE_SWEEP_PAGE_BYTES);
            assert_eq!(platform.controller().engine().num_queues(), n);
        }
        assert!(queue_sweep_platform(&scale, 1)
            .controller()
            .config()
            .queues
            .is_single());
    }

    #[test]
    fn shard_sweep_points_pin_their_directory_shape() {
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 8] {
            let platform = shard_sweep_platform(&scale, n);
            assert_eq!(platform.name(), "hams-TE");
            assert_eq!(platform.controller().num_shards(), n);
            assert!(platform.controller().config().queues.is_single());
        }
    }

    #[test]
    fn raid_sweep_points_fan_out_at_lba_stripes() {
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 4] {
            let platform = build_raid_sweep_platform(&scale, n);
            assert_eq!(platform.name(), "hams-TE");
            assert_eq!(platform.controller().archive().num_devices(), n);
        }
        assert_eq!(
            build_raid_sweep_platform(&scale, 4)
                .controller()
                .archive()
                .stripe_lbas(),
            1,
            "LBA-granularity stripes fan one fill across devices"
        );
        let cxl = build_cxl_platform(&scale);
        assert_eq!(cxl.name(), "hams-CE");
        assert_eq!(cxl.controller().config().attach, AttachMode::Cxl);
        assert_eq!(cxl.controller().archive().num_devices(), 4);
    }

    #[test]
    fn fault_platform_is_a_parity_array() {
        let scale = ScaleProfile::test_tiny();
        let platform = build_fault_platform(&scale);
        assert_eq!(platform.name(), "hams-TP");
        assert_eq!(
            platform.controller().archive().num_devices(),
            FAULT_SWEEP_DEVICES
        );
        assert!(platform.controller().archive().topology().has_parity());
        assert_eq!(
            platform.controller().archive().stripe_lbas(),
            1,
            "the fault platform keeps the RAID sweep's LBA-granularity stripes"
        );
    }
}
