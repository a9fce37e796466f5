//! HAMS controller configuration: attach mode, persistence mode, MoS page
//! size and the component configurations the controller composes.

use hams_flash::{BackendTopology, SsdConfig};
use hams_nvdimm::{NvdimmConfig, PinnedRegionLayout};
use hams_nvme::QueueConfig;
use serde::{Deserialize, Serialize};

use crate::tag_array::ShardConfig;

/// How ULL-Flash is attached to the HAMS controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttachMode {
    /// Baseline HAMS (`hams-L`): ULL-Flash sits behind the PCIe root complex;
    /// every cache miss crosses PCIe 3.0 x4 and the SSD keeps its internal
    /// DRAM.
    Loose,
    /// Advanced HAMS (`hams-T`): the ULL-Flash NVMe controller is attached to
    /// the DDR4 bus through the register interface; the SSD-internal DRAM is
    /// removed.
    Tight,
    /// The DRAM-less ULL-Flash of advanced HAMS attached over a CXL link
    /// (`hams-C`): pages cross the CXL link and then the DDR4 channel into
    /// the NVDIMM, and each command's doorbell and fetch go over CXL.io —
    /// slower than the DDR4 register interface, faster than PCIe. Not a
    /// design of the paper.
    Cxl,
}

/// How the MoS address space treats persistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PersistMode {
    /// Persist mode (`-P`): force-unit-access on every flash write and at most
    /// one outstanding NVMe command, trading throughput for the strongest
    /// write-through persistence.
    Persist,
    /// Extend mode (`-E`): full NVMe queue parallelism; persistency is
    /// guaranteed by NVDIMM non-volatility, SSD super-capacitors and the
    /// journal-tag recovery of §V-C.
    Extend,
}

/// Complete configuration of a HAMS controller instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HamsConfig {
    /// Flash attach mode (loose = baseline, tight = advanced, or CXL).
    pub attach: AttachMode,
    /// Persistence mode.
    pub persist: PersistMode,
    /// MoS page size: the granularity of the NVDIMM cache and of data
    /// movement between NVDIMM and ULL-Flash. Table II uses 128 KB. It must
    /// be a power-of-two multiple of 4 KB, since the controller decodes a
    /// page number from the address bits; [`crate::HamsController::new`]
    /// refuses any other size.
    pub mos_page_size: u64,
    /// NVDIMM module used as the inclusive cache.
    pub nvdimm: NvdimmConfig,
    /// ULL-Flash archive configuration (per device of the backend).
    pub ssd: SsdConfig,
    /// Shape of the archive backend: one device, a RAID-0 fan-out or a
    /// RAID-5 parity array. [`BackendTopology::single`] is the paper's one
    /// archive, served with no stripe arithmetic; multi-device shapes stripe
    /// the unified LBA space across devices and legitimately change timing.
    pub backend: BackendTopology,
    /// Layout of the pinned, MMU-invisible metadata region.
    pub pinned: PinnedRegionLayout,
    /// Shape of the NVMe submission path managed by the in-controller
    /// engine: queue-pair count and MSI coalescing.
    /// [`QueueConfig::single`] reproduces the original single-queue engine
    /// byte for byte; multi-queue shapes stripe fills across pairs (extend
    /// mode only — persist mode keeps at most one command outstanding).
    pub queues: QueueConfig,
    /// Bank labels of the MoS tag directory: how many banks the sets are
    /// named into and the set→bank hash. The directory is one flat array
    /// whatever the shape; the label only appears on journal tags and trace
    /// spans, so by the shard-invariance contract any shape produces
    /// byte-identical metrics. [`ShardConfig::single`] labels every set 0.
    pub shards: ShardConfig,
}

impl HamsConfig {
    /// The paper's loosely-coupled configuration (`hams-L*`): 8 GB NVDIMM
    /// cache, 800 GB ULL-Flash with super-capacitors over PCIe 3.0 x4,
    /// 128 KB MoS pages.
    #[must_use]
    pub fn loose(persist: PersistMode) -> Self {
        HamsConfig {
            attach: AttachMode::Loose,
            persist,
            mos_page_size: 128 * 1024,
            nvdimm: NvdimmConfig::hpe_8gb(),
            ssd: SsdConfig::ull_flash_supercap(),
            pinned: PinnedRegionLayout::paper_default(),
            backend: BackendTopology::single(),
            queues: QueueConfig::single(),
            shards: ShardConfig::single(),
        }
    }

    /// The paper's tightly-integrated configuration (`hams-T*`): the DRAM-less
    /// ULL-Flash on the DDR4 bus behind the register interface.
    #[must_use]
    pub fn tight(persist: PersistMode) -> Self {
        HamsConfig {
            attach: AttachMode::Tight,
            ssd: SsdConfig::ull_flash_without_dram(),
            ..Self::loose(persist)
        }
    }

    /// A scaled-down configuration for unit tests: an 8 MB NVDIMM cache in
    /// front of a ~2 GB flash archive with 4 KB MoS pages, so misses and
    /// evictions happen quickly.
    #[must_use]
    pub fn tiny_for_tests(attach: AttachMode, persist: PersistMode) -> Self {
        // A small-but-not-toy flash geometry: much larger than the NVDIMM so
        // set conflicts (and therefore evictions) actually occur.
        let geometry = hams_flash::FlashGeometry {
            channels: 4,
            packages_per_channel: 2,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 128,
            pages_per_block: 128,
            page_size: 4096,
        };
        let mut ssd = hams_flash::SsdConfig {
            geometry,
            ..hams_flash::SsdConfig::tiny_for_tests()
        };
        ssd.supercap_backed = true;
        if attach != AttachMode::Loose {
            ssd.dram_capacity_bytes = 0;
        }
        HamsConfig {
            attach,
            persist,
            mos_page_size: 4096,
            nvdimm: NvdimmConfig {
                capacity_bytes: 8 * 1024 * 1024,
                ..NvdimmConfig::tiny_for_tests()
            },
            ssd,
            pinned: PinnedRegionLayout::tiny_for_tests(),
            backend: BackendTopology::single(),
            queues: QueueConfig::single(),
            shards: ShardConfig::single(),
        }
    }

    /// Changes the NVMe queue shape (builder style): queue count and MSI
    /// coalescing, as swept by the queue-count sensitivity figure.
    #[must_use]
    pub fn with_queues(mut self, queues: QueueConfig) -> Self {
        self.queues = queues;
        self
    }

    /// Changes the tag-directory bank labels (builder style), as swept by
    /// `hams_platforms::shard_sweep_platform`. Any shape is metrics-neutral
    /// by the shard-invariance contract.
    #[must_use]
    pub fn with_shards(mut self, shards: ShardConfig) -> Self {
        self.shards = shards;
        self
    }

    /// Changes the archive backend topology (builder style): one device or a
    /// RAID-0 or RAID-5 array, as built by `hams_platforms`' device-sweep
    /// and fault platforms. A stripe unit of `0` resolves to the MoS page
    /// size, so each MoS page lives wholly on one device.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendTopology) -> Self {
        self.backend = backend;
        self
    }

    /// Changes the MoS page size (builder style), as swept by Fig. 20a.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power-of-two multiple of 4 KB.
    #[must_use]
    pub fn with_mos_page_size(mut self, size: u64) -> Self {
        assert_mos_page_size(size);
        self.mos_page_size = size;
        self
    }
}

/// Refuses a MoS page size that is not a power-of-two multiple of 4 KB: the
/// controller takes a page number from the address bits, not by division.
pub(crate) fn assert_mos_page_size(size: u64) {
    assert!(
        size >= 4096 && size.is_power_of_two(),
        "MoS page size must be a power-of-two multiple of 4 KB, got {size}"
    );
}

/// Refuses a MoS page that is not a whole number of the archive's flash
/// pages: the controller fixes, when it is built, how many flash pages back
/// each MoS page.
pub(crate) fn assert_whole_flash_pages(mos_page_size: u64, flash_page_size: u32) {
    let flash_page_size = u64::from(flash_page_size);
    assert!(
        flash_page_size > 0 && mos_page_size.is_multiple_of(flash_page_size),
        "MoS page size must be a whole number of flash pages, got {mos_page_size} bytes \
         over {flash_page_size}-byte flash pages"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_their_modes() {
        let lp = HamsConfig::loose(PersistMode::Persist);
        assert_eq!(lp.attach, AttachMode::Loose);
        assert_eq!(lp.persist, PersistMode::Persist);
        assert!(lp.ssd.dram_capacity_bytes > 0);
        assert!(lp.ssd.supercap_backed);

        let te = HamsConfig::tight(PersistMode::Extend);
        assert_eq!(te.attach, AttachMode::Tight);
        assert_eq!(
            te.ssd.dram_capacity_bytes, 0,
            "advanced HAMS removes the SSD DRAM"
        );
    }

    #[test]
    fn default_page_size_matches_table_2() {
        assert_eq!(
            HamsConfig::loose(PersistMode::Extend).mos_page_size,
            128 * 1024
        );
    }

    #[test]
    fn queue_builder_swaps_the_submission_shape() {
        assert!(HamsConfig::loose(PersistMode::Extend).queues.is_single());
        let c = HamsConfig::tight(PersistMode::Extend).with_queues(QueueConfig::striped(4));
        assert_eq!(c.queues.num_queues, 4);
        assert_eq!(c.queues.coalescing.threshold, 4);
    }

    #[test]
    fn shard_builder_swaps_the_directory_shape() {
        assert_eq!(
            HamsConfig::loose(PersistMode::Extend).shards,
            ShardConfig::single()
        );
        let c = HamsConfig::tight(PersistMode::Extend).with_shards(ShardConfig::interleaved(8));
        assert_eq!(c.shards.count, 8);
    }

    #[test]
    fn backend_builder_swaps_the_archive_topology() {
        assert_eq!(
            HamsConfig::loose(PersistMode::Extend).backend,
            BackendTopology::single()
        );
        let c = HamsConfig::tight(PersistMode::Extend).with_backend(BackendTopology::raid0(4));
        assert_eq!(c.backend.device_count(), 4);
    }

    #[test]
    fn page_size_builder_validates() {
        for shift in 12..=20 {
            let c = HamsConfig::loose(PersistMode::Extend).with_mos_page_size(1 << shift);
            assert_eq!(c.mos_page_size, 1 << shift);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 4 KB")]
    fn odd_page_size_panics() {
        let _ = HamsConfig::loose(PersistMode::Extend).with_mos_page_size(1000);
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple of 4 KB, got 12288")]
    fn non_power_of_two_page_size_panics() {
        let _ = HamsConfig::loose(PersistMode::Extend).with_mos_page_size(12 * 1024);
    }

    #[test]
    fn tiny_config_is_small_but_flash_dwarfs_nvdimm() {
        let c = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend);
        assert!(c.nvdimm.capacity_bytes < 1 << 30);
        assert_eq!(c.mos_page_size, 4096);
        assert!(c.ssd.geometry.capacity_bytes() > c.nvdimm.capacity_bytes * 10);
    }
}
