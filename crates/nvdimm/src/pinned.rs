//! The pinned, MMU-invisible NVDIMM region that holds the NVMe metadata.
//!
//! HAMS maps the NVMe data structures — SQ/CQ ring buffers, the PRP pool used
//! for hazard-avoidance page clones, and the MSI table — into the top of the
//! NVDIMM and hides that region from the MMU (Fig. 9). Because the region
//! lives in NVDIMM it survives power failures, which is what makes the
//! journal-tag recovery scan of §V-C possible.

use serde::{Deserialize, Serialize};

/// Layout of the pinned region, expressed as sizes; the region occupies the
/// top `total_bytes()` of the NVDIMM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinnedRegionLayout {
    /// Bytes reserved for submission-queue ring buffers.
    pub sq_bytes: u64,
    /// Bytes reserved for completion-queue ring buffers.
    pub cq_bytes: u64,
    /// Bytes reserved for the PRP pool (clone targets for in-flight evictions).
    pub prp_pool_bytes: u64,
    /// Bytes reserved for the MSI table.
    pub msi_table_bytes: u64,
    /// Bytes reserved for the wait queue added by the hazard-avoidance logic.
    pub wait_queue_bytes: u64,
}

impl PinnedRegionLayout {
    /// The layout of Fig. 9: 32 KB of SQ, 8 KB of CQ, a 512 MB PRP pool,
    /// ~1 KB of MSI table, plus a small wait queue.
    #[must_use]
    pub fn paper_default() -> Self {
        PinnedRegionLayout {
            sq_bytes: 32 * 1024,
            cq_bytes: 8 * 1024,
            prp_pool_bytes: 512 * 1024 * 1024,
            msi_table_bytes: 1024,
            wait_queue_bytes: 64 * 1024,
        }
    }

    /// A scaled-down layout for unit tests (keeps the same proportions but a
    /// 1 MB PRP pool).
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        PinnedRegionLayout {
            sq_bytes: 4 * 1024,
            cq_bytes: 1024,
            prp_pool_bytes: 1024 * 1024,
            msi_table_bytes: 256,
            wait_queue_bytes: 4 * 1024,
        }
    }

    /// Total bytes the pinned region occupies.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.sq_bytes
            + self.cq_bytes
            + self.prp_pool_bytes
            + self.msi_table_bytes
            + self.wait_queue_bytes
    }

    /// Number of page-sized clone slots available in the PRP pool.
    #[must_use]
    pub fn prp_pool_slots(&self, page_size: u64) -> u64 {
        if page_size == 0 {
            return 0;
        }
        self.prp_pool_bytes / page_size
    }
}

/// The pinned region placed at the top of a specific NVDIMM capacity.
///
/// # Example
///
/// ```
/// use hams_nvdimm::{PinnedRegion, PinnedRegionLayout};
///
/// let region = PinnedRegion::at_top_of(8 << 30, PinnedRegionLayout::paper_default());
/// // An address in the bottom of the NVDIMM is cacheable MoS space…
/// assert!(!region.contains(0x1000));
/// // …but the very last byte belongs to the pinned metadata.
/// assert!(region.contains((8u64 << 30) - 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinnedRegion {
    base: u64,
    layout: PinnedRegionLayout,
}

impl PinnedRegion {
    /// Places the layout at the top of an NVDIMM of `nvdimm_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not fit in the NVDIMM.
    #[must_use]
    pub fn at_top_of(nvdimm_capacity: u64, layout: PinnedRegionLayout) -> Self {
        assert!(
            layout.total_bytes() < nvdimm_capacity,
            "pinned region larger than the NVDIMM"
        );
        PinnedRegion {
            base: nvdimm_capacity - layout.total_bytes(),
            layout,
        }
    }

    /// First byte of the pinned region. Everything below is MoS cache space.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The layout placed here.
    #[must_use]
    pub fn layout(&self) -> &PinnedRegionLayout {
        &self.layout
    }

    /// Bytes of NVDIMM left below the pinned region for the MoS cache.
    #[must_use]
    pub fn cacheable_bytes(&self) -> u64 {
        self.base
    }

    /// Returns `true` if `addr` (an NVDIMM-relative byte address) falls
    /// inside the pinned region.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.layout.total_bytes()
    }

    /// NVDIMM address of PRP-pool clone slot `slot` for the given page size.
    ///
    /// The pool sits at the top of the region, so on an NVDIMM whose
    /// capacity is a multiple of 4 KB every slot starts on a 4 KB boundary,
    /// as NVMe requires of every PRP entry after a list's first.
    ///
    /// # Panics
    ///
    /// Panics if the slot index is out of range.
    #[must_use]
    pub fn prp_slot_address(&self, slot: u64, page_size: u64) -> u64 {
        assert!(
            slot < self.layout.prp_pool_slots(page_size),
            "PRP pool slot {slot} out of range"
        );
        let pool_base = self.base + self.layout.total_bytes() - self.layout.prp_pool_bytes;
        pool_base + slot * page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_is_roughly_half_a_gigabyte() {
        let l = PinnedRegionLayout::paper_default();
        let mb = l.total_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 500.0 && mb < 560.0, "pinned region is {mb} MB");
    }

    #[test]
    fn region_sits_at_the_top() {
        let cap = 8u64 << 30;
        let r = PinnedRegion::at_top_of(cap, PinnedRegionLayout::paper_default());
        assert_eq!(r.base() + r.layout().total_bytes(), cap);
        assert_eq!(r.cacheable_bytes(), r.base());
        assert!(r.contains(cap - 1));
        assert!(!r.contains(r.base() - 1));
    }

    #[test]
    fn prp_slots_are_within_the_region_and_distinct() {
        let r = PinnedRegion::at_top_of(64 << 20, PinnedRegionLayout::tiny_for_tests());
        let page = 4096;
        let slots = r.layout().prp_pool_slots(page);
        assert!(slots >= 2);
        let a = r.prp_slot_address(0, page);
        let b = r.prp_slot_address(1, page);
        assert_ne!(a, b);
        assert!(r.contains(a) && r.contains(b));
    }

    #[test]
    fn every_prp_slot_is_4k_aligned_and_inside_the_region() {
        let shapes = [
            (PinnedRegionLayout::paper_default(), 8u64 << 30),
            (PinnedRegionLayout::tiny_for_tests(), 4 << 20),
            (PinnedRegionLayout::tiny_for_tests(), 8 << 20),
            (PinnedRegionLayout::tiny_for_tests(), 32 << 20),
        ];
        for (layout, capacity) in shapes {
            let r = PinnedRegion::at_top_of(capacity, layout);
            for page in [4096u64, 8192, 64 << 10, 1 << 20] {
                let slots = layout.prp_pool_slots(page);
                assert!(slots > 0);
                for slot in 0..slots {
                    let addr = r.prp_slot_address(slot, page);
                    assert_eq!(addr % 4096, 0, "slot {slot} of {page} B pages at {addr:#x}");
                    assert!(r.contains(addr) && r.contains(addr + page - 1));
                }
            }
        }
    }

    #[test]
    fn prp_pool_slots_handles_zero_page_size() {
        assert_eq!(PinnedRegionLayout::paper_default().prp_pool_slots(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let r = PinnedRegion::at_top_of(64 << 20, PinnedRegionLayout::tiny_for_tests());
        let _ = r.prp_slot_address(1_000_000, 4096);
    }

    #[test]
    #[should_panic(expected = "larger than the NVDIMM")]
    fn oversized_layout_panics() {
        let _ = PinnedRegion::at_top_of(1024, PinnedRegionLayout::paper_default());
    }
}
