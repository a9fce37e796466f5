//! Memory-mapped-file (mmap / MMF) software-stack cost model.
//!
//! This is the baseline the paper measures against: expanding NVDIMM with an
//! SSD through `mmap` means every page fault runs the page-fault handler,
//! takes the inode lock, builds a `bio`, traverses the multi-queue block
//! layer and the NVMe driver, and copies data between user and kernel space
//! (§II-B). The paper measures the whole software path at 15–20 µs — about
//! 6× the 3 µs Z-NAND read it fronts (§III-B).

use hams_sim::{ComponentId, LatencyBreakdown, Nanos};
use serde::{Deserialize, Serialize};

/// Per-component costs of the MMF path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmfCostModel {
    /// Page-fault handler: VMA lookup, page allocation, PTE creation.
    pub page_fault_handling: Nanos,
    /// One scheduler context switch; a blocking fault pays two.
    pub context_switch: Nanos,
    /// File-system work: inode lock, metadata, `bio` construction.
    pub filesystem: Nanos,
    /// Multi-queue block layer: software queue, dispatch queue scheduling.
    pub blk_mq: Nanos,
    /// NVMe driver: SQ entry build, doorbell write, ISR and CQ handling.
    pub nvme_driver: Nanos,
    /// Bandwidth of the user/kernel data copy, bytes per second.
    pub copy_bandwidth_bytes_per_sec: f64,
}

impl MmfCostModel {
    /// Costs calibrated to the paper's measurement that the software
    /// operations of MMF consume 15–20 µs per fault (§III-B), with the
    /// context switches and page-fault handling dominating.
    #[must_use]
    pub fn linux_4_9() -> Self {
        MmfCostModel {
            page_fault_handling: Nanos::from_nanos(3_500),
            context_switch: Nanos::from_nanos(2_000),
            filesystem: Nanos::from_nanos(2_500),
            blk_mq: Nanos::from_nanos(1_800),
            nvme_driver: Nanos::from_nanos(1_200),
            copy_bandwidth_bytes_per_sec: 6.0e9,
        }
    }

    /// Time to copy `bytes` between user and kernel space.
    #[must_use]
    pub fn copy_time(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        Nanos::from_nanos_f64(bytes as f64 / self.copy_bandwidth_bytes_per_sec * 1e9)
    }

    /// The software overhead of one blocking page fault that reads `bytes`
    /// from storage, as a named breakdown:
    ///
    /// * `"mmap"` — page-fault handling plus two context switches,
    /// * `"io_stack"` — filesystem + blk-mq + NVMe driver + data copy.
    ///
    /// The storage device time itself is *not* included; the platform adds it.
    #[must_use]
    pub fn fault_overhead(&self, bytes: u64) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::new();
        b.add(
            ComponentId::MMAP,
            self.page_fault_handling + self.context_switch * 2,
        );
        b.add(
            ComponentId::IO_STACK,
            self.filesystem + self.blk_mq + self.nvme_driver + self.copy_time(bytes),
        );
        b
    }

    /// The software overhead of writing back a dirty page of `bytes` (no
    /// context switches: write-back is asynchronous, but the I/O stack is
    /// still traversed).
    #[must_use]
    pub fn writeback_overhead(&self, bytes: u64) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::new();
        b.add(ComponentId::MMAP, self.page_fault_handling / 2);
        b.add(
            ComponentId::IO_STACK,
            self.filesystem + self.blk_mq + self.nvme_driver + self.copy_time(bytes),
        );
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_fault_cost_is_in_the_papers_band() {
        let m = MmfCostModel::linux_4_9();
        let total = m.fault_overhead(4096).total();
        assert!(
            total >= Nanos::from_micros(10) && total <= Nanos::from_micros(20),
            "fault software cost {total} outside 10-20us"
        );
    }

    #[test]
    fn software_cost_dwarfs_z_nand_read() {
        let m = MmfCostModel::linux_4_9();
        let znand_read = Nanos::from_micros(3);
        assert!(m.fault_overhead(4096).total() > znand_read * 4);
    }

    #[test]
    fn breakdown_names_match_figure_7a() {
        let m = MmfCostModel::linux_4_9();
        let b = m.fault_overhead(4096);
        assert!(b.component("mmap") > Nanos::ZERO);
        assert!(b.component("io_stack") > Nanos::ZERO);
        assert_eq!(b.total(), b.component("mmap") + b.component("io_stack"));
    }

    #[test]
    fn copy_time_scales_with_bytes() {
        let m = MmfCostModel::linux_4_9();
        assert_eq!(m.copy_time(0), Nanos::ZERO);
        assert!(m.copy_time(1 << 20) > m.copy_time(4096) * 200);
    }

    #[test]
    fn writeback_is_cheaper_than_fault() {
        let m = MmfCostModel::linux_4_9();
        assert!(m.writeback_overhead(4096).total() < m.fault_overhead(4096).total());
    }
}
