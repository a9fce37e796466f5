//! The `mmap` baseline platform: an OS page cache in DRAM over a
//! memory-mapped file on an SSD, paying the full MMF software stack on every
//! page fault (§II-B, §III-B).

use hams_energy::{EnergyAccount, PowerParams};
use hams_flash::{SsdConfig, SsdDevice, LBA_SIZE};
use hams_host::MmfCostModel;
use hams_interconnect::{Ddr4Channel, Ddr4Config, PcieConfig, PcieLink};
use hams_nvme::{NvmeCommand, PrpList};
use hams_sim::Nanos;
use hams_workloads::Access;

use crate::cache::{CacheOutcome, LruPageCache};
use crate::platform::{AccessOutcome, Platform};

/// OS page size used by the memory-mapped-file path.
const OS_PAGE: u64 = 4096;

/// The software-managed MMF baseline.
///
/// The SSD behind the mapping is configurable so the platform covers both the
/// paper's main baseline (ULL-Flash) and the SATA/NVMe comparison points of
/// Fig. 6.
///
/// # Example
///
/// ```
/// use hams_platforms::{MmapPlatform, Platform};
/// use hams_flash::SsdConfig;
/// use hams_sim::Nanos;
/// use hams_workloads::Access;
///
/// let mut mmap = MmapPlatform::new("mmap", SsdConfig::ull_flash(), 1 << 20);
/// let access = Access { addr: 0, size: 64, is_write: false, compute_instructions: 0 };
/// let fault = mmap.access(&access, Nanos::ZERO);
/// // The first touch page-faults and pays the software stack.
/// assert!(fault.os_time > Nanos::from_micros(5));
/// ```
#[derive(Debug)]
pub struct MmapPlatform {
    name: String,
    page_cache: LruPageCache,
    mmf: MmfCostModel,
    ssd: SsdDevice,
    pcie: PcieLink,
    ddr: Ddr4Channel,
    power: PowerParams,
    dram_bytes_accessed: u64,
}

impl MmapPlatform {
    /// Creates the platform with `dram_bytes` of page cache over an SSD
    /// described by `ssd`.
    #[must_use]
    pub fn new(name: impl Into<String>, ssd: SsdConfig, dram_bytes: u64) -> Self {
        MmapPlatform {
            name: name.into(),
            page_cache: LruPageCache::new((dram_bytes / OS_PAGE) as usize),
            mmf: MmfCostModel::linux_4_9(),
            ssd: SsdDevice::new(ssd),
            pcie: PcieLink::new(PcieConfig::gen3_x4()),
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2133()),
            power: PowerParams::paper_default(),
            dram_bytes_accessed: 0,
        }
    }

    /// Device latency (flash plus PCIe) of reading one OS page at `now`.
    fn ssd_read(&mut self, page: u64, now: Nanos) -> Nanos {
        let cmd = NvmeCommand::read(1, page * OS_PAGE / LBA_SIZE, OS_PAGE, PrpList::single(0));
        let completion = self
            .ssd
            .service(&cmd, now)
            .map(|c| c.finished_at)
            .unwrap_or(now);
        self.pcie.transfer(OS_PAGE, completion).finished_at
    }

    /// Device latency (PCIe plus flash) of writing one OS page back at `now`.
    fn ssd_write(&mut self, page: u64, now: Nanos) -> Nanos {
        let transfer = self.pcie.transfer(OS_PAGE, now);
        let cmd = NvmeCommand::write(1, page * OS_PAGE / LBA_SIZE, OS_PAGE, PrpList::single(0));
        self.ssd
            .service(&cmd, transfer.finished_at)
            .map(|c| c.finished_at)
            .unwrap_or(transfer.finished_at)
    }

    /// DRAM time of serving the user-visible part of an access.
    fn dram_access(&mut self, bytes: u64, now: Nanos) -> Nanos {
        self.dram_bytes_accessed += bytes;
        let t = self.ddr.transfer(bytes, now);
        t.finished_at + Nanos::from_nanos(30)
    }
}

impl Platform for MmapPlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let page = access.addr / OS_PAGE;
        let mut os_time = Nanos::ZERO;
        let mut ssd_time = Nanos::ZERO;
        let mut t = now;

        let outcome = self.page_cache.access(page, access.is_write);
        if !outcome.is_hit() {
            // Page fault: software stack, then the device read, then (for a
            // dirty eviction) the write-back of the victim.
            let software = self.mmf.fault_overhead(OS_PAGE).total();
            os_time += software;
            t += software;

            let ssd_done = self.ssd_read(page, t);
            ssd_time += ssd_done - t;
            t = ssd_done;

            if let CacheOutcome::MissEvictDirty { victim } = outcome {
                let wb_software = self.mmf.writeback_overhead(OS_PAGE).total();
                os_time += wb_software;
                t += wb_software;
                let wb_done = self.ssd_write(victim, t);
                ssd_time += wb_done - t;
                t = wb_done;
            }
        }

        // The user-level load/store is finally served from the DRAM page cache.
        let served = self.dram_access(access.size, t);
        let memory_time = served - t;

        AccessOutcome {
            finished_at: served,
            os_time,
            ssd_time,
            memory_time,
        }
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        let mut e = EnergyAccount::new();
        e.add_power("nvdimm", self.power.nvdimm_background_watts, elapsed);
        e.add(
            "nvdimm",
            self.dram_bytes_accessed as f64 * self.power.nvdimm_access_nj_per_byte / 1e9,
        );
        e.add_power(
            "internal_dram",
            self.power.ssd_dram_background_watts,
            elapsed,
        );
        let dram_bytes = self.ssd.dram_stats().accesses * 4096;
        e.add(
            "internal_dram",
            dram_bytes as f64 * self.power.ssd_dram_access_nj_per_byte / 1e9,
        );
        e.add(
            "znand",
            (self.ssd.stats().page_reads as f64 * self.power.znand_read_page_nj
                + self.ssd.stats().page_programs as f64 * self.power.znand_program_page_nj)
                / 1e9,
        );
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        Some(self.page_cache.stats().hit_rate())
    }

    fn is_persistent(&self) -> bool {
        // The OS page cache is volatile DRAM; durability requires msync.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, is_write: bool) -> Access {
        Access {
            addr,
            size: 64,
            is_write,
            compute_instructions: 0,
        }
    }

    #[test]
    fn fault_then_hit() {
        let mut p = MmapPlatform::new("mmap", SsdConfig::tiny_for_tests(), 1 << 20);
        let fault = p.access(&acc(0, false), Nanos::ZERO);
        assert!(
            fault.os_time >= Nanos::from_micros(10),
            "os {}",
            fault.os_time
        );
        let hit = p.access(&acc(64, false), fault.finished_at);
        assert_eq!(hit.os_time, Nanos::ZERO);
        assert!(hit.latency(fault.finished_at) < Nanos::from_micros(1));
        assert!(p.hit_rate().unwrap() > 0.0);
    }

    #[test]
    fn dirty_evictions_pay_write_back() {
        // One-page cache: every new page evicts the previous one.
        let mut p = MmapPlatform::new("mmap", SsdConfig::tiny_for_tests(), OS_PAGE);
        let a = p.access(&acc(0, true), Nanos::ZERO);
        let b = p.access(&acc(OS_PAGE, true), a.finished_at);
        assert!(
            b.ssd_time > a.ssd_time,
            "second fault also writes back the dirty victim"
        );
    }

    #[test]
    fn faster_ssd_means_faster_faults() {
        let mut ull = MmapPlatform::new("mmap-ull", SsdConfig::ull_flash(), 1 << 20);
        let mut sata = MmapPlatform::new("mmap-sata", SsdConfig::sata_ssd(), 1 << 20);
        let a = ull.access(&acc(0, false), Nanos::ZERO);
        let b = sata.access(&acc(0, false), Nanos::ZERO);
        assert!(a.latency(Nanos::ZERO) < b.latency(Nanos::ZERO));
    }

    #[test]
    fn energy_accounts_all_components() {
        let mut p = MmapPlatform::new("mmap", SsdConfig::tiny_for_tests(), 1 << 20);
        let mut t = Nanos::ZERO;
        for i in 0..32u64 {
            t = p.access(&acc(i * OS_PAGE, i % 2 == 0), t).finished_at;
        }
        let e = p.device_energy(t);
        assert!(e.component_joules("nvdimm") > 0.0);
        assert!(e.total_joules() > 0.0);
        assert!(!p.is_persistent());
    }
}
