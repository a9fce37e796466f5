//! Prior-work comparison platforms: FlatFlash (`flatflash-P/-M`), Optane DC
//! PMM (`optane-P/-M`), NVDIMM-C (`nvdimm-C`) and the `oracle` upper bound.
//!
//! These models capture the characteristics the paper uses to position HAMS
//! (§VI-B and §VII): FlatFlash's MMIO cache-line access costs ~4.8 µs and
//! forgoes NVMe parallelism, Optane's 256 B internal block wastes bandwidth on
//! fine-grained accesses, and NVDIMM-C confines DRAM↔flash migration to DRAM
//! refresh windows, making a page move cost tens of microseconds.

use hams_energy::{EnergyAccount, PowerParams};
use hams_flash::{SsdConfig, SsdDevice, LBA_SIZE};
use hams_interconnect::{Ddr4Channel, Ddr4Config, PcieConfig, PcieLink};
use hams_nvme::{NvmeCommand, PrpList};
use hams_sim::Nanos;
use hams_workloads::Access;

use crate::cache::{CacheOutcome, LruPageCache};
use crate::platform::{AccessOutcome, BatchOutcome, BatchRequest, Platform};

const OS_PAGE: u64 = 4096;

fn znand_energy(power: &PowerParams, ssd: &SsdDevice) -> f64 {
    (ssd.stats().page_reads as f64 * power.znand_read_page_nj
        + ssd.stats().page_programs as f64 * power.znand_program_page_nj)
        / 1e9
}

/// FlatFlash: the SSD is exposed byte-addressably over MMIO.
///
/// `flatflash-P` (persistent) sends every cache-line access across PCIe to the
/// SSD; `flatflash-M` additionally buffers hot pages in host DRAM, improving
/// performance but forfeiting persistence.
#[derive(Debug)]
pub struct FlatFlashPlatform {
    name: String,
    host_cache: Option<LruPageCache>,
    ssd: SsdDevice,
    pcie: PcieLink,
    ddr: Ddr4Channel,
    power: PowerParams,
    dram_bytes_accessed: u64,
}

impl FlatFlashPlatform {
    /// `flatflash-P`: direct MMIO access, fully persistent.
    #[must_use]
    pub fn persistent() -> Self {
        Self::build("flatflash-P", None)
    }

    /// `flatflash-M`: hot pages buffered in `dram_bytes` of host memory.
    #[must_use]
    pub fn memory_cached(dram_bytes: u64) -> Self {
        Self::build(
            "flatflash-M",
            Some(LruPageCache::new((dram_bytes / OS_PAGE) as usize)),
        )
    }

    fn build(name: &str, host_cache: Option<LruPageCache>) -> Self {
        FlatFlashPlatform {
            name: name.to_owned(),
            host_cache,
            ssd: SsdDevice::new(SsdConfig::ull_flash()),
            pcie: PcieLink::new(PcieConfig::gen3_x4()),
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2133()),
            power: PowerParams::paper_default(),
            dram_bytes_accessed: 0,
        }
    }

    /// Replaces the SSD with one whose internal DRAM holds `bytes` (used by
    /// scaled-down experiments to preserve the paper's capacity ratios).
    #[must_use]
    pub fn with_ssd_dram_bytes(mut self, bytes: u64) -> Self {
        let mut cfg = SsdConfig::ull_flash();
        cfg.dram_capacity_bytes = bytes;
        self.ssd = SsdDevice::new(cfg);
        self
    }

    /// One MMIO access of `size` bytes to the SSD: a small PCIe transaction
    /// plus the device-internal lookup, with no NVMe queueing or
    /// parallelism.
    fn mmio_access(&mut self, addr: u64, size: u64, is_write: bool, now: Nanos) -> Nanos {
        let length = size.max(64);
        let round_trip = self.pcie.transfer(length, now);
        let slba = addr / LBA_SIZE;
        let cmd = if is_write {
            NvmeCommand::write(1, slba, length, PrpList::single(0))
        } else {
            NvmeCommand::read(1, slba, length, PrpList::single(0))
        };
        self.ssd
            .service(&cmd, round_trip.finished_at)
            .map(|c| c.finished_at)
            .unwrap_or(round_trip.finished_at)
    }
}

impl Platform for FlatFlashPlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let mut t = now;
        if let Some(cache) = &mut self.host_cache {
            let page = access.addr / OS_PAGE;
            let outcome = cache.access(page, access.is_write);
            if outcome.is_hit() {
                self.dram_bytes_accessed += access.size;
                let served = self.ddr.transfer(access.size, t).finished_at + Nanos::from_nanos(30);
                return AccessOutcome {
                    finished_at: served,
                    os_time: Nanos::ZERO,
                    ssd_time: Nanos::ZERO,
                    memory_time: served - t,
                };
            }
            // Promote the page to host DRAM over MMIO (page-sized pull).
            let promoted = self.mmio_access(access.addr, OS_PAGE, false, t);
            if let CacheOutcome::MissEvictDirty { victim } = outcome {
                t = self.mmio_access(victim * OS_PAGE, OS_PAGE, true, promoted);
            } else {
                t = promoted;
            }
            let served = self.ddr.transfer(access.size, t).finished_at + Nanos::from_nanos(30);
            return AccessOutcome {
                finished_at: served,
                os_time: Nanos::ZERO,
                ssd_time: served - now,
                memory_time: served - t,
            };
        }
        let served = self.mmio_access(access.addr, access.size, access.is_write, t);
        AccessOutcome {
            finished_at: served,
            os_time: Nanos::ZERO,
            ssd_time: served - now,
            memory_time: Nanos::ZERO,
        }
    }

    /// Direct-attach batch path for `flatflash-P`: the host-cache branch is
    /// resolved once per batch and every access goes straight to the MMIO
    /// loop with the caller's reused outcome buffer. `flatflash-M` keeps the
    /// per-access fallback — its host DRAM cache makes every access
    /// branch-dependent anyway.
    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        let mut t = start;
        if self.host_cache.is_none() {
            for request in batch {
                let issued_at = t + request.compute;
                let served = self.mmio_access(
                    request.access.addr,
                    request.access.size,
                    request.access.is_write,
                    issued_at,
                );
                out.outcomes.push(AccessOutcome {
                    finished_at: served,
                    os_time: Nanos::ZERO,
                    ssd_time: served - issued_at,
                    memory_time: Nanos::ZERO,
                });
                t = served;
            }
        } else {
            for request in batch {
                let outcome = self.access(&request.access, t + request.compute);
                t = outcome.finished_at;
                out.outcomes.push(outcome);
            }
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
        e.add(
            "internal_dram",
            (self.ssd.dram_stats().accesses * 4096) as f64 * self.power.ssd_dram_access_nj_per_byte
                / 1e9,
        );
        e.add("znand", znand_energy(&self.power, &self.ssd));
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        self.host_cache.as_ref().map(|c| c.stats().hit_rate())
    }

    fn is_persistent(&self) -> bool {
        // Only the uncached variant guarantees persistence (§VII).
        self.host_cache.is_none()
    }
}

/// Optane DC PMM platforms: App Direct (`optane-P`) and memory-mode-style
/// DRAM-cached (`optane-M`).
#[derive(Debug)]
pub struct OptanePlatform {
    name: String,
    dram_cache: Option<LruPageCache>,
    power: PowerParams,
    ddr: Ddr4Channel,
    media_reads: u64,
    media_writes: u64,
    dram_bytes_accessed: u64,
}

impl OptanePlatform {
    /// Optane internal block size: requests smaller than this still move a
    /// full block (§VI-B).
    pub const INTERNAL_BLOCK: u64 = 256;
    /// Media read latency of Optane DC PMM.
    pub const READ_LATENCY: Nanos = Nanos::from_nanos(305);
    /// Media write latency into the XPBuffer.
    pub const WRITE_LATENCY: Nanos = Nanos::from_nanos(94);
    /// Sustainable media bandwidth (bytes/s), well below DRAM.
    pub const MEDIA_BANDWIDTH: f64 = 2.4e9;

    /// `optane-P`: App Direct mode, every access reaches the PMM media.
    #[must_use]
    pub fn app_direct() -> Self {
        OptanePlatform {
            name: "optane-P".to_owned(),
            dram_cache: None,
            power: PowerParams::paper_default(),
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2666()),
            media_reads: 0,
            media_writes: 0,
            dram_bytes_accessed: 0,
        }
    }

    /// `optane-M`: `dram_bytes` of DRAM cache in front of the PMM.
    #[must_use]
    pub fn memory_mode(dram_bytes: u64) -> Self {
        OptanePlatform {
            name: "optane-M".to_owned(),
            dram_cache: Some(LruPageCache::new((dram_bytes / OS_PAGE) as usize)),
            ..Self::app_direct()
        }
    }

    /// One media access: at least one 256 B internal block moves, streamed
    /// back to back at the media bandwidth.
    fn media_access(&mut self, size: u64, is_write: bool, now: Nanos) -> Nanos {
        let moved = size.max(Self::INTERNAL_BLOCK);
        let stream = Nanos::from_nanos_f64(moved as f64 / Self::MEDIA_BANDWIDTH * 1e9);
        let latency = if is_write {
            self.media_writes += 1;
            Self::WRITE_LATENCY
        } else {
            self.media_reads += 1;
            Self::READ_LATENCY
        };
        let bus = self.ddr.transfer(moved, now);
        bus.finished_at + latency + stream
    }
}

impl Platform for OptanePlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let finished = if let Some(cache) = &mut self.dram_cache {
            let page = access.addr / OS_PAGE;
            if cache.access(page, access.is_write).is_hit() {
                self.dram_bytes_accessed += access.size;
                self.ddr.transfer(access.size, now).finished_at + Nanos::from_nanos(30)
            } else {
                // Fetch the 4 KB page from the PMM into the DRAM cache.
                self.media_access(OS_PAGE, false, now)
            }
        } else {
            self.media_access(access.size, access.is_write, now)
        };
        AccessOutcome {
            finished_at: finished,
            os_time: Nanos::ZERO,
            ssd_time: Nanos::ZERO,
            memory_time: finished - now,
        }
    }

    /// Direct-attach batch path for `optane-P`: the DRAM-cache branch is
    /// resolved once per batch and every access streams through the media
    /// model into the caller's reused outcome buffer. `optane-M` keeps the
    /// per-access fallback.
    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        let mut t = start;
        if self.dram_cache.is_none() {
            for request in batch {
                let issued_at = t + request.compute;
                let finished =
                    self.media_access(request.access.size, request.access.is_write, issued_at);
                out.outcomes.push(AccessOutcome {
                    finished_at: finished,
                    os_time: Nanos::ZERO,
                    ssd_time: Nanos::ZERO,
                    memory_time: finished - issued_at,
                });
                t = finished;
            }
        } else {
            for request in batch {
                let outcome = self.access(&request.access, t + request.compute);
                t = outcome.finished_at;
                out.outcomes.push(outcome);
            }
        }
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        let mut e = EnergyAccount::new();
        e.add_power("nvdimm", self.power.nvdimm_background_watts * 2.0, elapsed);
        e.add(
            "nvdimm",
            (self.dram_bytes_accessed
                + (self.media_reads + self.media_writes) * Self::INTERNAL_BLOCK) as f64
                * self.power.nvdimm_access_nj_per_byte
                * 3.0
                / 1e9,
        );
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        self.dram_cache.as_ref().map(|c| c.stats().hit_rate())
    }

    fn is_persistent(&self) -> bool {
        self.dram_cache.is_none()
    }
}

/// NVDIMM-C: ULL-Flash shares the DDR4 PHY with a DRAM cache, but DRAM↔flash
/// migration may only proceed during DRAM refresh windows, so a page move
/// costs tens of microseconds (§VI-B).
#[derive(Debug)]
pub struct NvdimmCPlatform {
    dram_cache: LruPageCache,
    ssd: SsdDevice,
    ddr: Ddr4Channel,
    power: PowerParams,
    dram_bytes_accessed: u64,
}

impl NvdimmCPlatform {
    /// Extra delay a page migration pays waiting for (and being chopped
    /// across) DRAM refresh windows; the paper quotes up to 48 µs per page.
    pub const REFRESH_MIGRATION_PENALTY: Nanos = Nanos::from_micros(40);

    /// Creates the platform with `dram_bytes` of DRAM cache.
    #[must_use]
    pub fn new(dram_bytes: u64) -> Self {
        NvdimmCPlatform {
            dram_cache: LruPageCache::new((dram_bytes / OS_PAGE) as usize),
            ssd: SsdDevice::new(SsdConfig::ull_flash()),
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2666()),
            power: PowerParams::paper_default(),
            dram_bytes_accessed: 0,
        }
    }

    /// Replaces the SSD with one whose internal DRAM holds `bytes` (used by
    /// scaled-down experiments to preserve the paper's capacity ratios).
    #[must_use]
    pub fn with_ssd_dram_bytes(mut self, bytes: u64) -> Self {
        let mut cfg = SsdConfig::ull_flash();
        cfg.dram_capacity_bytes = bytes;
        self.ssd = SsdDevice::new(cfg);
        self
    }

    fn migrate(&mut self, page: u64, is_write: bool, now: Nanos) -> Nanos {
        let cmd = if is_write {
            NvmeCommand::write(1, page * OS_PAGE / LBA_SIZE, OS_PAGE, PrpList::single(0))
        } else {
            NvmeCommand::read(1, page * OS_PAGE / LBA_SIZE, OS_PAGE, PrpList::single(0))
        };
        let device = self
            .ssd
            .service(&cmd, now)
            .map(|c| c.finished_at)
            .unwrap_or(now);
        let bus = self.ddr.transfer(OS_PAGE, device);
        bus.finished_at + Self::REFRESH_MIGRATION_PENALTY
    }
}

impl Platform for NvdimmCPlatform {
    fn name(&self) -> &str {
        "nvdimm-C"
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let page = access.addr / OS_PAGE;
        let outcome = self.dram_cache.access(page, access.is_write);
        let mut t = now;
        if !outcome.is_hit() {
            t = self.migrate(page, false, t);
            if let CacheOutcome::MissEvictDirty { victim } = outcome {
                t = self.migrate(victim, true, t);
            }
        }
        self.dram_bytes_accessed += access.size;
        let served = self.ddr.transfer(access.size, t).finished_at + Nanos::from_nanos(30);
        AccessOutcome {
            finished_at: served,
            os_time: Nanos::ZERO,
            ssd_time: Nanos::ZERO,
            memory_time: served - now,
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
        e.add("znand", znand_energy(&self.power, &self.ssd));
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        Some(self.dram_cache.stats().hit_rate())
    }

    fn is_persistent(&self) -> bool {
        false
    }
}

/// The oracle: a hypothetical 512 GB NVDIMM that holds every dataset
/// entirely, so all accesses complete at DRAM speed.
#[derive(Debug)]
pub struct OraclePlatform {
    ddr: Ddr4Channel,
    power: PowerParams,
    bytes_accessed: u64,
}

impl OraclePlatform {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> Self {
        OraclePlatform {
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2133()),
            power: PowerParams::paper_default(),
            bytes_accessed: 0,
        }
    }
}

impl Default for OraclePlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for OraclePlatform {
    fn name(&self) -> &str {
        "oracle"
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        self.bytes_accessed += access.size;
        let served = self.ddr.transfer(access.size, now).finished_at + Nanos::from_nanos(30);
        AccessOutcome {
            finished_at: served,
            os_time: Nanos::ZERO,
            ssd_time: Nanos::ZERO,
            memory_time: served - now,
        }
    }

    /// Batch path: the energy byte counter is accumulated once per batch and
    /// the caller's outcome buffer is reused; each access still takes its
    /// own DDR4 grant so contention timing is identical to the per-access
    /// path.
    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        let mut t = start;
        let mut bytes = 0u64;
        for request in batch {
            let issued_at = t + request.compute;
            bytes += request.access.size;
            let served = self
                .ddr
                .transfer(request.access.size, issued_at)
                .finished_at
                + Nanos::from_nanos(30);
            out.outcomes.push(AccessOutcome {
                finished_at: served,
                os_time: Nanos::ZERO,
                ssd_time: Nanos::ZERO,
                memory_time: served - issued_at,
            });
            t = served;
        }
        self.bytes_accessed += bytes;
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        let mut e = EnergyAccount::new();
        e.add_power("nvdimm", self.power.nvdimm_background_watts * 4.0, elapsed);
        e.add(
            "nvdimm",
            self.bytes_accessed as f64 * self.power.nvdimm_access_nj_per_byte / 1e9,
        );
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        Some(1.0)
    }

    fn is_persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, is_write: bool, size: u64) -> Access {
        Access {
            addr,
            size,
            is_write,
            compute_instructions: 0,
        }
    }

    #[test]
    fn flatflash_p_cache_line_access_is_microseconds() {
        let mut p = FlatFlashPlatform::persistent();
        let o = p.access(&acc(0, false, 64), Nanos::ZERO);
        let us = o.latency(Nanos::ZERO).as_micros_f64();
        assert!(us > 1.0 && us < 10.0, "flatflash-P 64B access was {us}us");
        assert!(p.is_persistent());
    }

    #[test]
    fn flatflash_m_beats_flatflash_p_on_reuse() {
        let mut pp = FlatFlashPlatform::persistent();
        let mut pm = FlatFlashPlatform::memory_cached(1 << 20);
        let mut tp = Nanos::ZERO;
        let mut tm = Nanos::ZERO;
        for i in 0..64u64 {
            let a = acc((i % 8) * 64, false, 64);
            tp = pp.access(&a, tp).finished_at;
            tm = pm.access(&a, tm).finished_at;
        }
        assert!(tm < tp, "cached FlatFlash ({tm}) should beat direct ({tp})");
        assert!(!pm.is_persistent());
        assert!(pm.hit_rate().unwrap() > 0.8);
    }

    #[test]
    fn optane_p_fine_grained_access_wastes_bandwidth() {
        let mut p = OptanePlatform::app_direct();
        let small = p
            .access(&acc(0, false, 64), Nanos::ZERO)
            .latency(Nanos::ZERO);
        let t1 = Nanos::from_millis(1);
        let block = p.access(&acc(4096, false, 256), t1).latency(t1);
        // A 64 B request costs the same as a 256 B one: the internal block.
        assert_eq!(small, block);
        assert!(p.is_persistent());
    }

    #[test]
    fn optane_m_caches_and_loses_persistence() {
        let mut p = OptanePlatform::memory_mode(1 << 20);
        let a = p.access(&acc(0, false, 64), Nanos::ZERO);
        let b = p.access(&acc(64, false, 64), a.finished_at);
        assert!(b.latency(a.finished_at) < a.latency(Nanos::ZERO));
        assert!(!p.is_persistent());
    }

    #[test]
    fn nvdimm_c_migration_penalty_dominates_misses() {
        let mut p = NvdimmCPlatform::new(1 << 20);
        let miss = p.access(&acc(0, false, 64), Nanos::ZERO);
        assert!(miss.latency(Nanos::ZERO) >= NvdimmCPlatform::REFRESH_MIGRATION_PENALTY);
        let hit = p.access(&acc(64, false, 64), miss.finished_at);
        assert!(hit.latency(miss.finished_at) < Nanos::from_micros(1));
    }

    #[test]
    fn oracle_serves_everything_at_dram_speed() {
        let mut p = OraclePlatform::new();
        let o = p.access(&acc(123 << 20, true, 64), Nanos::ZERO);
        assert!(o.latency(Nanos::ZERO) < Nanos::from_nanos(200));
        assert_eq!(p.hit_rate(), Some(1.0));
        assert!(p.is_persistent());
        assert!(p.device_energy(Nanos::from_millis(1)).total_joules() > 0.0);
    }
}
