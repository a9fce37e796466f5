//! The assembled SSD device: host interface layer, FTL, FIL and internal
//! DRAM serving NVMe commands.
//!
//! [`SsdDevice::service`] is the single entry point: given an NVMe command
//! and the current simulated time it returns when the command finishes,
//! which is all the timing model above the device reads. Presets in
//! [`SsdConfig`] reproduce the three devices the paper characterises
//! (Z-NAND ULL-Flash, an Intel-750-class NVMe SSD, a SATA SSD) plus the
//! DRAM-less ULL-Flash used by advanced HAMS.

use hams_nvme::{NvmeCommand, NvmeOpcode};
use hams_sim::{LruOutcome, LruStats, Nanos, PageLru};
use serde::{Deserialize, Serialize};

use crate::fil::Fil;
use crate::ftl::{Ftl, FtlError};
use crate::geometry::{div_rem, FlashGeometry};
use crate::timing::{FlashOp, NandTiming};

/// NVMe logical-block size used throughout the model (bytes). The paper's
/// request payloads are 4 KB NVMe packets.
pub const LBA_SIZE: u64 = 4096;

/// Configuration of one SSD instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Physical flash organisation.
    pub geometry: FlashGeometry,
    /// Flash and firmware timing.
    pub timing: NandTiming,
    /// Internal DRAM capacity in bytes; 0 disables the buffer (advanced HAMS).
    pub dram_capacity_bytes: u64,
    /// Latency of one internal-DRAM access.
    pub dram_access_latency: Nanos,
    /// Whether 4 KB transfers are striped across two channels (ULL-Flash).
    pub stripe_halves: bool,
    /// Fraction of blocks reserved as over-provisioning.
    pub over_provisioning: f64,
    /// Whether the device carries super-capacitors that flush the internal
    /// DRAM to flash on power failure (added to ULL-Flash by HAMS, §IV-B).
    pub supercap_backed: bool,
}

impl SsdConfig {
    /// The 800 GB Z-NAND ULL-Flash prototype with its 512 MB internal DRAM.
    #[must_use]
    pub fn ull_flash() -> Self {
        SsdConfig {
            geometry: FlashGeometry::ull_flash(),
            timing: NandTiming::z_nand(),
            dram_capacity_bytes: 512 * 1024 * 1024,
            dram_access_latency: Nanos::from_nanos(200),
            stripe_halves: true,
            over_provisioning: 0.07,
            supercap_backed: false,
        }
    }

    /// ULL-Flash with super-capacitors added, as the baseline HAMS requires.
    #[must_use]
    pub fn ull_flash_supercap() -> Self {
        SsdConfig {
            supercap_backed: true,
            ..Self::ull_flash()
        }
    }

    /// ULL-Flash with the internal DRAM removed and the register interface in
    /// mind — the device advanced HAMS attaches directly to DDR4.
    #[must_use]
    pub fn ull_flash_without_dram() -> Self {
        SsdConfig {
            dram_capacity_bytes: 0,
            supercap_backed: true,
            ..Self::ull_flash()
        }
    }

    /// An Intel-750-class high-performance NVMe SSD (TLC V-NAND).
    #[must_use]
    pub fn nvme_750() -> Self {
        SsdConfig {
            geometry: FlashGeometry::nvme_ssd(),
            timing: NandTiming::vnand_tlc(),
            dram_capacity_bytes: 1024 * 1024 * 1024,
            dram_access_latency: Nanos::from_nanos(250),
            stripe_halves: false,
            over_provisioning: 0.07,
            supercap_backed: false,
        }
    }

    /// A SATA SSD (MLC NAND, shallow parallelism, long firmware path).
    #[must_use]
    pub fn sata_ssd() -> Self {
        SsdConfig {
            geometry: FlashGeometry::sata_ssd(),
            timing: NandTiming::sata_mlc(),
            dram_capacity_bytes: 256 * 1024 * 1024,
            dram_access_latency: Nanos::from_nanos(300),
            stripe_halves: false,
            over_provisioning: 0.07,
            supercap_backed: false,
        }
    }

    /// A tiny device for unit tests: small geometry, Z-NAND timing, 16-page
    /// DRAM buffer.
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        SsdConfig {
            geometry: FlashGeometry::tiny(),
            timing: NandTiming::z_nand(),
            dram_capacity_bytes: 16 * 4096,
            dram_access_latency: Nanos::from_nanos(200),
            stripe_halves: true,
            over_provisioning: 0.25,
            supercap_backed: false,
        }
    }
}

/// Completion record returned by [`SsdDevice::service`]: the completion
/// instant plus how the command was split and served. It carries no
/// latency breakdown; the controller charges the whole device time,
/// `finished_at` minus the issue time, to its `ssd` component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoCompletion {
    /// Simulated time at which the command finished inside the device.
    pub finished_at: Nanos,
    /// Number of flash-page sub-requests the command was split into.
    pub sub_requests: u32,
    /// Whether every sub-request was served from the internal DRAM.
    pub served_from_dram: bool,
}

impl IoCompletion {
    /// Device-internal latency relative to the issue time.
    #[must_use]
    pub fn latency(&self, issued_at: Nanos) -> Nanos {
        self.finished_at - issued_at
    }
}

/// Errors surfaced by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SsdError {
    /// The command addressed LBAs beyond the exported capacity.
    OutOfRange,
    /// The flash array ran out of space.
    OutOfSpace,
}

impl std::fmt::Display for SsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsdError::OutOfRange => write!(f, "command addresses beyond device capacity"),
            SsdError::OutOfSpace => write!(f, "flash array out of space"),
        }
    }
}

impl std::error::Error for SsdError {}

impl From<FtlError> for SsdError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::LpnOutOfRange(_) => SsdError::OutOfRange,
            FtlError::OutOfSpace => SsdError::OutOfSpace,
        }
    }
}

/// Device-level accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdStats {
    /// Read commands serviced.
    pub read_commands: u64,
    /// Write commands serviced.
    pub write_commands: u64,
    /// Bytes read by the host.
    pub bytes_read: u64,
    /// Bytes written by the host.
    pub bytes_written: u64,
    /// Flash page programs issued (host + buffer write-back + power-fail
    /// backup flush).
    pub page_programs: u64,
    /// Flash page reads issued.
    pub page_reads: u64,
}

impl SsdStats {
    /// Total commands serviced, reads plus writes — the telemetry "archive
    /// commands" counter.
    #[must_use]
    pub fn total_commands(&self) -> u64 {
        self.read_commands + self.write_commands
    }
}

/// Report of what a power failure did to the device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerLossReport {
    /// Dirty pages that were safely flushed by super-capacitor backup.
    pub flushed_pages: Vec<u64>,
    /// Dirty pages that were lost because no backup power existed.
    pub lost_pages: Vec<u64>,
    /// Time the backup flush took (zero if nothing was flushed).
    pub flush_time: Nanos,
}

/// A complete SSD: HIL + FTL + FIL + internal DRAM.
///
/// The internal DRAM is a write-back [`PageLru`] of flash pages: reads fill
/// it, writes without FUA are acknowledged from it, and a dirty page it
/// evicts is programmed in the background. A zero-byte DRAM (advanced HAMS)
/// sends every page to flash.
///
/// # Example
///
/// ```
/// use hams_flash::{SsdDevice, SsdConfig};
/// use hams_nvme::{NvmeCommand, PrpList};
/// use hams_sim::Nanos;
///
/// let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
/// let write = NvmeCommand::write(1, 0, 4096, PrpList::single(0x1000));
/// let done = ssd.service(&write, Nanos::ZERO).unwrap();
/// assert!(done.finished_at > Nanos::ZERO);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsdDevice {
    config: SsdConfig,
    ftl: Ftl,
    fil: Fil,
    dram: PageLru,
    stats: SsdStats,
}

impl SsdDevice {
    /// Builds a device from its configuration.
    #[must_use]
    pub fn new(config: SsdConfig) -> Self {
        let dram_pages =
            (config.dram_capacity_bytes / u64::from(config.geometry.page_size)) as usize;
        SsdDevice {
            config,
            ftl: Ftl::new(config.geometry, config.over_provisioning),
            fil: Fil::new(config.geometry, config.timing, config.stripe_halves),
            dram: PageLru::new(dram_pages),
            stats: SsdStats::default(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Exported capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.ftl.exported_capacity_bytes()
    }

    /// Device accounting counters.
    #[must_use]
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// FTL accounting (GC, write amplification).
    #[must_use]
    pub fn ftl_stats(&self) -> &crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// Internal DRAM accounting.
    #[must_use]
    pub fn dram_stats(&self) -> &LruStats {
        self.dram.stats()
    }

    /// Whether the internal DRAM buffer is present.
    #[must_use]
    pub fn has_internal_dram(&self) -> bool {
        self.dram.capacity() > 0
    }

    /// Services an NVMe command issued at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::OutOfRange`] or [`SsdError::OutOfSpace`] when the
    /// command cannot be served.
    pub fn service(&mut self, cmd: &NvmeCommand, now: Nanos) -> Result<IoCompletion, SsdError> {
        match cmd.opcode {
            NvmeOpcode::Read => self.service_read(cmd, now),
            NvmeOpcode::Write => self.service_write(cmd, now),
        }
    }

    fn pages_of(&self, cmd: &NvmeCommand) -> (u64, u64) {
        let page = self.config.geometry.page_size;
        let start_byte = cmd.slba * LBA_SIZE;
        let first = div_rem(start_byte, page).0;
        let last = div_rem(start_byte + cmd.length - 1, page).0;
        (first, last)
    }

    fn service_read(&mut self, cmd: &NvmeCommand, now: Nanos) -> Result<IoCompletion, SsdError> {
        let timing = self.config.timing;
        let start = now + timing.hil_overhead;
        let (first, last) = self.pages_of(cmd);
        let mut finish = start;
        let mut firmware_clock = start;
        let mut all_dram = true;
        let mut subs = 0;

        for lpn in first..=last {
            subs += 1;
            firmware_clock += timing.ftl_overhead;
            let outcome = if self.has_internal_dram() {
                self.dram.access(lpn, false)
            } else {
                LruOutcome::Miss
            };
            match outcome {
                LruOutcome::Hit => {
                    finish = finish.max(firmware_clock + self.config.dram_access_latency);
                }
                miss => {
                    all_dram = false;
                    let done = match self.ftl.lookup(lpn) {
                        Some(ppn) => {
                            self.stats.page_reads += 1;
                            self.fil
                                .schedule_page(ppn, FlashOp::Read, firmware_clock)
                                .finished_at
                        }
                        // Never-written page: served as zero-fill by firmware.
                        None => firmware_clock,
                    };
                    // The miss installed the page already; a dirty victim's
                    // write-back starts when the flash read finishes.
                    if let LruOutcome::MissEvictDirty { victim } = miss {
                        self.write_back(victim, done);
                    }
                    finish = finish.max(done);
                }
            }
        }

        self.stats.read_commands += 1;
        self.stats.bytes_read += cmd.length;
        Ok(IoCompletion {
            finished_at: finish,
            sub_requests: subs,
            served_from_dram: all_dram && subs > 0,
        })
    }

    fn service_write(&mut self, cmd: &NvmeCommand, now: Nanos) -> Result<IoCompletion, SsdError> {
        let timing = self.config.timing;
        let start = now + timing.hil_overhead;
        let (first, last) = self.pages_of(cmd);
        let mut finish = start;
        let mut firmware_clock = start;
        let mut all_dram = true;
        let mut subs = 0;
        let buffered = self.has_internal_dram() && !cmd.fua;

        for lpn in first..=last {
            subs += 1;
            firmware_clock += timing.ftl_overhead;
            if buffered {
                if let LruOutcome::MissEvictDirty { victim } = self.dram.access(lpn, true) {
                    // The victim write-back happens in the background; it
                    // occupies flash resources but does not delay this ack.
                    self.write_back(victim, firmware_clock);
                }
                finish = finish.max(firmware_clock + self.config.dram_access_latency);
            } else {
                all_dram = false;
                let outcome = self.ftl.write(lpn)?;
                self.stats.page_programs += 1;
                let mut done = self
                    .fil
                    .schedule_page(outcome.ppn, FlashOp::Program, firmware_clock)
                    .finished_at;
                // GC work triggered by this write delays it (foreground GC).
                for (_, new_ppn) in &outcome.relocated {
                    self.stats.page_programs += 1;
                    let r = self.fil.schedule_page(*new_ppn, FlashOp::Program, done);
                    done = r.finished_at;
                }
                for block in &outcome.erased_blocks {
                    let ppn = (*block as u64) * u64::from(self.config.geometry.pages_per_block);
                    let e = self.fil.schedule_page(ppn, FlashOp::Erase, done);
                    done = e.finished_at;
                }
                finish = finish.max(done);
            }
        }

        self.stats.write_commands += 1;
        self.stats.bytes_written += cmd.length;
        Ok(IoCompletion {
            finished_at: finish,
            sub_requests: subs,
            served_from_dram: all_dram && subs > 0,
        })
    }

    /// Programs a dirty page evicted from the internal DRAM. Background work:
    /// it occupies flash resources from `at` onwards but completion is not
    /// reported to the host.
    fn write_back(&mut self, lpn: u64, at: Nanos) {
        if let Ok(outcome) = self.ftl.write(lpn) {
            self.stats.page_programs += 1;
            let _ = self.fil.schedule_page(outcome.ppn, FlashOp::Program, at);
        }
    }

    /// Injects a power failure at time `now`.
    ///
    /// Super-capacitor-backed devices flush their dirty internal-DRAM pages to
    /// flash (the design HAMS mandates, §IV-B); unprotected devices lose them.
    pub fn power_fail(&mut self, now: Nanos) -> PowerLossReport {
        let dirty = self.dram.drain_dirty();
        if !self.config.supercap_backed {
            return PowerLossReport {
                flushed_pages: Vec::new(),
                lost_pages: dirty,
                flush_time: Nanos::ZERO,
            };
        }
        let mut finish = now;
        for lpn in &dirty {
            if let Ok(outcome) = self.ftl.write(*lpn) {
                self.stats.page_programs += 1;
                let c = self.fil.schedule_page(outcome.ppn, FlashOp::Program, now);
                finish = finish.max(c.finished_at);
            }
        }
        PowerLossReport {
            flushed_pages: dirty,
            lost_pages: Vec::new(),
            flush_time: finish - now,
        }
    }

    /// Fail-stops the device: its controller and volatile internal DRAM go
    /// dark, so every buffered page is gone, supercapacitor or not (no
    /// controller is left to flush it). Returns the dirty pages lost: writes
    /// the device acknowledged but never programmed.
    pub fn fail_stop(&mut self) -> usize {
        self.dram.drain_dirty().len()
    }

    /// Returns `true` if logical page `lpn` is durably stored on flash (not
    /// merely dirty in the internal DRAM).
    #[must_use]
    pub fn is_durable(&self, lpn: u64) -> bool {
        self.ftl.lookup(lpn).is_some()
    }

    /// Every logical page durably stored on flash, ascending — the rebuild
    /// planner's view of what a failed device must regenerate.
    #[must_use]
    pub fn durable_lpns(&self) -> Vec<u64> {
        self.ftl.mapped_lpns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hams_nvme::PrpList;

    fn read_cmd(slba: u64, length: u64) -> NvmeCommand {
        NvmeCommand::read(1, slba, length, PrpList::single(0x1000))
    }

    fn write_cmd(slba: u64, length: u64) -> NvmeCommand {
        NvmeCommand::write(1, slba, length, PrpList::single(0x1000))
    }

    #[test]
    fn ull_flash_4k_read_latency_is_a_few_microseconds() {
        let mut ssd = SsdDevice::new(SsdConfig::ull_flash());
        // Populate the page first so the read touches the array.
        ssd.service(&write_cmd(0, 4096).with_fua(true), Nanos::ZERO)
            .unwrap();
        let t0 = Nanos::from_millis(1);
        let done = ssd.service(&read_cmd(0, 4096), t0).unwrap();
        let lat = done.latency(t0);
        assert!(
            lat >= Nanos::from_micros(3) && lat <= Nanos::from_micros(12),
            "ULL 4KB read latency {lat} outside the paper's ballpark"
        );
    }

    #[test]
    fn nvme_ssd_is_slower_than_ull() {
        let mut ull = SsdDevice::new(SsdConfig::ull_flash());
        let mut nvme = SsdDevice::new(SsdConfig::nvme_750());
        for dev in [&mut ull, &mut nvme] {
            dev.service(&write_cmd(0, 4096).with_fua(true), Nanos::ZERO)
                .unwrap();
        }
        let t0 = Nanos::from_millis(10);
        let a = ull.service(&read_cmd(0, 4096), t0).unwrap().latency(t0);
        let b = nvme.service(&read_cmd(0, 4096), t0).unwrap().latency(t0);
        assert!(
            b > a * 3,
            "NVMe SSD ({b}) should be much slower than ULL ({a})"
        );
    }

    #[test]
    fn buffered_write_is_acknowledged_at_dram_speed() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let done = ssd.service(&write_cmd(0, 4096), Nanos::ZERO).unwrap();
        assert!(done.served_from_dram);
        assert!(done.latency(Nanos::ZERO) < Nanos::from_micros(5));
        assert!(!ssd.is_durable(0), "buffered write must not yet be durable");
    }

    #[test]
    fn fua_write_bypasses_the_buffer() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let done = ssd
            .service(&write_cmd(0, 4096).with_fua(true), Nanos::ZERO)
            .unwrap();
        assert!(!done.served_from_dram);
        assert!(done.latency(Nanos::ZERO) >= Nanos::from_micros(100));
        assert!(ssd.is_durable(0));
    }

    #[test]
    fn large_request_splits_into_page_sub_requests() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let done = ssd.service(&write_cmd(0, 16 * 1024), Nanos::ZERO).unwrap();
        assert_eq!(done.sub_requests, 4);
        assert_eq!(ssd.stats().bytes_written, 16 * 1024);
    }

    #[test]
    fn read_of_never_written_page_is_cheap() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let done = ssd.service(&read_cmd(5, 4096), Nanos::ZERO).unwrap();
        assert!(done.latency(Nanos::ZERO) < Nanos::from_micros(5));
    }

    #[test]
    fn power_fail_without_supercap_loses_dirty_pages() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        ssd.service(&write_cmd(0, 4096), Nanos::ZERO).unwrap();
        let report = ssd.power_fail(Nanos::from_micros(10));
        assert_eq!(report.lost_pages, vec![0]);
        assert!(report.flushed_pages.is_empty());
        assert!(!ssd.is_durable(0));
    }

    #[test]
    fn power_fail_with_supercap_flushes_dirty_pages() {
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.supercap_backed = true;
        let mut ssd = SsdDevice::new(cfg);
        ssd.service(&write_cmd(0, 4096), Nanos::ZERO).unwrap();
        let report = ssd.power_fail(Nanos::from_micros(10));
        assert_eq!(report.flushed_pages, vec![0]);
        assert!(report.lost_pages.is_empty());
        assert!(report.flush_time >= Nanos::from_micros(100));
        assert!(ssd.is_durable(0));
    }

    #[test]
    fn read_miss_into_a_full_dirty_buffer_writes_the_victim_back() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let pages = ssd.config().dram_capacity_bytes / 4096;
        for lba in 0..pages {
            ssd.service(&write_cmd(lba, 4096), Nanos::ZERO).unwrap();
        }
        assert_eq!(ssd.stats().page_programs, 0);
        ssd.service(&read_cmd(pages, 4096), Nanos::from_micros(10))
            .unwrap();
        assert_eq!(ssd.stats().page_programs, 1);
        assert!(ssd.is_durable(0), "the LRU victim is programmed");
        assert!(!ssd.is_durable(1), "only the victim leaves the buffer");
    }

    #[test]
    fn out_of_range_write_is_rejected() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let far = ssd.capacity_bytes() / LBA_SIZE + 10;
        let err = ssd
            .service(&write_cmd(far, 4096).with_fua(true), Nanos::ZERO)
            .unwrap_err();
        assert_eq!(err, SsdError::OutOfRange);
    }

    #[test]
    fn queue_depth_contention_increases_latency() {
        let mut ssd = SsdDevice::new(SsdConfig::ull_flash());
        // Fill a small region so reads hit the array, then hammer one die.
        for i in 0..32u64 {
            ssd.service(&write_cmd(i, 4096).with_fua(true), Nanos::ZERO)
                .unwrap();
        }
        let t0 = Nanos::from_millis(100);
        let single = ssd.service(&read_cmd(0, 4096), t0).unwrap().latency(t0);
        // Issue 32 concurrent reads at the same instant; the last completion
        // reflects queueing.
        let t1 = Nanos::from_millis(200);
        let mut worst = Nanos::ZERO;
        for i in 0..32u64 {
            let done = ssd.service(&read_cmd(i % 4, 4096), t1).unwrap();
            worst = worst.max(done.latency(t1));
        }
        assert!(
            worst > single,
            "contended latency {worst} should exceed idle {single}"
        );
    }

    #[test]
    fn stats_track_commands() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        ssd.service(&write_cmd(0, 4096), Nanos::ZERO).unwrap();
        ssd.service(&read_cmd(0, 4096), Nanos::ZERO).unwrap();
        assert_eq!(ssd.stats().write_commands, 1);
        assert_eq!(ssd.stats().read_commands, 1);
        assert_eq!(ssd.stats().bytes_read, 4096);
    }
}
