//! The NVDIMM-N device model.
//!
//! NVDIMM-N (JEDEC standard) is DRAM plus an equal-sized backup flash, a
//! supercapacitor and multiplexers: the host sees ordinary DRAM timing, and on
//! power failure an on-DIMM controller streams the DRAM contents into the
//! backup flash (taking tens of seconds), restoring them on the next boot
//! (§II-A). This module models the DRAM array timing, the backup/restore
//! procedure and the capacity accounting HAMS builds on.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

/// Configuration of one NVDIMM-N module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvdimmConfig {
    /// DRAM (and therefore backup-flash) capacity in bytes.
    pub capacity_bytes: u64,
    /// Array access latency for the first beat of a row (tRCD + tCL).
    pub array_latency: Nanos,
    /// Internal bandwidth when streaming a whole row/page, bytes per second.
    pub array_bandwidth_bytes_per_sec: f64,
    /// Bandwidth of the backup path from DRAM into the on-DIMM flash.
    pub backup_bandwidth_bytes_per_sec: f64,
    /// Bandwidth of the restore path from on-DIMM flash back to DRAM.
    pub restore_bandwidth_bytes_per_sec: f64,
}

impl NvdimmConfig {
    /// The 8 GB DDR4-2133 NVDIMM used by the paper's testbed (Table II,
    /// HPE 8 GB NVDIMM single-rank ×4).
    #[must_use]
    pub fn hpe_8gb() -> Self {
        NvdimmConfig {
            capacity_bytes: 8 * 1024 * 1024 * 1024,
            array_latency: Nanos::from_nanos(30),
            array_bandwidth_bytes_per_sec: 17.0e9,
            // Backing up 8 GB in "tens of seconds" implies a few hundred MB/s.
            backup_bandwidth_bytes_per_sec: 400.0e6,
            restore_bandwidth_bytes_per_sec: 800.0e6,
        }
    }

    /// A small module for unit tests (64 MB).
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        NvdimmConfig {
            capacity_bytes: 64 * 1024 * 1024,
            ..Self::hpe_8gb()
        }
    }
}

/// Accounting counters for an NVDIMM module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvdimmStats {
    /// Read accesses served.
    pub reads: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Backup operations performed (power failures survived).
    pub backups: u64,
    /// Restore operations performed.
    pub restores: u64,
}

/// Power state of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NvdimmPowerState {
    /// Normal operation; DRAM contents live.
    Operational,
    /// Power lost; contents parked in the on-DIMM backup flash.
    BackedUp,
}

/// An NVDIMM-N module.
///
/// # Example
///
/// ```
/// use hams_nvdimm::{Nvdimm, NvdimmConfig};
///
/// let mut dimm = Nvdimm::new(NvdimmConfig::hpe_8gb());
/// let read = dimm.read(4096);
/// assert!(read.as_nanos() > 0);
/// // A power failure triggers the supercapacitor-powered backup, which takes
/// // tens of seconds for 8 GB, and the data survives.
/// let backup = dimm.power_fail();
/// assert!(backup.as_secs_f64() > 5.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nvdimm {
    config: NvdimmConfig,
    state: NvdimmPowerState,
    stats: NvdimmStats,
    /// Rolling memo of the last access sizes' array latencies. The serving
    /// path reads/writes the same one or two CPU access sizes millions of
    /// times per run, and the `f64` bandwidth division in
    /// [`Self::access_latency`] dominated the per-access bookkeeping. The
    /// memo caches the exact `access_latency` result per byte count, so
    /// timing stays byte-identical. The default entries map 0 bytes to zero
    /// time — exactly `access_latency(0)` — so a cold memo is valid. The
    /// HAMS controller resolves its MoS page's latency once and records
    /// page accesses with [`Self::record_read`] and [`Self::record_write`].
    #[serde(skip)]
    latency_memo: [(u64, Nanos); 2],
}

impl Nvdimm {
    /// Creates an operational module.
    #[must_use]
    pub fn new(config: NvdimmConfig) -> Self {
        Nvdimm {
            config,
            state: NvdimmPowerState::Operational,
            stats: NvdimmStats::default(),
            latency_memo: [(0, Nanos::ZERO); 2],
        }
    }

    /// The module configuration.
    #[must_use]
    pub fn config(&self) -> &NvdimmConfig {
        &self.config
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    /// Current power state.
    #[must_use]
    pub fn power_state(&self) -> NvdimmPowerState {
        self.state
    }

    /// Accounting counters.
    #[must_use]
    pub fn stats(&self) -> &NvdimmStats {
        &self.stats
    }

    /// Array-side latency of an access of `bytes` (excludes the DDR4 bus,
    /// which the interconnect crate charges separately).
    #[must_use]
    pub fn access_latency(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let stream =
            Nanos::from_nanos_f64(bytes as f64 / self.config.array_bandwidth_bytes_per_sec * 1e9);
        self.config.array_latency + stream
    }

    /// [`Self::access_latency`] through the rolling memo (hot-path form).
    #[inline]
    fn memoized_latency(&mut self, bytes: u64) -> Nanos {
        if self.latency_memo[0].0 == bytes {
            return self.latency_memo[0].1;
        }
        if self.latency_memo[1].0 == bytes {
            self.latency_memo.swap(0, 1);
            return self.latency_memo[0].1;
        }
        let latency = self.access_latency(bytes);
        self.latency_memo[1] = self.latency_memo[0];
        self.latency_memo[0] = (bytes, latency);
        latency
    }

    /// Records a read of `bytes` and returns its array latency.
    pub fn read(&mut self, bytes: u64) -> Nanos {
        self.record_read(bytes);
        self.memoized_latency(bytes)
    }

    /// Records a write of `bytes` and returns its array latency.
    pub fn write(&mut self, bytes: u64) -> Nanos {
        self.record_write(bytes);
        self.memoized_latency(bytes)
    }

    /// Records a read of `bytes` whose array latency the caller resolved
    /// ahead with [`Self::access_latency`].
    #[inline]
    pub fn record_read(&mut self, bytes: u64) {
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
    }

    /// Records a write of `bytes` whose array latency the caller resolved
    /// ahead with [`Self::access_latency`].
    #[inline]
    pub fn record_write(&mut self, bytes: u64) {
        self.stats.writes += 1;
        self.stats.bytes_written += bytes;
    }

    /// Duration of a full backup of the DRAM contents to the on-DIMM flash.
    #[must_use]
    pub fn backup_duration(&self) -> Nanos {
        Nanos::from_nanos_f64(
            self.config.capacity_bytes as f64 / self.config.backup_bandwidth_bytes_per_sec * 1e9,
        )
    }

    /// Duration of a full restore from the on-DIMM flash to DRAM.
    #[must_use]
    pub fn restore_duration(&self) -> Nanos {
        Nanos::from_nanos_f64(
            self.config.capacity_bytes as f64 / self.config.restore_bandwidth_bytes_per_sec * 1e9,
        )
    }

    /// Injects a power failure: the supercapacitor powers a backup of the
    /// DRAM into the on-DIMM flash. Returns the backup duration. Contents are
    /// preserved (that is the point of NVDIMM-N).
    pub fn power_fail(&mut self) -> Nanos {
        self.state = NvdimmPowerState::BackedUp;
        self.stats.backups += 1;
        self.backup_duration()
    }

    /// Restores the module after power returns. Returns the restore duration.
    ///
    /// # Panics
    ///
    /// Panics if the module is already operational (restoring a live module
    /// indicates a platform sequencing bug).
    pub fn power_restore(&mut self) -> Nanos {
        assert!(
            self.state == NvdimmPowerState::BackedUp,
            "power_restore called on an operational NVDIMM"
        );
        self.state = NvdimmPowerState::Operational;
        self.stats.restores += 1;
        self.restore_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_latency_scales_with_size() {
        let dimm = Nvdimm::new(NvdimmConfig::hpe_8gb());
        let small = dimm.access_latency(64);
        let page = dimm.access_latency(4096);
        assert!(page > small);
        // 4 KB at 17 GB/s is ~240 ns plus 30 ns array latency.
        assert!(
            page > Nanos::from_nanos(200) && page < Nanos::from_nanos(400),
            "{page}"
        );
        assert_eq!(dimm.access_latency(0), Nanos::ZERO);
    }

    #[test]
    fn dram_4kb_access_is_much_faster_than_z_nand_read() {
        let dimm = Nvdimm::new(NvdimmConfig::hpe_8gb());
        // Z-NAND read is 3 µs; the paper quotes ULL 4 KB read as 3.3× a DDR4
        // access. The array-side figure must stay well under 3 µs.
        assert!(dimm.access_latency(4096) < Nanos::from_micros(3));
    }

    #[test]
    fn reads_and_writes_are_accounted() {
        let mut dimm = Nvdimm::new(NvdimmConfig::tiny_for_tests());
        dimm.read(4096);
        dimm.write(64);
        dimm.write(64);
        let s = dimm.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 128);
        // Recording an access whose latency was resolved ahead counts alike.
        dimm.record_read(4096);
        dimm.record_write(8192);
        let s = dimm.stats();
        assert_eq!((s.reads, s.bytes_read), (2, 8192));
        assert_eq!((s.writes, s.bytes_written), (3, 8320));
    }

    #[test]
    fn memoized_accesses_match_access_latency_for_alternating_sizes() {
        let mut dimm = Nvdimm::new(NvdimmConfig::hpe_8gb());
        let reference = Nvdimm::new(NvdimmConfig::hpe_8gb());
        // Alternate three sizes so the two-entry memo keeps evicting; every
        // recorded access must still equal the uncached computation.
        for i in 0..64u64 {
            let bytes = [64u64, 8192, 65, 0][i as usize % 4];
            let got = if i % 2 == 0 {
                dimm.read(bytes)
            } else {
                dimm.write(bytes)
            };
            assert_eq!(got, reference.access_latency(bytes), "bytes={bytes}");
        }
    }

    #[test]
    fn backup_takes_tens_of_seconds_for_8gb() {
        let mut dimm = Nvdimm::new(NvdimmConfig::hpe_8gb());
        let backup = dimm.power_fail();
        assert!(
            backup.as_secs_f64() > 10.0 && backup.as_secs_f64() < 60.0,
            "{backup}"
        );
        assert_eq!(dimm.power_state(), NvdimmPowerState::BackedUp);
        let restore = dimm.power_restore();
        assert!(restore < backup);
        assert_eq!(dimm.power_state(), NvdimmPowerState::Operational);
        assert_eq!(dimm.stats().backups, 1);
        assert_eq!(dimm.stats().restores, 1);
    }

    #[test]
    #[should_panic(expected = "operational")]
    fn restoring_live_module_panics() {
        let mut dimm = Nvdimm::new(NvdimmConfig::tiny_for_tests());
        let _ = dimm.power_restore();
    }
}
