//! CXL link model.
//!
//! The CXL attach mode moves pages across a CXL.mem-style link instead of
//! the PCIe data path or the DDR4 register interface. The model
//! captures what distinguishes CXL from PCIe at the transaction level: the
//! same serial PHY, but flit-based framing (68-byte flits carrying 64 bytes
//! of payload) instead of transaction-layer packets, so a transfer pays two
//! fixed port crossings rather than a per-packet header tax. The resulting
//! bandwidth ordering is the architectural point: a CXL x4 port lands
//! between PCIe 3.0 x4 (~4 GB/s) and a DDR4 channel (~20 GB/s), so a
//! CXL-attached archive outruns the loosely-coupled PCIe attach while still
//! trailing the tightly-integrated DDR4 attach.

use hams_sim::{Nanos, Resource};
use serde::{Deserialize, Serialize};

use crate::ddr4::Transfer;

/// Configuration of a CXL link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CxlConfig {
    /// Number of PHY lanes.
    pub lanes: u32,
    /// Usable bandwidth per lane in bytes per second (Gen5 PHY: ~3.94 GB/s).
    pub lane_bandwidth_bytes_per_sec: f64,
    /// Flit payload bytes (CXL carries 64-byte slots).
    pub flit_payload_bytes: u64,
    /// Flit wire bytes including framing and CRC (68 per 64-byte payload).
    pub flit_wire_bytes: u64,
    /// Fixed latency of one port crossing (ingress or egress).
    pub port_latency: Nanos,
    /// Latency of submitting one NVMe command over the CXL.io path (doorbell
    /// plus command fetch) — cheaper than a PCIe BAR doorbell, dearer than
    /// the DDR4 register interface.
    pub command_overhead: Nanos,
}

impl CxlConfig {
    /// A CXL x4 port on a Gen5 PHY: ~14.8 GB/s usable after flit framing —
    /// between PCIe 3.0 x4 and a DDR4-2666 channel.
    #[must_use]
    pub fn cxl_x4() -> Self {
        CxlConfig {
            lanes: 4,
            lane_bandwidth_bytes_per_sec: 3.938e9,
            flit_payload_bytes: 64,
            flit_wire_bytes: 68,
            port_latency: Nanos::from_nanos(90),
            command_overhead: Nanos::from_nanos(200),
        }
    }

    /// Aggregate usable bandwidth in bytes of payload per second, after the
    /// flit-framing efficiency.
    #[must_use]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        let efficiency = self.flit_payload_bytes as f64 / self.flit_wire_bytes.max(1) as f64;
        self.lane_bandwidth_bytes_per_sec * f64::from(self.lanes) * efficiency
    }
}

/// A CXL link with FCFS arbitration.
///
/// # Example
///
/// ```
/// use hams_interconnect::{CxlConfig, CxlLink, PcieConfig, PcieLink};
///
/// let cxl = CxlLink::new(CxlConfig::cxl_x4());
/// let pcie = PcieLink::new(PcieConfig::gen3_x4());
/// // Moving a 4 KB page over CXL beats PCIe 3.0 x4.
/// assert!(cxl.service_time(4096) < pcie.service_time(4096));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CxlLink {
    config: CxlConfig,
    link: Resource,
}

impl CxlLink {
    /// Creates an idle link.
    #[must_use]
    pub fn new(config: CxlConfig) -> Self {
        CxlLink {
            config,
            link: Resource::default(),
        }
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &CxlConfig {
        &self.config
    }

    /// Wire time for `bytes` — two port crossings plus the flit-framed
    /// payload time — without contention.
    #[must_use]
    pub fn service_time(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let wire_ns = bytes as f64 / self.config.bandwidth_bytes_per_sec() * 1e9;
        self.config.port_latency * 2 + Nanos::from_nanos_f64(wire_ns)
    }

    /// Holds the link for `service`, a transfer's wire time resolved ahead
    /// with [`Self::service_time`], starting no earlier than `now`: the
    /// controller resolves its MoS page's time once, when it is built.
    #[inline]
    pub fn occupy(&mut self, service: Nanos, now: Nanos) -> Transfer {
        let grant = self.link.acquire(now, service);
        Transfer {
            finished_at: grant.end,
            service,
            wait: grant.wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr4::{Ddr4Channel, Ddr4Config};
    use crate::pcie::{PcieConfig, PcieLink};

    #[test]
    fn cxl_x4_bandwidth_sits_between_pcie_g3x4_and_ddr4() {
        let cxl = CxlConfig::cxl_x4().bandwidth_bytes_per_sec();
        let pcie = PcieConfig::gen3_x4().bandwidth_bytes_per_sec();
        assert!(
            cxl > pcie * 2.0,
            "CXL ({cxl}) should clearly beat PCIe g3x4"
        );
        assert!(cxl < 20.0e9, "CXL x4 ({cxl}) must trail a DDR4 channel");
    }

    #[test]
    fn page_transfer_ordering_ddr4_cxl_pcie() {
        let cxl = CxlLink::new(CxlConfig::cxl_x4());
        let pcie = PcieLink::new(PcieConfig::gen3_x4());
        let ddr = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        for bytes in [4096u64, 32 * 1024, 128 * 1024] {
            assert!(
                ddr.service_time(bytes) < cxl.service_time(bytes),
                "{bytes}B: DDR4 must beat CXL"
            );
            assert!(
                cxl.service_time(bytes) < pcie.service_time(bytes),
                "{bytes}B: CXL must beat PCIe g3x4"
            );
        }
    }

    #[test]
    fn contention_queues_transfers() {
        let mut link = CxlLink::new(CxlConfig::cxl_x4());
        let page = link.service_time(4096);
        let a = link.occupy(page, Nanos::ZERO);
        let b = link.occupy(page, Nanos::ZERO);
        assert!(b.finished_at > a.finished_at);
        assert_eq!(b.wait, a.service);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut link = CxlLink::new(CxlConfig::cxl_x4());
        assert_eq!(link.service_time(0), Nanos::ZERO);
        let t = link.occupy(link.service_time(0), Nanos::from_nanos(5));
        assert_eq!(t.finished_at, Nanos::from_nanos(5));
    }
}
