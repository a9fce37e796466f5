//! PCIe link model.
//!
//! ULL-Flash attaches over PCIe 3.0 x4 — 4 GB/s of raw bandwidth, far below
//! the 20 GB/s of a DDR4 channel, plus packetisation overhead for every
//! transaction-layer packet. This asymmetry is the first inefficiency the
//! advanced HAMS removes (§IV-C): in the baseline design every NVDIMM cache
//! miss crosses this link.

use hams_sim::{Nanos, Resource};
use serde::{Deserialize, Serialize};

use crate::ddr4::Transfer;

/// Configuration of a PCIe link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieConfig {
    /// Number of lanes.
    pub lanes: u32,
    /// Usable bandwidth per lane in bytes per second (PCIe 3.0: ~0.985 GB/s
    /// after 128b/130b encoding).
    pub lane_bandwidth_bytes_per_sec: f64,
    /// Maximum transaction-layer packet payload in bytes.
    pub max_payload_bytes: u64,
    /// Fixed per-TLP overhead: header serialisation, DLLP acknowledgement,
    /// root-complex traversal.
    pub per_packet_overhead: Nanos,
}

impl PcieConfig {
    /// PCIe 3.0 x4 — the link both ULL-Flash and the Intel 750 use in the
    /// paper's testbed.
    #[must_use]
    pub fn gen3_x4() -> Self {
        PcieConfig {
            lanes: 4,
            lane_bandwidth_bytes_per_sec: 0.985e9,
            max_payload_bytes: 4096,
            per_packet_overhead: Nanos::from_nanos(250),
        }
    }

    /// Aggregate link bandwidth in bytes per second.
    #[must_use]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.lane_bandwidth_bytes_per_sec * f64::from(self.lanes)
    }
}

/// A PCIe link with FCFS arbitration.
///
/// # Example
///
/// ```
/// use hams_interconnect::{PcieConfig, PcieLink};
/// use hams_sim::Nanos;
///
/// let mut link = PcieLink::new(PcieConfig::gen3_x4());
/// let ddr_equivalent = 4096.0 / 20.0e9 * 1e9; // ~205 ns on DDR4
/// let t = link.transfer(4096, Nanos::ZERO);
/// assert!(t.service.as_nanos() as f64 > 4.0 * ddr_equivalent);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PcieLink {
    config: PcieConfig,
    link: Resource,
}

impl PcieLink {
    /// Creates an idle link.
    #[must_use]
    pub fn new(config: PcieConfig) -> Self {
        PcieLink {
            config,
            link: Resource::default(),
        }
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &PcieConfig {
        &self.config
    }

    /// Wire time for `bytes`, including per-packet overhead, without
    /// contention.
    #[must_use]
    pub fn service_time(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let packets = bytes.div_ceil(self.config.max_payload_bytes);
        let wire_ns = bytes as f64 / self.config.bandwidth_bytes_per_sec() * 1e9;
        self.config.per_packet_overhead * packets + Nanos::from_nanos_f64(wire_ns)
    }

    /// Moves `bytes` over the link starting no earlier than `now`.
    pub fn transfer(&mut self, bytes: u64, now: Nanos) -> Transfer {
        self.occupy(self.service_time(bytes), now)
    }

    /// Holds the link for `service`, a transfer's wire time resolved ahead
    /// with [`Self::service_time`], starting no earlier than `now`.
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

    #[test]
    fn gen3_x4_bandwidth_is_about_4_gbs() {
        let c = PcieConfig::gen3_x4();
        let gbs = c.bandwidth_bytes_per_sec() / 1e9;
        assert!(gbs > 3.8 && gbs < 4.1, "bandwidth {gbs} GB/s");
    }

    #[test]
    fn four_kb_takes_over_a_microsecond() {
        let link = PcieLink::new(PcieConfig::gen3_x4());
        let t = link.service_time(4096);
        assert!(
            t > Nanos::from_nanos(1_200) && t < Nanos::from_nanos(1_600),
            "{t}"
        );
    }

    #[test]
    fn pcie_is_slower_than_ddr4_for_the_same_payload() {
        use crate::ddr4::{Ddr4Channel, Ddr4Config};
        let pcie = PcieLink::new(PcieConfig::gen3_x4());
        let ddr = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        assert!(pcie.service_time(4096) > ddr.service_time(4096) * 4);
    }

    #[test]
    fn large_transfers_pay_per_packet_overhead() {
        let link = PcieLink::new(PcieConfig::gen3_x4());
        let one = link.service_time(4096);
        let four = link.service_time(16 * 1024);
        assert!(four > one * 3, "payload scaling lost: {one} vs {four}");
    }

    #[test]
    fn contention_queues_transfers() {
        let mut link = PcieLink::new(PcieConfig::gen3_x4());
        let a = link.transfer(4096, Nanos::ZERO);
        let b = link.transfer(4096, Nanos::ZERO);
        assert!(b.finished_at > a.finished_at);
        assert_eq!(b.wait, a.service);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut link = PcieLink::new(PcieConfig::gen3_x4());
        assert_eq!(link.transfer(0, Nanos::ZERO).service, Nanos::ZERO);
    }
}
