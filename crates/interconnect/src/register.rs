//! Register-based command interface of the advanced HAMS design.
//!
//! Advanced HAMS detaches ULL-Flash from PCIe and puts its NVMe controller on
//! the DDR4 bus (§V-A, Fig. 12). Commands travel as 64-byte bursts written to
//! the device's data-buffer registers (CS# deselect of the NVDIMM, a write
//! command, then an 8-beat data burst). The paper's lock register, which
//! hands bus mastership to the NVMe controller for its DMA, is not modelled:
//! taking the bus costs no simulated time.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

use crate::ddr4::{Ddr4Channel, Transfer};

/// Timing of the register-based command interface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegisterInterfaceConfig {
    /// DDR4 clock period; the CS# deselect plus write-command setup takes two
    /// of these before the burst (Fig. 12).
    pub command_setup: Nanos,
    /// Number of data beats per 64-byte command burst.
    pub burst_beats: u32,
}

impl RegisterInterfaceConfig {
    /// Default timing at DDR4-2666 (0.75 ns cycle, 8-beat burst).
    #[must_use]
    pub fn ddr4_2666() -> Self {
        RegisterInterfaceConfig {
            command_setup: Nanos::from_nanos(2),
            burst_beats: 8,
        }
    }
}

/// The register-based command path between the HAMS controller and the
/// DDR4-attached NVMe controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterInterface {
    config: RegisterInterfaceConfig,
}

impl RegisterInterface {
    /// Creates the interface with the given timing.
    #[must_use]
    pub fn new(config: RegisterInterfaceConfig) -> Self {
        RegisterInterface { config }
    }

    /// Writes one 64-byte NVMe command into the device's data-buffer
    /// registers over the shared DDR4 channel.
    ///
    /// The cost is the CS#/write-command setup plus a single 64-byte burst on
    /// the channel — a few nanoseconds, versus the ~µs doorbell/BAR round
    /// trip of the PCIe path.
    pub fn send_command(&self, channel: &mut Ddr4Channel, now: Nanos) -> Transfer {
        let setup = self.config.command_setup;
        let t = channel.transfer(64, now + setup);
        Transfer {
            finished_at: t.finished_at,
            service: t.service + setup,
            wait: t.wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr4::Ddr4Config;

    #[test]
    fn command_send_is_nanoseconds_not_microseconds() {
        let iface = RegisterInterface::new(RegisterInterfaceConfig::ddr4_2666());
        let mut ch = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        let t = iface.send_command(&mut ch, Nanos::ZERO);
        assert!(t.finished_at < Nanos::from_nanos(50), "{}", t.finished_at);
    }

    #[test]
    fn command_send_contends_with_data_traffic() {
        let iface = RegisterInterface::new(RegisterInterfaceConfig::ddr4_2666());
        let mut ch = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        ch.transfer(4096, Nanos::ZERO); // outstanding page fill
        let t = iface.send_command(&mut ch, Nanos::ZERO);
        assert!(t.wait > Nanos::ZERO);
    }
}
