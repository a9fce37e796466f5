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

/// Timing of the register-based command interface. The 8-beat data burst
/// itself is timed as a 64-byte transfer on the DDR4 channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegisterInterfaceConfig {
    /// DDR4 clock period; the CS# deselect plus write-command setup takes two
    /// of these before the burst (Fig. 12).
    pub command_setup: Nanos,
}

impl RegisterInterfaceConfig {
    /// Default timing at DDR4-2666 (0.75 ns cycle).
    #[must_use]
    pub fn ddr4_2666() -> Self {
        RegisterInterfaceConfig {
            command_setup: Nanos::from_nanos(2),
        }
    }
}

/// Bytes of one NVMe command: a submission-queue entry is 64 bytes.
const COMMAND_BYTES: u64 = 64;

/// The register-based command path between the HAMS controller and the
/// DDR4-attached NVMe controller.
///
/// Every command is one 64-byte burst, so the interface resolves its timing
/// once, against the channel it sends over, when it is built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterInterface {
    /// CS# deselect plus write-command setup before the burst.
    setup: Nanos,
    /// Wire time of the 64-byte command burst on the channel.
    burst: Nanos,
}

impl RegisterInterface {
    /// Creates the interface with `config`'s timing in front of `channel`.
    #[must_use]
    pub fn new(config: RegisterInterfaceConfig, channel: &Ddr4Channel) -> Self {
        RegisterInterface {
            setup: config.command_setup,
            burst: channel.service_time(COMMAND_BYTES),
        }
    }

    /// Time to send one command over an idle channel: the setup plus the
    /// burst.
    #[must_use]
    pub fn command_time(&self) -> Nanos {
        self.setup + self.burst
    }

    /// Writes one 64-byte NVMe command into the device's data-buffer
    /// registers over `channel`, the shared DDR4 channel the interface was
    /// built against.
    ///
    /// The cost is the CS#/write-command setup plus a single 64-byte burst on
    /// the channel — a few nanoseconds, versus the ~µs doorbell/BAR round
    /// trip of the PCIe path.
    #[inline]
    pub fn send_command(&self, channel: &mut Ddr4Channel, now: Nanos) -> Transfer {
        let t = channel.occupy(self.burst, now + self.setup);
        Transfer {
            finished_at: t.finished_at,
            service: t.service + self.setup,
            wait: t.wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr4::Ddr4Config;

    fn interface(ch: &Ddr4Channel) -> RegisterInterface {
        RegisterInterface::new(RegisterInterfaceConfig::ddr4_2666(), ch)
    }

    #[test]
    fn command_send_is_nanoseconds_not_microseconds() {
        let mut ch = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        let iface = interface(&ch);
        let t = iface.send_command(&mut ch, Nanos::ZERO);
        assert!(t.finished_at < Nanos::from_nanos(50), "{}", t.finished_at);
        assert_eq!(t.latency(), iface.command_time());
    }

    #[test]
    fn command_send_contends_with_data_traffic() {
        let mut ch = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        let iface = interface(&ch);
        ch.transfer(4096, Nanos::ZERO); // outstanding page fill
        let t = iface.send_command(&mut ch, Nanos::ZERO);
        assert!(t.wait > Nanos::ZERO);
    }

    #[test]
    fn the_resolved_command_time_is_the_setup_plus_one_burst() {
        let ch = Ddr4Channel::new(Ddr4Config::ddr4_2666());
        assert_eq!(
            interface(&ch).command_time(),
            RegisterInterfaceConfig::ddr4_2666().command_setup + ch.service_time(COMMAND_BYTES)
        );
    }
}
