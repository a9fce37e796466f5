//! Interconnect models for the HAMS reproduction: the DDR4 memory channel,
//! the PCIe link, the register-based interface that the advanced
//! (tightly-integrated) HAMS uses instead of PCIe, and the CXL link of the
//! CXL attach mode.
//!
//! The bandwidth asymmetry between these two paths — ~20 GB/s per DDR4
//! channel versus ~4 GB/s for PCIe 3.0 x4 — is the architectural motivation
//! for advanced HAMS (§IV-C): in the baseline design every NVDIMM cache miss
//! crosses the slower link and pays PCIe packetisation on top.
//!
//! # Example
//!
//! ```
//! use hams_interconnect::{Ddr4Channel, Ddr4Config, PcieConfig, PcieLink};
//! use hams_sim::Nanos;
//!
//! let ddr = Ddr4Channel::new(Ddr4Config::ddr4_2666());
//! let pcie = PcieLink::new(PcieConfig::gen3_x4());
//! // Moving a 4 KB page is several times more expensive over PCIe.
//! assert!(pcie.service_time(4096) > ddr.service_time(4096) * 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cxl;
pub mod ddr4;
pub mod pcie;
pub mod register;

pub use cxl::{CxlConfig, CxlLink};
pub use ddr4::{Ddr4Channel, Ddr4Config, Transfer};
pub use pcie::{PcieConfig, PcieLink};
pub use register::{RegisterInterface, RegisterInterfaceConfig};
