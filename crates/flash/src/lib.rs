//! Z-NAND ULL-Flash SSD model: geometry, timing, firmware layers (HIL, FTL,
//! FIL), internal DRAM buffer and the assembled device.
//!
//! The paper's HAMS design treats the SSD as a managed archive behind the
//! NVDIMM cache; this crate supplies that archive, faithful to the structure
//! described in §II-C of the paper:
//!
//! * multi-channel / multi-way geometry with die- and plane-level parallelism
//!   ([`geometry`]),
//! * Z-NAND timing (3 µs read / 100 µs program) and conventional-NAND
//!   comparison points ([`timing`]),
//! * a page-mapped flash translation layer with greedy garbage collection
//!   ([`ftl`]),
//! * a flash interface layer that schedules operations onto channel/die
//!   resources, including the ULL-Flash half-page dual-channel striping
//!   ([`fil`]),
//! * the assembled NVMe-command-serving device ([`device`]), whose internal
//!   DRAM buffer, the one advanced HAMS removes, is a [`hams_sim::PageLru`],
//! * the multi-device topology layer: N archives behind one
//!   capacity-unified address space — striped RAID-0 style or
//!   rotating-parity RAID-5 style ([`archive`]),
//! * fault injection and degraded-mode serving: fail-stop device faults
//!   with a spare, parity reconstruction and paced rebuild ([`fault`]).
//!
//! # Example
//!
//! ```
//! use hams_flash::{SsdConfig, SsdDevice};
//! use hams_nvme::{NvmeCommand, PrpList};
//! use hams_sim::Nanos;
//!
//! let mut ull = SsdDevice::new(SsdConfig::tiny_for_tests());
//! let cmd = NvmeCommand::write(1, 0, 4096, PrpList::single(0x0));
//! let completion = ull.service(&cmd, Nanos::ZERO).unwrap();
//! assert!(completion.finished_at > Nanos::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod archive;
pub mod device;
pub mod fault;
pub mod fil;
pub mod ftl;
pub mod geometry;
pub mod timing;

pub use archive::{ArchiveSet, BackendTopology};
pub use device::{
    IoCompletion, PowerLossReport, SsdConfig, SsdDevice, SsdError, SsdStats, LBA_SIZE,
};
pub use fault::{
    ArrayState, FaultEvent, FaultInjector, FaultPlan, FaultStats, Raid5Layout, RebuildConfig,
    RebuildSpan,
};
pub use fil::{Fil, FilCompletion};
pub use ftl::{Ftl, FtlError, FtlStats, WriteOutcome};
pub use geometry::{FlashGeometry, PhysicalPageAddr};
pub use timing::{FlashOp, NandTiming};
