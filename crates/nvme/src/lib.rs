//! NVMe protocol substrate used by both the ULL-Flash device model and the
//! HAMS in-controller NVMe engine.
//!
//! The paper's baseline HAMS keeps the full NVMe machinery (submission /
//! completion queues, PRP pointers, doorbells, MSI) but moves its management
//! from the OS driver into the memory controller hub. This crate implements
//! that machinery faithfully enough to reproduce the behaviours the paper
//! relies on:
//!
//! * 64-byte commands carrying opcode, LBA, length, PRP pointers, a
//!   force-unit-access flag and the HAMS *journal tag* stored in the command's
//!   reserved area ([`command`]),
//! * PRP lists describing where in host memory (NVDIMM, for HAMS) the data for
//!   a command lives: one contiguous run of page-sized regions, so a command
//!   is a small `Copy` value ([`prp`]),
//! * the MSI coalescing model (threshold + timeout aggregation) that decides
//!   when completion interrupts are posted ([`msi`]),
//! * multi-queue submission: the [`QueueConfig`] shape of N queue pairs,
//!   commands identified across pairs by [`CommandId`], and the stripe split
//!   every multi-queue submitter shares ([`queue`]).
//!
//! The submission and completion rings themselves are not modelled as
//! state: the device fetches each command as it is submitted, so the HAMS
//! engine (`hams_core::NvmeEngine`) journals each in-flight command once and
//! retires it when its completion arrives.
//!
//! # Example
//!
//! ```
//! use hams_nvme::{stripe_ranges_into, NvmeCommand, PrpList, QueueConfig};
//!
//! let shape = QueueConfig::striped(4);
//! // One 32 KB fill (8 LBAs) split into a stripe per queue pair.
//! let mut stripes = Vec::new();
//! stripe_ranges_into(8, u64::from(shape.num_queues), &mut stripes);
//! assert_eq!(stripes, vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
//! let (lba, count) = stripes[1];
//! let cmd = NvmeCommand::read(1, lba, count * 4096, PrpList::for_transfer(0x1000, count * 4096, 4096))
//!     .with_journal_tag(true);
//! assert_eq!(cmd.prp.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod command;
pub mod msi;
pub mod prp;
pub mod queue;

pub use command::{CommandId, NvmeCommand, NvmeOpcode};
pub use msi::{MsiCoalescer, MsiCoalescerStats, MsiCoalescing};
pub use prp::{PrpEntry, PrpList};
pub use queue::{stripe_ranges_into, QueueConfig};
