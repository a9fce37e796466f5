//! NVMe command types.
//!
//! Commands are modelled at field granularity rather than as raw 64-byte
//! encodings; the fields kept are exactly those the HAMS controller
//! manipulates (§V-B of the paper): opcode, command identifier, starting LBA,
//! transfer length, PRP pointers, the force-unit-access bit used by the
//! persist mode, and the *journal tag* HAMS stores in the command's reserved
//! area to drive power-failure recovery (§V-C).

use serde::{Deserialize, Serialize};

use crate::prp::PrpList;

/// NVM command-set opcodes used by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmeOpcode {
    /// Read data from the flash medium into host (NVDIMM) memory.
    Read,
    /// Write data from host (NVDIMM) memory to the flash medium.
    Write,
}

impl NvmeOpcode {
    /// Returns `true` for commands that transfer data to the medium.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, NvmeOpcode::Write)
    }
}

/// Fully-qualified identifier of an outstanding command: the queue pair it
/// was submitted on plus the per-queue command identifier. `cid`s are only
/// unique within one queue pair, so everything that tracks commands across
/// several pairs keys on this pair instead.
///
/// Ordering is `(queue, cid)` lexicographic, which keeps multi-queue scans
/// (e.g. the power-failure journal walk) deterministic and, for a single
/// queue, identical to the old cid-only order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CommandId {
    /// Queue pair the command was submitted on.
    pub queue: u16,
    /// Command identifier within that queue pair.
    pub cid: u16,
}

impl CommandId {
    /// Builds an identifier from its parts.
    #[must_use]
    pub fn new(queue: u16, cid: u16) -> Self {
        CommandId { queue, cid }
    }
}

/// A single 64-byte NVMe command as manipulated by the HAMS NVMe engine.
///
/// The `cid` (command identifier) is assigned when the command is submitted
/// on a queue pair; a freshly constructed command carries `cid == 0`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmeCommand {
    /// Command identifier, unique among outstanding commands of one queue.
    pub cid: u16,
    /// Command opcode.
    pub opcode: NvmeOpcode,
    /// Namespace identifier (the model uses a single namespace, 1).
    pub nsid: u32,
    /// Starting logical block address.
    pub slba: u64,
    /// Transfer length in bytes.
    pub length: u64,
    /// Physical-region-page pointers locating the data in host memory.
    pub prp: PrpList,
    /// Force-unit-access: bypass the device's volatile buffer. Used by the
    /// HAMS persist mode (`hams-LP`/`-TP`).
    pub fua: bool,
    /// HAMS journal tag stored in the command's reserved area: set to `true`
    /// when the command is issued, cleared on completion, scanned during
    /// power-failure recovery (§V-C).
    pub journal_tag: bool,
}

impl NvmeCommand {
    /// Builds a read command for `length` bytes starting at `slba`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero: NVMe encodes a transfer's block count
    /// 0's-based, so a read or write always moves at least one block.
    #[must_use]
    pub fn read(nsid: u32, slba: u64, length: u64, prp: PrpList) -> Self {
        assert!(length > 0, "an NVMe read moves at least one block");
        NvmeCommand {
            cid: 0,
            opcode: NvmeOpcode::Read,
            nsid,
            slba,
            length,
            prp,
            fua: false,
            journal_tag: false,
        }
    }

    /// Builds a write command for `length` bytes starting at `slba`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero, as [`NvmeCommand::read`] does.
    #[must_use]
    pub fn write(nsid: u32, slba: u64, length: u64, prp: PrpList) -> Self {
        assert!(length > 0, "an NVMe write moves at least one block");
        NvmeCommand {
            cid: 0,
            opcode: NvmeOpcode::Write,
            nsid,
            slba,
            length,
            prp,
            fua: false,
            journal_tag: false,
        }
    }

    /// Sets the force-unit-access bit (builder style).
    #[must_use]
    pub fn with_fua(mut self, fua: bool) -> Self {
        self.fua = fua;
        self
    }

    /// Sets the HAMS journal tag (builder style).
    #[must_use]
    pub fn with_journal_tag(mut self, tag: bool) -> Self {
        self.journal_tag = tag;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let r = NvmeCommand::read(1, 0x10, 4096, PrpList::single(0xA000));
        assert_eq!(r.opcode, NvmeOpcode::Read);
        assert!(!r.opcode.is_write());
        assert_eq!(r.slba, 0x10);
        assert_eq!(r.length, 4096);
        assert!(!r.fua);
        assert!(!r.journal_tag);

        let w = NvmeCommand::write(1, 0x20, 8192, PrpList::single(0xB000));
        assert!(w.opcode.is_write());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_commands_cannot_be_built() {
        let _ = NvmeCommand::write(1, 0, 0, PrpList::empty());
    }

    #[test]
    fn builder_flags() {
        let c = NvmeCommand::write(1, 0, 4096, PrpList::single(0))
            .with_fua(true)
            .with_journal_tag(true);
        assert!(c.fua);
        assert!(c.journal_tag);
    }
}
