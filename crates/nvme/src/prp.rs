//! Physical-region-page (PRP) pointers.
//!
//! Every NVMe command references its host-memory data buffer through one or
//! more PRP entries. In HAMS the "host memory" is the NVDIMM, and the address
//! manager rewrites PRP entries to point at the PRP-pool clone of a cache line
//! during eviction-hazard avoidance (§V-B), so the model keeps PRPs as
//! first-class, mutable values.

use serde::{Deserialize, Serialize};

/// A single PRP entry: a physical address in host (NVDIMM) memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrpEntry(pub u64);

impl PrpEntry {
    /// The physical address this entry points at.
    #[must_use]
    pub fn address(self) -> u64 {
        self.0
    }
}

impl From<u64> for PrpEntry {
    fn from(addr: u64) -> Self {
        PrpEntry(addr)
    }
}

/// The list of PRP entries attached to a command.
///
/// Transfers up to one memory page use a single PRP pointer; larger transfers
/// use a list of page-aligned pointers, exactly as the specification (and the
/// paper's Fig. 4b discussion) describes.
///
/// Every list names one contiguous buffer (a cache slot, a stripe of one, or
/// its PRP-pool clone), so it is kept as a run: `len` regions `stride` bytes
/// apart, starting at `first`. The list is three words and `Copy`, and so is
/// the command that carries it. A list of fewer than two entries keeps a zero
/// stride, and an empty one a zero start, so two lists are equal (and hash
/// alike) exactly when their entries are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrpList {
    /// Address of the first entry.
    first: u64,
    /// Distance between consecutive entries: the transfer's page size.
    stride: u64,
    /// Number of entries.
    len: u64,
}

impl PrpList {
    /// A list holding a single pointer.
    #[must_use]
    pub fn single(addr: u64) -> Self {
        PrpList {
            first: addr,
            stride: 0,
            len: 1,
        }
    }

    /// Builds the PRP list for a transfer of `length` bytes starting at host
    /// address `base`, split into `page_size`-byte regions: one entry per
    /// page the transfer touches, each aligned down to the page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `length` is zero: like the NVMe read and
    /// write commands that carry it, a transfer moves at least one byte.
    #[must_use]
    #[inline]
    pub fn for_transfer(base: u64, length: u64, page_size: u64) -> Self {
        assert!(page_size > 0, "PRP page size must be non-zero");
        assert!(length > 0, "a PRP transfer moves at least one byte");
        let first_page = base / page_size;
        let len = (base + length - 1) / page_size - first_page + 1;
        PrpList {
            first: first_page * page_size,
            stride: if len > 1 { page_size } else { 0 },
            len,
        }
    }

    /// Number of PRP entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the list has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first entry, if any.
    #[must_use]
    pub fn first(&self) -> Option<PrpEntry> {
        (self.len > 0).then_some(PrpEntry(self.first))
    }

    /// Iterates over entries, in address order.
    pub fn iter(&self) -> impl Iterator<Item = PrpEntry> {
        let PrpList { first, stride, len } = *self;
        (0..len).map(move |i| PrpEntry(first.wrapping_add(i * stride)))
    }

    /// Rewrites every entry to point into the clone at `new_base`, preserving
    /// the per-entry offsets relative to the original first entry.
    ///
    /// This is the operation the HAMS address manager performs when it clones
    /// a cache line into the PRP pool to avoid an eviction hazard: the command
    /// already sits in the submission queue, so only its PRP pointers change.
    pub fn retarget(&mut self, new_base: u64) {
        if self.len > 0 {
            self.first = new_base;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addresses(l: &PrpList) -> Vec<u64> {
        l.iter().map(PrpEntry::address).collect()
    }

    #[test]
    fn single_page_transfer_uses_one_entry() {
        let l = PrpList::for_transfer(0x1000, 4096, 4096);
        assert_eq!(l.len(), 1);
        assert_eq!(l.first().unwrap().address(), 0x1000);
        assert_eq!(l, PrpList::single(0x1000));
    }

    #[test]
    fn multi_page_transfer_uses_a_list() {
        let l = PrpList::for_transfer(0x1000, 16 * 1024, 4096);
        assert_eq!(l.len(), 4);
        assert_eq!(addresses(&l), vec![0x1000, 0x2000, 0x3000, 0x4000]);
    }

    #[test]
    fn unaligned_transfer_covers_straddled_pages() {
        // 4 KB starting 1 KB into a page touches two pages.
        let l = PrpList::for_transfer(0x1400, 4096, 4096);
        assert_eq!(addresses(&l), vec![0x1000, 0x2000]);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_length_transfer_is_refused() {
        let _ = PrpList::for_transfer(0x1000, 0, 4096);
    }

    #[test]
    fn retarget_preserves_offsets() {
        let mut l = PrpList::for_transfer(0x1000, 8192, 4096);
        l.retarget(0x9000);
        assert_eq!(addresses(&l), vec![0x9000, 0xA000]);
        // Retargeting an empty list is a no-op.
        let mut e = PrpList::default();
        e.retarget(0x5000);
        assert!(e.is_empty());
        assert_eq!(e, PrpList::default());
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        let _ = PrpList::for_transfer(0, 4096, 0);
    }

    #[test]
    fn a_one_megabyte_page_lists_every_region() {
        // The largest MoS page: 256 regions of 4 KB, one entry each.
        let l = PrpList::for_transfer(0, 1024 * 1024, 4096);
        assert_eq!(l.len(), 256);
        assert_eq!(
            addresses(&l),
            (0..256).map(|p| p * 4096).collect::<Vec<_>>()
        );
    }
}
