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

/// Entries stored inline before the list spills to the heap. Four covers the
/// scaled MoS page sizes (8 KB pages → two 4 KB regions) and every striped
/// fill segment, so the serving hot path never allocates for a PRP list.
const PRP_INLINE: usize = 4;

/// The list of PRP entries attached to a command.
///
/// Transfers up to one memory page use a single PRP pointer; larger transfers
/// use a list of page-aligned pointers, exactly as the specification (and the
/// paper's Fig. 4b discussion) describes.
///
/// Lists of up to four entries are stored inline in the command itself, so
/// composing a command, serving it and moving it into the NVMe engine's
/// journal touches the heap only for longer lists (multi-LBA pages on a
/// single queue pair), which spill to a `Vec`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrpList {
    /// Number of valid entries, wherever they are stored.
    len: u32,
    /// The first [`PRP_INLINE`] entries when `len <= PRP_INLINE`.
    inline: [PrpEntry; PRP_INLINE],
    /// All entries when `len > PRP_INLINE`; empty otherwise.
    spill: Vec<PrpEntry>,
}

impl PrpList {
    /// A list holding a single pointer.
    #[must_use]
    pub fn single(addr: u64) -> Self {
        let mut list = PrpList::default();
        list.inline[0] = PrpEntry(addr);
        list.len = 1;
        list
    }

    /// Builds the PRP list for a transfer of `length` bytes starting at host
    /// address `base`, split into `page_size`-byte regions.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `length` is zero: like the NVMe read and
    /// write commands that carry it, a transfer moves at least one byte.
    #[must_use]
    pub fn for_transfer(base: u64, length: u64, page_size: u64) -> Self {
        assert!(page_size > 0, "PRP page size must be non-zero");
        assert!(length > 0, "a PRP transfer moves at least one byte");
        let first_page = base / page_size;
        let last_page = (base + length - 1) / page_size;
        let count = (last_page - first_page + 1) as usize;
        let mut list = PrpList::default();
        if count <= PRP_INLINE {
            for (i, p) in (first_page..=last_page).enumerate() {
                list.inline[i] = PrpEntry(p * page_size);
            }
        } else {
            list.spill = (first_page..=last_page)
                .map(|p| PrpEntry(p * page_size))
                .collect();
        }
        list.len = count as u32;
        list
    }

    fn from_vec(entries: Vec<PrpEntry>) -> Self {
        let count = entries.len();
        let mut list = PrpList::default();
        if count <= PRP_INLINE {
            list.inline[..count].copy_from_slice(&entries);
        } else {
            list.spill = entries;
        }
        list.len = count as u32;
        list
    }

    /// The entries as a slice, wherever they are stored.
    #[must_use]
    pub fn as_slice(&self) -> &[PrpEntry] {
        let len = self.len as usize;
        if len <= PRP_INLINE {
            &self.inline[..len]
        } else {
            &self.spill
        }
    }

    fn as_mut_slice(&mut self) -> &mut [PrpEntry] {
        let len = self.len as usize;
        if len <= PRP_INLINE {
            &mut self.inline[..len]
        } else {
            &mut self.spill
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
        self.as_slice().first().copied()
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, PrpEntry> {
        self.as_slice().iter()
    }

    /// Rewrites every entry to point into the clone at `new_base`, preserving
    /// the per-entry offsets relative to the original first entry.
    ///
    /// This is the operation the HAMS address manager performs when it clones
    /// a cache line into the PRP pool to avoid an eviction hazard: the command
    /// already sits in the submission queue, so only its PRP pointers change.
    pub fn retarget(&mut self, new_base: u64) {
        let entries = self.as_mut_slice();
        let Some(old_base) = entries.first().map(|e| e.0) else {
            return;
        };
        for e in entries {
            let offset = e.0.wrapping_sub(old_base);
            e.0 = new_base.wrapping_add(offset);
        }
    }
}

impl PartialEq for PrpList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PrpList {}

impl std::hash::Hash for PrpList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<PrpEntry> for PrpList {
    fn from_iter<I: IntoIterator<Item = PrpEntry>>(iter: I) -> Self {
        PrpList::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a PrpList {
    type Item = &'a PrpEntry;
    type IntoIter = std::slice::Iter<'a, PrpEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_transfer_uses_one_entry() {
        let l = PrpList::for_transfer(0x1000, 4096, 4096);
        assert_eq!(l.len(), 1);
        assert_eq!(l.first().unwrap().address(), 0x1000);
    }

    #[test]
    fn multi_page_transfer_uses_a_list() {
        let l = PrpList::for_transfer(0x1000, 16 * 1024, 4096);
        assert_eq!(l.len(), 4);
        let addrs: Vec<u64> = l.iter().map(|e| e.address()).collect();
        assert_eq!(addrs, vec![0x1000, 0x2000, 0x3000, 0x4000]);
    }

    #[test]
    fn unaligned_transfer_covers_straddled_pages() {
        // 4 KB starting 1 KB into a page touches two pages.
        let l = PrpList::for_transfer(0x1400, 4096, 4096);
        assert_eq!(l.len(), 2);
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
        let addrs: Vec<u64> = l.iter().map(|e| e.address()).collect();
        assert_eq!(addrs, vec![0x9000, 0xA000]);
        // Retargeting an empty list is a no-op.
        let mut e = PrpList::default();
        e.retarget(0x5000);
        assert!(e.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let l: PrpList = [PrpEntry(1), PrpEntry(2)].into_iter().collect();
        assert_eq!(l.len(), 2);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        let _ = PrpList::for_transfer(0, 4096, 0);
    }

    #[test]
    fn long_lists_spill_past_the_inline_entries_transparently() {
        // 64 KB = 16 regions: past the inline capacity, so the list spills.
        let long = PrpList::for_transfer(0, 64 * 1024, 4096);
        assert_eq!(long.len(), 16);
        let addrs: Vec<u64> = long.iter().map(|e| e.address()).collect();
        assert_eq!(addrs[15], 15 * 4096);
        // Equality and retargeting behave identically across representations.
        let mut spilled = PrpList::for_transfer(0, 64 * 1024, 4096);
        assert_eq!(long, spilled);
        spilled.retarget(0x10_0000);
        assert_eq!(spilled.first().unwrap().address(), 0x10_0000);
        assert_ne!(long, spilled);
    }

    #[test]
    fn from_vec_chooses_the_representation_by_length() {
        // ≤ 4 entries stay inline (no heap), > 4 spill; both expose the same
        // slice and compare equal to an identically-built list.
        let short = PrpList::from_vec(vec![PrpEntry(1), PrpEntry(2)]);
        assert_eq!(short.as_slice(), &[PrpEntry(1), PrpEntry(2)]);
        assert_eq!(short, [PrpEntry(1), PrpEntry(2)].into_iter().collect());
        let long_vec: Vec<PrpEntry> = (0..9).map(PrpEntry).collect();
        let long = PrpList::from_vec(long_vec.clone());
        assert_eq!(long.as_slice(), long_vec.as_slice());
        assert_eq!(long, long_vec.into_iter().collect());
    }

    #[test]
    fn inline_lists_ignore_stale_slots_in_comparisons() {
        let mut a = PrpList::for_transfer(0x1000, 8192, 4096);
        // Shrink by rebuilding: a list with the same visible prefix but
        // different hidden slots must still compare equal.
        a.retarget(0x1000);
        let b = PrpList::for_transfer(0x1000, 8192, 4096);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |l: &PrpList| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
