//! Flash translation layer: logical-to-physical page mapping, allocation,
//! garbage collection and wear levelling.
//!
//! The FTL is page-mapped (the scheme SimpleSSD/Amber model for ULL-Flash):
//! each logical page maps to exactly one physical flash page, writes are
//! out-of-place, and a greedy garbage collector reclaims the block with the
//! fewest valid pages when the free-block pool runs low.
//!
//! # Mapping table
//!
//! Both directions of the mapping — logical → physical for lookups and
//! physical → logical for GC relocation — are page tables indexed by page
//! number, as a page-mapped FTL keeps them (DFTL, Gupta et al., ASPLOS
//! 2009). Each is two-level: a top-level vector of 4096-entry leaves of
//! `u32` page numbers, with `u32::MAX` marking an unmapped entry. A leaf is
//! allocated on the first write into its range and the top level grows to
//! the highest leaf touched, so memory follows the range a workload touches
//! rather than the 800 GB device. A lookup is two dependent loads and no
//! hashing, and the mapped pages walk out in ascending order. The `u32`
//! entries need the geometry's page count to fit in `u32`, which
//! [`Ftl::new`] asserts (the largest preset, ULL-Flash, has 201.3M).

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geometry::{div_rem, FlashGeometry};

/// Errors produced by FTL operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtlError {
    /// The logical page number is beyond the exported capacity.
    LpnOutOfRange(u64),
    /// The device has no free space left even after garbage collection.
    OutOfSpace,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange(lpn) => write!(f, "logical page {lpn} out of range"),
            FtlError::OutOfSpace => write!(f, "no free flash blocks available"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Accounting counters maintained by the FTL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Pages written on behalf of the host.
    pub host_writes: u64,
    /// Pages written to the flash array (host writes + GC relocations).
    pub flash_writes: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Garbage-collection invocations.
    pub gc_runs: u64,
}

impl FtlStats {
    /// Write amplification factor: flash writes per host write (1.0 when no
    /// GC traffic has occurred; 0.0 before any host write).
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            self.flash_writes as f64 / self.host_writes as f64
        }
    }
}

/// The work performed by one write, beyond the page program itself.
/// The FIL charges time for relocations and erases it contains.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// Physical page the host data was programmed to.
    pub ppn: u64,
    /// Pages relocated by GC triggered by this write.
    pub relocated: Vec<(u64, u64)>,
    /// Blocks erased by GC triggered by this write.
    pub erased_blocks: Vec<usize>,
}

/// Index bits of a [`PageTable`] leaf: 4096 entries, 16 KiB.
const LEAF_BITS: u32 = 12;
/// Entries per [`PageTable`] leaf.
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;
/// A [`PageTable`] entry that maps nothing.
const UNMAPPED: u32 = u32::MAX;

/// A page-number-indexed table of page numbers: the two-level mapping
/// table described in the module docs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PageTable {
    /// Leaf `i` holds the entries of keys `i * 4096 ..< (i + 1) * 4096`;
    /// `None` until the first insert into that range.
    leaves: Vec<Option<Box<[u32]>>>,
    /// Entries currently mapped.
    len: u64,
}

impl PageTable {
    fn split(key: u64) -> (usize, usize) {
        (
            (key >> LEAF_BITS) as usize,
            key as usize & (LEAF_ENTRIES - 1),
        )
    }

    fn get(&self, key: u64) -> Option<u64> {
        let (leaf, slot) = Self::split(key);
        let value = self.leaves.get(leaf)?.as_deref()?[slot];
        (value != UNMAPPED).then_some(u64::from(value))
    }

    /// Maps `key` to `value`, replacing any previous entry.
    fn insert(&mut self, key: u64, value: u64) {
        debug_assert!(
            value < u64::from(UNMAPPED),
            "page {value} overflows the table"
        );
        let (leaf, slot) = Self::split(key);
        if leaf >= self.leaves.len() {
            self.leaves.resize_with(leaf + 1, || None);
        }
        let entries = self.leaves[leaf]
            .get_or_insert_with(|| vec![UNMAPPED; LEAF_ENTRIES].into_boxed_slice());
        if entries[slot] == UNMAPPED {
            self.len += 1;
        }
        entries[slot] = value as u32;
    }

    /// Unmaps `key`, returning the value it mapped to.
    fn remove(&mut self, key: u64) -> Option<u64> {
        let (leaf, slot) = Self::split(key);
        let entry = &mut self.leaves.get_mut(leaf)?.as_deref_mut()?[slot];
        let value = std::mem::replace(entry, UNMAPPED);
        if value == UNMAPPED {
            return None;
        }
        self.len -= 1;
        Some(u64::from(value))
    }

    /// Every mapped key, ascending.
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaves.iter().enumerate().flat_map(|(leaf, entries)| {
            entries.iter().flat_map(move |entries| {
                entries
                    .iter()
                    .enumerate()
                    .filter(|&(_, &value)| value != UNMAPPED)
                    .map(move |(slot, _)| ((leaf << LEAF_BITS) | slot) as u64)
            })
        })
    }
}

/// The state of one block a run has opened.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BlockInfo {
    /// Valid (mapped) pages currently in the block.
    valid: u32,
    /// Next free page offset within the block; `pages_per_block` when full.
    write_ptr: u32,
    /// Number of times this block has been erased (wear).
    erase_count: u32,
}

/// Page-mapped flash translation layer.
///
/// # Example
///
/// ```
/// use hams_flash::{Ftl, FlashGeometry};
///
/// let mut ftl = Ftl::new(FlashGeometry::tiny(), 0.10);
/// let out = ftl.write(3).unwrap();
/// assert_eq!(ftl.lookup(3), Some(out.ppn));
/// assert_eq!(ftl.lookup(4), None);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// Logical pages exported to the host: total pages minus the
    /// over-provisioned fraction, fixed at construction.
    exported_pages: u64,
    /// Logical → physical page.
    map: PageTable,
    /// Physical → logical page, for GC relocation.
    reverse: PageTable,
    /// The state of every block opened so far, in block-in-plane-major
    /// order: entry `k * planes + plane` is block `k` of `plane`, so the
    /// blocks a run opens first (each plane's lowest) sit side by side.
    /// Grows by one row of planes when a plane opens a block past it; a
    /// block never opened has no entry and the default state.
    blocks: Vec<BlockInfo>,
    /// Per plane, the lowest block never opened: blocks from it up to
    /// `blocks_per_plane` are erased and unused.
    fresh: Vec<u32>,
    /// Per plane, the blocks garbage collection erased, in erase order.
    /// A plane opens these only once its never-opened blocks run out.
    erased: Vec<VecDeque<usize>>,
    /// Free blocks across every plane: never opened or erased.
    free_count: usize,
    /// Per-plane block currently being filled, if any.
    active_blocks: Vec<Option<usize>>,
    /// Round-robin cursor used to stripe consecutive writes across planes
    /// (and therefore across channels and dies).
    plane_cursor: usize,
    stats: FtlStats,
}

impl Ftl {
    /// Creates an FTL over `geometry`, reserving `over_provisioning`
    /// (a fraction in `[0, 0.5]`) of blocks as GC headroom.
    ///
    /// # Panics
    ///
    /// Panics if `over_provisioning` is outside `[0.0, 0.5]`, or if the
    /// geometry has more pages than the `u32` mapping entries can number.
    #[must_use]
    pub fn new(geometry: FlashGeometry, over_provisioning: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&over_provisioning),
            "over-provisioning fraction must be in [0, 0.5]"
        );
        assert!(
            geometry.total_pages() <= u64::from(UNMAPPED),
            "the mapping table numbers pages in u32, but the geometry has {} pages",
            geometry.total_pages()
        );
        let planes = geometry.total_planes() as usize;
        Ftl {
            geometry,
            exported_pages: (geometry.total_pages() as f64 * (1.0 - over_provisioning)) as u64,
            map: PageTable::default(),
            reverse: PageTable::default(),
            blocks: Vec::new(),
            fresh: vec![0; planes],
            erased: vec![VecDeque::new(); planes],
            free_count: geometry.total_blocks() as usize,
            active_blocks: vec![None; planes],
            plane_cursor: 0,
            stats: FtlStats::default(),
        }
    }

    /// The geometry this FTL manages.
    #[must_use]
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Number of logical pages exported to the host (total pages minus
    /// over-provisioned space).
    #[must_use]
    pub fn exported_pages(&self) -> u64 {
        self.exported_pages
    }

    /// Exported capacity in bytes.
    #[must_use]
    pub fn exported_capacity_bytes(&self) -> u64 {
        self.exported_pages() * u64::from(self.geometry.page_size)
    }

    /// Accounting counters.
    #[must_use]
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Number of blocks currently in the free pool.
    #[must_use]
    pub fn free_block_count(&self) -> usize {
        self.free_count + self.active_blocks.iter().filter(|b| b.is_some()).count()
    }

    /// Takes `plane`'s next free block, if any: its lowest never-opened
    /// block, else the block GC erased longest ago.
    fn take_free_block(&mut self, plane: usize) -> Option<usize> {
        let next = self.fresh[plane];
        let block = if next < self.geometry.blocks_per_plane {
            self.fresh[plane] = next + 1;
            let rows = (next as usize + 1) * self.fresh.len();
            if self.blocks.len() < rows {
                self.blocks.resize(rows, BlockInfo::default());
            }
            plane * self.geometry.blocks_per_plane as usize + next as usize
        } else {
            self.erased[plane].pop_front()?
        };
        self.free_count -= 1;
        Some(block)
    }

    /// The state of opened flat block `block`.
    fn block(&mut self, block: usize) -> &mut BlockInfo {
        let (plane, in_plane) = div_rem(block as u64, self.geometry.blocks_per_plane);
        &mut self.blocks[in_plane as usize * self.fresh.len() + plane as usize]
    }

    /// Maximum erase count across all blocks (wear indicator).
    #[must_use]
    pub fn max_erase_count(&self) -> u32 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Looks up the physical page currently mapped to `lpn`.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<u64> {
        self.map.get(lpn)
    }

    /// Writes logical page `lpn` out-of-place, returning the new physical
    /// page and any garbage-collection work the write triggered.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for addresses beyond the exported
    /// capacity and [`FtlError::OutOfSpace`] if no free block can be found
    /// even after garbage collection.
    pub fn write(&mut self, lpn: u64) -> Result<WriteOutcome, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange(lpn));
        }
        let mut outcome = WriteOutcome::default();

        // Reclaim space first if the free pool is nearly exhausted.
        if self.free_count < 2 {
            self.collect_garbage(&mut outcome)?;
        }

        // Invalidate the previous location, if any.
        self.trim(lpn);

        let (ppn, block) = self.allocate_page(&mut outcome)?;
        self.map.insert(lpn, ppn);
        self.reverse.insert(ppn, lpn);
        self.block(block).valid += 1;
        self.stats.host_writes += 1;
        self.stats.flash_writes += 1;
        outcome.ppn = ppn;
        Ok(outcome)
    }

    /// Discards the mapping for `lpn` (TRIM). Returns `true` if a mapping
    /// existed.
    pub fn trim(&mut self, lpn: u64) -> bool {
        let Some(ppn) = self.map.remove(lpn) else {
            return false;
        };
        self.reverse.remove(ppn);
        let block = self.block(self.block_of(ppn));
        block.valid = block.valid.saturating_sub(1);
        true
    }

    /// Every logical page with a live mapping, ascending: an in-order walk
    /// of the mapping table. The rebuild planner uses this to regenerate
    /// exactly the rows a failed device had durably stored.
    #[must_use]
    pub fn mapped_lpns(&self) -> Vec<u64> {
        self.map.keys().collect()
    }

    /// Fraction of exported pages currently mapped.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.map.len as f64 / self.exported_pages as f64
    }

    /// Number of planes: the stride between consecutive pages of one block.
    fn planes(&self) -> u32 {
        self.active_blocks.len() as u32
    }

    /// Plane owning flat block `block` (blocks are numbered plane-major).
    fn plane_of_block(&self, block: usize) -> usize {
        div_rem(block as u64, self.geometry.blocks_per_plane).0 as usize
    }

    /// Flat block index of physical page `ppn`, the inverse of
    /// [`Self::ppn_of`]. The interleave [`FlashGeometry::decompose`] unpacks
    /// makes a ppn `(block_in_plane * pages_per_block + page) * planes +
    /// plane`, where `plane` is the flat plane index blocks are numbered by.
    fn block_of(&self, ppn: u64) -> usize {
        let (rest, plane) = div_rem(ppn, self.planes());
        let (block_in_plane, _) = div_rem(rest, self.geometry.pages_per_block);
        (plane * u64::from(self.geometry.blocks_per_plane) + block_in_plane) as usize
    }

    /// Physical page `page_in_block` of flat block `block`.
    fn ppn_of(&self, block: usize, page_in_block: u32) -> u64 {
        let (plane, block_in_plane) = div_rem(block as u64, self.geometry.blocks_per_plane);
        let rest =
            block_in_plane * u64::from(self.geometry.pages_per_block) + u64::from(page_in_block);
        rest * u64::from(self.planes()) + plane
    }

    /// Allocates the next physical page, striping consecutive allocations
    /// across planes so that back-to-back programs exploit channel- and
    /// die-level parallelism (the multi-channel/multi-way behaviour of
    /// Fig. 4a). Returns the page and the flat block it lies in.
    fn allocate_page(&mut self, outcome: &mut WriteOutcome) -> Result<(u64, usize), FtlError> {
        let planes = self.active_blocks.len();
        loop {
            let mut plane = self.plane_cursor;
            for _ in 0..planes {
                let next = if plane + 1 == planes { 0 } else { plane + 1 };
                // Open a fresh block when the plane has none, or when its
                // block filled up (retiring it).
                let active = self.active_blocks[plane];
                let block = match active {
                    Some(b) if self.block(b).write_ptr < self.geometry.pages_per_block => Some(b),
                    _ => {
                        let fresh = self.take_free_block(plane);
                        self.active_blocks[plane] = fresh;
                        fresh
                    }
                };
                if let Some(block) = block {
                    let info = self.block(block);
                    let page = info.write_ptr;
                    info.write_ptr += 1;
                    self.plane_cursor = next;
                    return Ok((self.ppn_of(block, page), block));
                }
                plane = next;
            }
            // Every plane is out of erased blocks: reclaim and retry.
            let free_before = self.free_count;
            self.collect_garbage(outcome)?;
            if self.free_count == free_before {
                return Err(FtlError::OutOfSpace);
            }
        }
    }

    /// Greedy garbage collection: relocate the valid pages of the block with
    /// the fewest valid pages (the lowest flat index among equals), then
    /// erase it.
    fn collect_garbage(&mut self, outcome: &mut WriteOutcome) -> Result<(), FtlError> {
        let ppb = self.geometry.pages_per_block;
        let planes = self.fresh.len();
        let bpp = self.geometry.blocks_per_plane as usize;
        let rows = self.blocks.len() / planes;
        // Flat block order: plane-major. Blocks past `rows` were never
        // opened, so never fully written.
        let victim = (0..planes)
            .flat_map(|plane| (0..rows).map(move |row| (plane, row)))
            .filter(|&(plane, row)| {
                self.blocks[row * planes + plane].write_ptr == ppb // fully written
                    && self.active_blocks[plane] != Some(plane * bpp + row)
            })
            .min_by_key(|&(plane, row)| self.blocks[row * planes + plane].valid)
            .map(|(plane, row)| plane * bpp + row);
        let Some(victim) = victim else {
            return Ok(()); // nothing eligible yet
        };
        self.stats.gc_runs += 1;

        // Relocate valid pages.
        for page in 0..ppb {
            let ppn = self.ppn_of(victim, page);
            if let Some(lpn) = self.reverse.remove(ppn) {
                self.map.remove(lpn);
                let info = self.block(victim);
                info.valid = info.valid.saturating_sub(1);
                let (new_ppn, new_block) = self.allocate_page(outcome)?;
                self.map.insert(lpn, new_ppn);
                self.reverse.insert(new_ppn, lpn);
                self.block(new_block).valid += 1;
                self.stats.flash_writes += 1;
                self.stats.gc_relocations += 1;
                outcome.relocated.push((ppn, new_ppn));
            }
        }

        // Erase and return to the owning plane's free pool.
        let info = self.block(victim);
        info.valid = 0;
        info.write_ptr = 0;
        info.erase_count += 1;
        self.stats.erases += 1;
        let plane = self.plane_of_block(victim);
        self.erased[plane].push_back(victim);
        self.free_count += 1;
        outcome.erased_blocks.push(victim);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ftl() -> Ftl {
        Ftl::new(FlashGeometry::tiny(), 0.25)
    }

    #[test]
    fn write_then_lookup_round_trips() {
        let mut ftl = tiny_ftl();
        let a = ftl.write(10).unwrap();
        let b = ftl.write(11).unwrap();
        assert_ne!(a.ppn, b.ppn);
        assert_eq!(ftl.lookup(10), Some(a.ppn));
        assert_eq!(ftl.lookup(11), Some(b.ppn));
        assert_eq!(ftl.lookup(12), None);
    }

    #[test]
    fn overwrite_remaps_and_keeps_single_mapping() {
        let mut ftl = tiny_ftl();
        let first = ftl.write(5).unwrap().ppn;
        let second = ftl.write(5).unwrap().ppn;
        assert_ne!(first, second);
        assert_eq!(ftl.lookup(5), Some(second));
        assert_eq!(ftl.stats().host_writes, 2);
    }

    #[test]
    fn out_of_range_write_is_rejected() {
        let mut ftl = tiny_ftl();
        let too_big = ftl.exported_pages();
        assert_eq!(ftl.write(too_big), Err(FtlError::LpnOutOfRange(too_big)));
    }

    #[test]
    fn trim_removes_mapping() {
        let mut ftl = tiny_ftl();
        ftl.write(1).unwrap();
        assert!(ftl.trim(1));
        assert!(!ftl.trim(1));
        assert_eq!(ftl.lookup(1), None);
    }

    /// The division formulas `block_of` and `ppn_of` replaced: decompose
    /// the ppn, then flatten its plane coordinates.
    fn block_of_by_division(g: &FlashGeometry, ppn: u64) -> usize {
        let addr = crate::geometry::tests::decompose_by_division(g, ppn);
        let planes_before = u64::from(addr.channel)
            + u64::from(g.channels)
                * (u64::from(addr.package)
                    + u64::from(g.packages_per_channel)
                        * (u64::from(addr.die)
                            + u64::from(g.dies_per_package) * u64::from(addr.plane)));
        (planes_before * u64::from(g.blocks_per_plane) + u64::from(addr.block)) as usize
    }

    fn ppn_of_by_division(g: &FlashGeometry, block: usize, page: u32) -> u64 {
        let bpp = g.blocks_per_plane as usize;
        let plane_flat = (block / bpp) as u64;
        let block_in_plane = (block % bpp) as u64;
        let (c, pk, d, pl) = (
            u64::from(g.channels),
            u64::from(g.packages_per_channel),
            u64::from(g.dies_per_package),
            u64::from(g.planes_per_die),
        );
        let channel = plane_flat % c;
        let package = (plane_flat / c) % pk;
        let die = (plane_flat / (c * pk)) % d;
        let plane = (plane_flat / (c * pk * d)) % pl;
        let rest = block_in_plane * u64::from(g.pages_per_block) + u64::from(page);
        (((rest * pl + plane) * d + die) * pk + package) * c + channel
    }

    #[test]
    fn block_of_and_ppn_of_match_the_division_formulas_and_invert() {
        for g in crate::geometry::tests::addressing_cases() {
            let ftl = Ftl::new(g, 0.07);
            for ppn in crate::geometry::tests::sample_pages(&g) {
                let block = ftl.block_of(ppn);
                assert_eq!(block, block_of_by_division(&g, ppn), "{g:?} ppn {ppn}");
                let page = g.decompose(ppn).page;
                assert_eq!(ftl.ppn_of(block, page), ppn, "{g:?} ppn {ppn}");
            }
            let last_block = g.total_blocks() as usize - 1;
            let step = (last_block / 1009).max(1);
            for block in (0..=last_block).step_by(step).chain([last_block]) {
                for page in [0, 1, g.pages_per_block / 2, g.pages_per_block - 1] {
                    let ppn = ftl.ppn_of(block, page);
                    assert_eq!(
                        ppn,
                        ppn_of_by_division(&g, block, page),
                        "{g:?} block {block}"
                    );
                    assert!(ppn < g.total_pages(), "ppn {ppn} out of range");
                    assert_eq!(ftl.block_of(ppn), block);
                    assert_eq!(g.decompose(ppn).page, page);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "u32")]
    fn geometries_beyond_u32_pages_are_refused() {
        let g = FlashGeometry {
            blocks_per_plane: 1 << 20,
            ..FlashGeometry::ull_flash()
        };
        let _ = Ftl::new(g, 0.07);
    }

    #[test]
    fn mapped_lpns_walk_the_table_in_order() {
        let mut ftl = tiny_ftl();
        for lpn in [9, 2, 150, 0, 77] {
            ftl.write(lpn).unwrap();
        }
        ftl.trim(77);
        assert_eq!(ftl.mapped_lpns(), vec![0, 2, 9, 150]);
        assert!((ftl.occupancy() - 4.0 / ftl.exported_pages() as f64).abs() < 1e-12);
    }

    #[test]
    fn page_table_allocates_leaves_on_first_write_only() {
        let mut table = PageTable::default();
        assert_eq!(table.get(5), None);
        assert_eq!(table.remove(5), None);
        table.insert(3 * LEAF_ENTRIES as u64 + 7, 11);
        assert_eq!(table.leaves.len(), 4);
        assert_eq!(table.leaves.iter().filter(|l| l.is_some()).count(), 1);
        assert_eq!(table.get(3 * LEAF_ENTRIES as u64 + 7), Some(11));
        assert_eq!(table.get(3 * LEAF_ENTRIES as u64 + 8), None);
        assert_eq!(table.get(u64::from(u32::MAX) * 2), None);
        table.insert(3 * LEAF_ENTRIES as u64 + 7, 12);
        assert_eq!(table.len, 1, "replacing an entry keeps the count");
        assert_eq!(table.remove(3 * LEAF_ENTRIES as u64 + 7), Some(12));
        assert_eq!(table.len, 0);
        assert_eq!(table.keys().count(), 0);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_never_lose_mappings() {
        let mut ftl = tiny_ftl();
        let working_set = ftl.exported_pages() / 2;
        // Write the working set several times over: forces GC on tiny geometry.
        for round in 0..6 {
            for lpn in 0..working_set {
                ftl.write(lpn)
                    .unwrap_or_else(|e| panic!("round {round} lpn {lpn}: {e}"));
            }
        }
        assert!(ftl.stats().gc_runs > 0, "expected GC to run");
        let bpp = ftl.geometry().blocks_per_plane;
        assert_eq!(
            ftl.free_count,
            ftl.fresh
                .iter()
                .map(|&next| (bpp - next) as usize)
                .sum::<usize>()
                + ftl.erased.iter().map(VecDeque::len).sum::<usize>(),
            "the running free count must track the pools through GC"
        );
        assert!(ftl.stats().write_amplification() >= 1.0);
        // All logical pages still resolve, to distinct physical pages.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..working_set {
            let ppn = ftl.lookup(lpn).expect("mapping lost after GC");
            assert!(seen.insert(ppn), "two LPNs share ppn {ppn}");
        }
    }

    #[test]
    fn a_plane_opens_its_never_opened_blocks_before_erased_ones() {
        let mut ftl = tiny_ftl();
        let bpp = ftl.geometry().blocks_per_plane as usize;
        let total = ftl.free_count;
        assert_eq!(ftl.take_free_block(1), Some(bpp));
        // GC erases that block while the plane still has blocks it never
        // opened: those come first, ascending, and the erased one last.
        ftl.erased[1].push_back(bpp);
        ftl.free_count += 1;
        let order: Vec<usize> = std::iter::from_fn(|| ftl.take_free_block(1)).collect();
        assert_eq!(order, (bpp + 1..2 * bpp).chain([bpp]).collect::<Vec<_>>());
        assert_eq!(ftl.free_count, total - bpp);
    }

    #[test]
    fn filling_every_exported_page_succeeds() {
        let mut ftl = tiny_ftl();
        for lpn in 0..ftl.exported_pages() {
            ftl.write(lpn).unwrap();
        }
        assert!(ftl.occupancy() > 0.99);
    }

    #[test]
    fn consecutive_writes_stripe_across_channels() {
        let mut ftl = tiny_ftl();
        let g = *ftl.geometry();
        let a = ftl.write(0).unwrap().ppn;
        let b = ftl.write(1).unwrap().ppn;
        assert_ne!(
            g.decompose(a).channel,
            g.decompose(b).channel,
            "back-to-back writes must land on different channels"
        );
    }

    #[test]
    fn write_amplification_is_one_without_gc() {
        let mut ftl = tiny_ftl();
        for lpn in 0..8 {
            ftl.write(lpn).unwrap();
        }
        assert!((ftl.stats().write_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = FtlStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        assert_eq!(s.erases, 0);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn silly_over_provisioning_panics() {
        let _ = Ftl::new(FlashGeometry::tiny(), 0.9);
    }
}
