//! Flash translation layer: logical-to-physical page mapping, allocation,
//! garbage collection and wear levelling.
//!
//! The FTL is page-mapped (the scheme SimpleSSD/Amber model for ULL-Flash):
//! each logical page maps to exactly one physical flash page, writes are
//! out-of-place, and a greedy garbage collector reclaims the block with the
//! fewest valid pages when the free-block pool runs low.

use std::collections::VecDeque;

use hams_sim::FastHashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geometry::FlashGeometry;

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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlockInfo {
    /// Flat block index.
    index: usize,
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
    map: FastHashMap<u64, u64>,
    reverse: FastHashMap<u64, u64>,
    blocks: Vec<BlockInfo>,
    /// Per-plane pools of fully-erased blocks.
    free_blocks: Vec<VecDeque<usize>>,
    /// Blocks across every `free_blocks` pool.
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
    /// Panics if `over_provisioning` is outside `[0.0, 0.5]`.
    #[must_use]
    pub fn new(geometry: FlashGeometry, over_provisioning: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&over_provisioning),
            "over-provisioning fraction must be in [0, 0.5]"
        );
        let total_blocks = geometry.total_blocks() as usize;
        let blocks = (0..total_blocks)
            .map(|index| BlockInfo {
                index,
                valid: 0,
                write_ptr: 0,
                erase_count: 0,
            })
            .collect();
        let planes = geometry.total_planes() as usize;
        let bpp = geometry.blocks_per_plane as usize;
        let mut free_blocks = vec![VecDeque::new(); planes];
        for b in 0..total_blocks {
            free_blocks[b / bpp].push_back(b);
        }
        Ftl {
            geometry,
            exported_pages: (geometry.total_pages() as f64 * (1.0 - over_provisioning)) as u64,
            map: FastHashMap::default(),
            reverse: FastHashMap::default(),
            blocks,
            free_blocks,
            free_count: total_blocks,
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

    /// Takes the next erased block of `plane`'s pool, if any.
    fn take_free_block(&mut self, plane: usize) -> Option<usize> {
        let block = self.free_blocks[plane].pop_front()?;
        self.free_count -= 1;
        Some(block)
    }

    /// Maximum erase count across all blocks (wear indicator).
    #[must_use]
    pub fn max_erase_count(&self) -> u32 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Looks up the physical page currently mapped to `lpn`.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<u64> {
        self.map.get(&lpn).copied()
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
        if let Some(old_ppn) = self.map.remove(&lpn) {
            self.reverse.remove(&old_ppn);
            let block = self.block_of(old_ppn);
            self.blocks[block].valid = self.blocks[block].valid.saturating_sub(1);
        }

        let ppn = self.allocate_page(&mut outcome)?;
        self.map.insert(lpn, ppn);
        self.reverse.insert(ppn, lpn);
        let block = self.block_of(ppn);
        self.blocks[block].valid += 1;
        self.stats.host_writes += 1;
        self.stats.flash_writes += 1;
        outcome.ppn = ppn;
        Ok(outcome)
    }

    /// Discards the mapping for `lpn` (TRIM). Returns `true` if a mapping
    /// existed.
    pub fn trim(&mut self, lpn: u64) -> bool {
        if let Some(ppn) = self.map.remove(&lpn) {
            self.reverse.remove(&ppn);
            let block = self.block_of(ppn);
            self.blocks[block].valid = self.blocks[block].valid.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// Every logical page with a live mapping, ascending. The rebuild
    /// planner uses this to regenerate exactly the rows a failed device had
    /// durably stored (sorted so the walk is deterministic whatever the hash
    /// map's iteration order).
    #[must_use]
    pub fn mapped_lpns(&self) -> Vec<u64> {
        let mut lpns: Vec<u64> = self.map.keys().copied().collect();
        lpns.sort_unstable();
        lpns
    }

    /// Fraction of exported pages currently mapped.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.map.len() as f64 / self.exported_pages as f64
    }

    fn block_of(&self, ppn: u64) -> usize {
        let addr = self.geometry.decompose(ppn);
        let planes_before = (u64::from(addr.channel)
            + u64::from(self.geometry.channels)
                * (u64::from(addr.package)
                    + u64::from(self.geometry.packages_per_channel)
                        * (u64::from(addr.die)
                            + u64::from(self.geometry.dies_per_package) * u64::from(addr.plane))))
            as usize;
        // Flat block index: plane-major then block, consistent with ppn_of.
        planes_before * self.geometry.blocks_per_plane as usize + addr.block as usize
    }

    fn ppn_of(&self, block_index: usize, page_in_block: u32) -> u64 {
        let bpp = self.geometry.blocks_per_plane as usize;
        let plane_flat = (block_index / bpp) as u64;
        let block_in_plane = (block_index % bpp) as u64;
        // Invert the decompose() interleave: ppn = ((block*pages + page)*planes.. ) etc.
        // decompose: channel = ppn % C; then package, die, plane, page, block.
        let c = u64::from(self.geometry.channels);
        let pk = u64::from(self.geometry.packages_per_channel);
        let d = u64::from(self.geometry.dies_per_package);
        let pl = u64::from(self.geometry.planes_per_die);
        let ppb = u64::from(self.geometry.pages_per_block);
        let channel = plane_flat % c;
        let package = (plane_flat / c) % pk;
        let die = (plane_flat / (c * pk)) % d;
        let plane = (plane_flat / (c * pk * d)) % pl;
        let rest = block_in_plane * ppb + u64::from(page_in_block);
        (((rest * pl + plane) * d + die) * pk + package) * c + channel
    }

    /// Allocates the next physical page, striping consecutive allocations
    /// across planes so that back-to-back programs exploit channel- and
    /// die-level parallelism (the multi-channel/multi-way behaviour of
    /// Fig. 4a).
    fn allocate_page(&mut self, outcome: &mut WriteOutcome) -> Result<u64, FtlError> {
        let planes = self.active_blocks.len();
        loop {
            for offset in 0..planes {
                let plane = (self.plane_cursor + offset) % planes;
                if self.active_blocks[plane].is_none() {
                    self.active_blocks[plane] = self.take_free_block(plane);
                }
                let Some(block_idx) = self.active_blocks[plane] else {
                    continue;
                };
                let write_ptr = self.blocks[block_idx].write_ptr;
                if write_ptr >= self.geometry.pages_per_block {
                    // Block filled up; retire it and try to open a fresh one.
                    self.active_blocks[plane] = self.take_free_block(plane);
                    let Some(fresh) = self.active_blocks[plane] else {
                        continue;
                    };
                    let ptr = self.blocks[fresh].write_ptr;
                    self.blocks[fresh].write_ptr += 1;
                    self.plane_cursor = (plane + 1) % planes;
                    return Ok(self.ppn_of(fresh, ptr));
                }
                self.blocks[block_idx].write_ptr += 1;
                self.plane_cursor = (plane + 1) % planes;
                return Ok(self.ppn_of(block_idx, write_ptr));
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
    /// the fewest valid pages, then erase it.
    fn collect_garbage(&mut self, outcome: &mut WriteOutcome) -> Result<(), FtlError> {
        let victim = self
            .blocks
            .iter()
            .filter(|b| {
                b.write_ptr == self.geometry.pages_per_block // fully written
                    && !self.active_blocks.contains(&Some(b.index))
            })
            .min_by_key(|b| b.valid)
            .map(|b| b.index);
        let Some(victim) = victim else {
            return Ok(()); // nothing eligible yet
        };
        self.stats.gc_runs += 1;

        // Relocate valid pages.
        let ppb = self.geometry.pages_per_block;
        for page in 0..ppb {
            let ppn = self.ppn_of(victim, page);
            if let Some(lpn) = self.reverse.remove(&ppn) {
                self.map.remove(&lpn);
                self.blocks[victim].valid = self.blocks[victim].valid.saturating_sub(1);
                let new_ppn = self.allocate_page(outcome)?;
                self.map.insert(lpn, new_ppn);
                self.reverse.insert(new_ppn, lpn);
                let nb = self.block_of(new_ppn);
                self.blocks[nb].valid += 1;
                self.stats.flash_writes += 1;
                self.stats.gc_relocations += 1;
                outcome.relocated.push((ppn, new_ppn));
            }
        }

        // Erase and return to the owning plane's free pool.
        self.blocks[victim].valid = 0;
        self.blocks[victim].write_ptr = 0;
        self.blocks[victim].erase_count += 1;
        self.stats.erases += 1;
        let plane = victim / self.geometry.blocks_per_plane as usize;
        self.free_blocks[plane].push_back(victim);
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

    #[test]
    fn ppn_of_and_block_of_are_inverse() {
        let ftl = tiny_ftl();
        let g = *ftl.geometry();
        for block in 0..g.total_blocks() as usize {
            for page in [0, 1, g.pages_per_block - 1] {
                let ppn = ftl.ppn_of(block, page);
                assert!(ppn < g.total_pages(), "ppn {ppn} out of range");
                assert_eq!(ftl.block_of(ppn), block);
                let addr = g.decompose(ppn);
                assert_eq!(addr.page, page);
            }
        }
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
        assert_eq!(
            ftl.free_count,
            ftl.free_blocks.iter().map(VecDeque::len).sum::<usize>(),
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
