//! SSD-internal DRAM buffer/cache.
//!
//! Modern SSDs, ULL-Flash included, front their flash array with a large DRAM
//! that caches reads and absorbs writes (§II-C). The paper's advanced HAMS
//! removes this DRAM entirely — incoming data is already buffered by the
//! NVDIMM — which both saves energy (the DRAM draws 17 % more power than a
//! 32-chip flash complex) and removes a redundant copy. The model therefore
//! exposes the buffer as an optional component with explicit hit/miss/dirty
//! accounting and an LRU policy.

use std::collections::BTreeMap;

use hams_sim::{FastHashMap, Nanos};
use serde::{Deserialize, Serialize};

/// Outcome of offering an access to the internal DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramOutcome {
    /// The page was present (read hit or write hit); access served at DRAM
    /// latency.
    Hit,
    /// The page was absent; the caller must go to flash. For writes the page
    /// has now been installed dirty.
    Miss,
    /// The install evicted a dirty page that must be programmed to flash.
    MissEvictDirty {
        /// Logical page number of the evicted dirty page.
        evicted_lpn: u64,
    },
}

/// Accounting counters for the internal DRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read or write accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty pages evicted (write-backs forced by capacity).
    pub dirty_evictions: u64,
    /// Total accesses (energy accounting: each costs a DRAM row activation).
    pub accesses: u64,
}

impl DramStats {
    /// Hit rate in `[0, 1]`; zero when no accesses have occurred.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU page cache standing in for the SSD-internal DRAM.
///
/// # Example
///
/// ```
/// use hams_flash::{InternalDram, DramOutcome};
/// use hams_sim::Nanos;
///
/// let mut dram = InternalDram::new(2, Nanos::from_nanos(200));
/// assert_eq!(dram.read(1), DramOutcome::Miss);
/// dram.install(1, false);
/// assert_eq!(dram.read(1), DramOutcome::Hit);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InternalDram {
    capacity_pages: usize,
    access_latency: Nanos,
    /// lpn -> (last-use tick, dirty)
    resident: FastHashMap<u64, (u64, bool)>,
    /// last-use tick -> lpn (ticks are unique), so the LRU victim is the
    /// first entry — O(log n) instead of a full scan of `resident` per
    /// eviction, which dominated the device-service hot path.
    order: BTreeMap<u64, u64>,
    tick: u64,
    stats: DramStats,
}

impl InternalDram {
    /// Creates a buffer holding up to `capacity_pages` pages, each access
    /// costing `access_latency`.
    #[must_use]
    pub fn new(capacity_pages: usize, access_latency: Nanos) -> Self {
        InternalDram {
            capacity_pages,
            access_latency,
            resident: FastHashMap::default(),
            order: BTreeMap::new(),
            tick: 0,
            stats: DramStats::default(),
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Latency of one buffer access.
    #[must_use]
    pub fn access_latency(&self) -> Nanos {
        self.access_latency
    }

    /// Accounting counters.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Number of resident dirty pages.
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        self.resident.values().filter(|(_, d)| *d).count()
    }

    /// Offers a read of `lpn`; hits refresh recency.
    pub fn read(&mut self, lpn: u64) -> DramOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        if let Some(entry) = self.resident.get_mut(&lpn) {
            self.order
                .remove(&std::mem::replace(&mut entry.0, self.tick));
            self.order.insert(self.tick, lpn);
            self.stats.hits += 1;
            DramOutcome::Hit
        } else {
            self.stats.misses += 1;
            DramOutcome::Miss
        }
    }

    /// Offers a write of `lpn`: a hit dirties the resident copy, a miss
    /// installs the page dirty (write-back policy), possibly evicting.
    pub fn write(&mut self, lpn: u64) -> DramOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        if let Some(entry) = self.resident.get_mut(&lpn) {
            self.order
                .remove(&std::mem::replace(&mut entry.0, self.tick));
            self.order.insert(self.tick, lpn);
            entry.1 = true;
            self.stats.hits += 1;
            return DramOutcome::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.install_inner(lpn, true);
        match evicted {
            Some(lpn) => DramOutcome::MissEvictDirty { evicted_lpn: lpn },
            None => DramOutcome::Miss,
        }
    }

    /// Installs a clean copy of `lpn` (e.g. after a read miss fill). Returns
    /// the LPN of a dirty page evicted to make room, if any.
    pub fn install(&mut self, lpn: u64, dirty: bool) -> Option<u64> {
        self.tick += 1;
        self.install_inner(lpn, dirty)
    }

    fn install_inner(&mut self, lpn: u64, dirty: bool) -> Option<u64> {
        if self.capacity_pages == 0 {
            // Degenerate buffer: nothing is ever resident.
            return None;
        }
        let mut evicted_dirty = None;
        if self.resident.len() >= self.capacity_pages {
            // Evict the least recently used page: the minimum-tick entry,
            // exactly the victim the old full scan of `resident` chose.
            if let Some((&lru_tick, &victim)) = self.order.iter().next() {
                self.order.remove(&lru_tick);
                if let Some((_, was_dirty)) = self.resident.remove(&victim) {
                    if was_dirty {
                        self.stats.dirty_evictions += 1;
                        evicted_dirty = Some(victim);
                    }
                }
            }
        }
        if let Some(previous) = self.resident.insert(lpn, (self.tick, dirty)) {
            // Re-install of a resident page: drop its stale recency entry.
            self.order.remove(&previous.0);
        }
        self.order.insert(self.tick, lpn);
        evicted_dirty
    }

    /// Drains every dirty page (a power failure's super-capacitor write-back,
    /// or its loss), returning their LPNs in ascending order and marking
    /// them clean.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .resident
            .iter()
            .filter(|(_, (_, d))| *d)
            .map(|(&lpn, _)| lpn)
            .collect();
        dirty.sort_unstable();
        for lpn in &dirty {
            if let Some(e) = self.resident.get_mut(lpn) {
                e.1 = false;
            }
        }
        dirty
    }

    /// Discards all resident pages (a power failure with no supercapacitor
    /// protection loses the buffer contents).
    pub fn discard_all(&mut self) -> usize {
        let n = self.resident.len();
        self.resident.clear();
        self.order.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(cap: usize) -> InternalDram {
        InternalDram::new(cap, Nanos::from_nanos(200))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut d = dram(4);
        assert_eq!(d.read(1), DramOutcome::Miss);
        d.install(1, false);
        assert_eq!(d.read(1), DramOutcome::Hit);
        assert!((d.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn write_installs_dirty() {
        let mut d = dram(4);
        assert_eq!(d.write(7), DramOutcome::Miss);
        assert_eq!(d.dirty_pages(), 1);
        assert_eq!(d.write(7), DramOutcome::Hit);
        assert_eq!(d.dirty_pages(), 1);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty_evictions() {
        let mut d = dram(2);
        d.write(1);
        d.write(2);
        // Touch page 1 so page 2 becomes LRU.
        d.read(1);
        let outcome = d.write(3);
        assert_eq!(outcome, DramOutcome::MissEvictDirty { evicted_lpn: 2 });
        assert_eq!(d.stats().dirty_evictions, 1);
        assert_eq!(d.resident_pages(), 2);
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut d = dram(1);
        d.install(1, false);
        assert_eq!(d.write(2), DramOutcome::Miss);
        assert_eq!(d.stats().dirty_evictions, 0);
    }

    #[test]
    fn flush_returns_sorted_dirty_set_and_cleans() {
        let mut d = dram(8);
        d.write(5);
        d.write(3);
        d.install(9, false);
        assert_eq!(d.flush_dirty(), vec![3, 5]);
        assert_eq!(d.dirty_pages(), 0);
        assert!(d.flush_dirty().is_empty());
    }

    #[test]
    fn discard_models_power_loss() {
        let mut d = dram(8);
        d.write(1);
        d.write(2);
        assert_eq!(d.discard_all(), 2);
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.read(1), DramOutcome::Miss);
    }

    #[test]
    fn zero_capacity_buffer_never_holds_pages() {
        let mut d = dram(0);
        assert_eq!(d.write(1), DramOutcome::Miss);
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.read(1), DramOutcome::Miss);
    }
}
