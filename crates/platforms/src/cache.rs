//! An O(log n) LRU page cache used by the software-managed platforms
//! (the OS page cache of `mmap`, the host-side caches of `flatflash-M`,
//! `optane-M` and `nvdimm-C`).

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

/// Result of offering an access to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// The page was resident.
    Hit,
    /// The page was installed without evicting anything.
    MissInstalled,
    /// The page was installed and a clean page was evicted.
    MissEvictClean {
        /// The evicted page.
        victim: u64,
    },
    /// The page was installed and a dirty page was evicted (needs write-back).
    MissEvictDirty {
        /// The evicted dirty page.
        victim: u64,
    },
}

impl CacheOutcome {
    /// Returns `true` for the hit case.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Counters maintained by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// A true-LRU page cache with O(log n) operations.
///
/// # Example
///
/// ```
/// use hams_platforms::cache::{CacheOutcome, LruPageCache};
///
/// let mut cache = LruPageCache::new(2);
/// assert_eq!(cache.access(1, false), CacheOutcome::MissInstalled);
/// assert_eq!(cache.access(1, true), CacheOutcome::Hit);
/// cache.access(2, false);
/// // Page 1 is dirty and least recently used after touching page 2 twice.
/// cache.access(2, false);
/// assert_eq!(cache.access(3, false), CacheOutcome::MissEvictDirty { victim: 1 });
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LruPageCache {
    capacity: usize,
    // page -> (tick, dirty)
    resident: HashMap<u64, (u64, bool)>,
    // tick -> page (ticks are unique)
    order: BTreeMap<u64, u64>,
    tick: u64,
    stats: CacheStats,
}

impl LruPageCache {
    /// Creates a cache holding up to `capacity` pages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruPageCache {
            capacity,
            resident: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Returns `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns `true` if `page` is resident (without touching recency).
    #[must_use]
    pub fn contains(&self, page: u64) -> bool {
        self.resident.contains_key(&page)
    }

    /// Offers an access to `page`; installs it on a miss, evicting the LRU
    /// page if the cache is full. `is_write` dirties the page.
    pub fn access(&mut self, page: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let tick = self.tick;
        if let Some((old_tick, dirty)) = self.resident.get_mut(&page) {
            self.order.remove(&std::mem::replace(old_tick, tick));
            self.order.insert(tick, page);
            *dirty = *dirty || is_write;
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return CacheOutcome::MissInstalled;
        }
        let mut outcome = CacheOutcome::MissInstalled;
        if self.resident.len() >= self.capacity {
            if let Some((&lru_tick, &victim)) = self.order.iter().next() {
                self.order.remove(&lru_tick);
                let (_, was_dirty) = self.resident.remove(&victim).unwrap_or((0, false));
                outcome = if was_dirty {
                    self.stats.dirty_evictions += 1;
                    CacheOutcome::MissEvictDirty { victim }
                } else {
                    CacheOutcome::MissEvictClean { victim }
                };
            }
        }
        self.resident.insert(page, (tick, is_write));
        self.order.insert(tick, page);
        outcome
    }

    /// Dirty pages currently resident, in ascending page order.
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .resident
            .iter()
            .filter(|(_, (_, d))| *d)
            .map(|(&p, _)| p)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_is_respected() {
        let mut c = LruPageCache::new(3);
        c.access(1, false);
        c.access(2, false);
        c.access(3, false);
        c.access(1, false); // refresh 1; LRU is now 2
        assert_eq!(
            c.access(4, false),
            CacheOutcome::MissEvictClean { victim: 2 }
        );
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_evictions_are_reported() {
        let mut c = LruPageCache::new(1);
        c.access(10, true);
        assert_eq!(
            c.access(11, false),
            CacheOutcome::MissEvictDirty { victim: 10 }
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn hit_rate_and_len() {
        let mut c = LruPageCache::new(8);
        for i in 0..8u64 {
            c.access(i, false);
        }
        for i in 0..8u64 {
            assert!(c.access(i, false).is_hit());
        }
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
    }

    #[test]
    fn dirty_pages_are_listed_in_page_order() {
        let mut c = LruPageCache::new(4);
        c.access(3, true);
        c.access(2, false);
        c.access(1, true);
        assert_eq!(c.dirty_pages(), vec![1, 3]);
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let mut c = LruPageCache::new(0);
        assert_eq!(c.access(1, false), CacheOutcome::MissInstalled);
        assert_eq!(c.access(1, false), CacheOutcome::MissInstalled);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn large_cache_stays_fast_under_many_accesses() {
        let mut c = LruPageCache::new(10_000);
        for i in 0..100_000u64 {
            c.access(i % 8_000, i % 3 == 0);
        }
        assert!(c.len() <= 10_000);
        assert!(c.stats().hits > 0);
    }
}
