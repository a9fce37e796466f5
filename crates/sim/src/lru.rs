//! The true-LRU page cache every cached tier of the model uses: the SSD's
//! internal DRAM buffer, mmap's OS page cache and the host DRAM caches of
//! `flatflash-M`, `optane-M` and `nvdimm-C`.
//!
//! A resident page carries its last-use tick and a dirty bit; a second map
//! orders the ticks, so the victim is the first entry of that map and every
//! operation is O(log n).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::hash::FastHashMap;

/// What one [`PageLru::access`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LruOutcome {
    /// The page was resident.
    Hit,
    /// The page was absent and is now resident; any page evicted to make
    /// room was clean.
    Miss,
    /// The page was absent and is now resident; making room evicted a dirty
    /// page, which the caller must write back.
    MissEvictDirty {
        /// The evicted dirty page.
        victim: u64,
    },
}

/// Counters of a [`PageLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruStats {
    /// Accesses that found their page resident.
    pub hits: u64,
    /// Accesses that did not.
    pub misses: u64,
    /// Dirty pages evicted to make room.
    pub dirty_evictions: u64,
}

impl LruStats {
    /// Every access counted: hits plus misses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero before the first access.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.accesses();
        if accesses == 0 {
            0.0
        } else {
            self.hits as f64 / accesses as f64
        }
    }
}

/// A write-back, true-LRU cache of up to `capacity` pages. A zero-capacity
/// cache counts every access as a miss and holds nothing.
///
/// # Example
///
/// ```
/// use hams_sim::{LruOutcome, PageLru};
///
/// let mut cache = PageLru::new(2);
/// assert_eq!(cache.access(1, true), LruOutcome::Miss);
/// assert_eq!(cache.access(2, false), LruOutcome::Miss);
/// assert_eq!(cache.access(2, false), LruOutcome::Hit);
/// // Page 1 is dirty and least recently used.
/// assert_eq!(cache.access(3, true), LruOutcome::MissEvictDirty { victim: 1 });
/// assert_eq!(cache.drain_dirty(), vec![3]);
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageLru {
    capacity: usize,
    /// page -> (last-use tick, dirty)
    resident: FastHashMap<u64, (u64, bool)>,
    /// last-use tick -> page; ticks are unique.
    order: BTreeMap<u64, u64>,
    tick: u64,
    stats: LruStats,
}

impl PageLru {
    /// An empty cache holding up to `capacity` pages.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PageLru {
            capacity,
            resident: FastHashMap::default(),
            order: BTreeMap::new(),
            tick: 0,
            stats: LruStats::default(),
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

    /// Returns `true` when no page is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &LruStats {
        &self.stats
    }

    /// Accesses `page`, making it the most recently used. A miss installs
    /// the page, evicting the least recently used one when the cache is
    /// full; `is_write` dirties the page either way.
    pub fn access(&mut self, page: u64, is_write: bool) -> LruOutcome {
        self.tick += 1;
        let tick = self.tick;
        if let Some((last_use, dirty)) = self.resident.get_mut(&page) {
            self.order.remove(&std::mem::replace(last_use, tick));
            self.order.insert(tick, page);
            *dirty |= is_write;
            self.stats.hits += 1;
            return LruOutcome::Hit;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return LruOutcome::Miss;
        }
        let mut outcome = LruOutcome::Miss;
        if self.resident.len() >= self.capacity {
            let (_, victim) = self.order.pop_first().expect("a full cache has a victim");
            if let Some((_, true)) = self.resident.remove(&victim) {
                self.stats.dirty_evictions += 1;
                outcome = LruOutcome::MissEvictDirty { victim };
            }
        }
        self.resident.insert(page, (tick, is_write));
        self.order.insert(tick, page);
        outcome
    }

    /// Empties the cache and returns its dirty pages in ascending order:
    /// what a power failure flushes to the medium or loses.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        self.order.clear();
        let mut dirty: Vec<u64> = self
            .resident
            .drain()
            .filter_map(|(page, (_, dirty))| dirty.then_some(page))
            .collect();
        dirty.sort_unstable();
        dirty
    }
}
