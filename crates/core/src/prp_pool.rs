//! The PRP pool: page-sized clone slots in the pinned NVDIMM region.
//!
//! When the HAMS cache logic evicts a page whose NVDIMM slot is about to be
//! refilled, it clones the page into the PRP pool and retargets the eviction
//! command's PRP pointer at the clone (§V-B, Fig. 14). The NVMe controller
//! then DMAs from the clone, so the cache slot can be reused immediately and
//! no eviction hazard or redundant eviction can occur.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

/// A clone currently occupying a PRP-pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloneSlot {
    /// MoS page number whose data is parked here.
    pub mos_page: u64,
    /// Time at which the eviction command reading this clone completes.
    pub release_at: Nanos,
}

/// Fixed-size pool of page clone slots.
///
/// # Example
///
/// ```
/// use hams_core::PrpPool;
/// use hams_sim::Nanos;
///
/// let mut pool = PrpPool::new(2);
/// let slot = pool.allocate(42, Nanos::from_micros(100), Nanos::ZERO).unwrap();
/// assert!(pool.holds_page(42));
/// pool.release(slot);
/// assert!(!pool.holds_page(42));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrpPool {
    slots: Vec<Option<CloneSlot>>,
    /// One bit per slot, set while the slot is free.
    free: Vec<u64>,
    /// `(release_at, slot)` of every allocation, earliest first. An entry
    /// outlives its clone when the slot is released explicitly; reclaim
    /// only vacates a slot whose current clone has expired.
    expiries: BinaryHeap<Reverse<(Nanos, usize)>>,
    /// Occupied slots.
    in_use: usize,
    high_water: usize,
}

impl PrpPool {
    /// Creates a pool with `slots` clone slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "PRP pool needs at least one slot");
        let mut free = vec![0u64; slots.div_ceil(64)];
        for index in 0..slots {
            free[index / 64] |= 1 << (index % 64);
        }
        PrpPool {
            slots: vec![None; slots],
            free,
            expiries: BinaryHeap::new(),
            in_use: 0,
            high_water: 0,
        }
    }

    /// Number of slots in the pool.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Maximum simultaneous occupancy seen so far.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Returns `true` if a clone of `mos_page` is parked in the pool.
    #[must_use]
    pub fn holds_page(&self, mos_page: u64) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|slot| slot.mos_page == mos_page)
    }

    /// MoS pages currently parked in the pool (in-flight eviction data that
    /// survives a power failure because the pool lives in NVDIMM),
    /// ascending, each once however many of its clones are parked.
    #[must_use]
    pub fn parked_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .slots
            .iter()
            .flatten()
            .map(|slot| slot.mos_page)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Allocates a slot for a clone of `mos_page` whose eviction completes at
    /// `release_at`. Expired slots (release time at or before `now`) are
    /// reclaimed first, then the lowest free slot is taken. Returns `None`
    /// if the pool is genuinely full.
    pub fn allocate(&mut self, mos_page: u64, release_at: Nanos, now: Nanos) -> Option<usize> {
        while let Some(&Reverse((expiry, index))) = self.expiries.peek() {
            if expiry > now {
                break;
            }
            self.expiries.pop();
            if self.slots[index].is_some_and(|slot| slot.release_at <= now) {
                self.release(index);
            }
        }
        let (word, bits) = self.free.iter().enumerate().find(|(_, bits)| **bits != 0)?;
        let idx = word * 64 + bits.trailing_zeros() as usize;
        self.free[word] &= !(1 << (idx % 64));
        self.slots[idx] = Some(CloneSlot {
            mos_page,
            release_at,
        });
        self.expiries.push(Reverse((release_at, idx)));
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
        Some(idx)
    }

    /// Releases slot `index` explicitly (its eviction command completed).
    pub fn release(&mut self, index: usize) {
        if self.slots.get_mut(index).and_then(Option::take).is_some() {
            self.in_use -= 1;
            self.free[index / 64] |= 1 << (index % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn allocate_and_release_round_trip() {
        let mut p = PrpPool::new(2);
        let a = p.allocate(1, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        let b = p.allocate(2, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.high_water(), 2);
        assert_eq!(p.parked_pages(), vec![1, 2]);
        p.release(a);
        assert_eq!(p.in_use(), 1);
        assert!(!p.holds_page(1));
    }

    #[test]
    fn full_pool_rejects_until_expiry() {
        let mut p = PrpPool::new(1);
        p.allocate(1, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        assert!(p
            .allocate(2, Nanos::from_micros(20), Nanos::from_micros(5))
            .is_none());
        // After the first clone's eviction completes, its slot is reclaimable.
        assert!(p
            .allocate(2, Nanos::from_micros(20), Nanos::from_micros(10))
            .is_some());
        assert!(!p.holds_page(1));
        assert!(p.holds_page(2));
    }

    #[test]
    fn releasing_unused_slot_is_harmless() {
        let mut p = PrpPool::new(2);
        p.release(1);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn a_page_parked_twice_holds_both_slots() {
        let mut p = PrpPool::new(4);
        let first = p.allocate(7, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        let second = p.allocate(7, Nanos::from_micros(30), Nanos::ZERO).unwrap();
        assert_ne!(first, second);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.high_water(), 2);
        assert_eq!(p.parked_pages(), vec![7]);
        // The first clone expires and is reclaimed by the next allocation;
        // the second still parks page 7.
        p.allocate(8, Nanos::from_micros(40), Nanos::from_micros(20))
            .unwrap();
        assert!(p.holds_page(7), "the second clone of page 7 was forgotten");
        assert_eq!(p.in_use(), 2);
        p.release(second);
        assert!(!p.holds_page(7));
        assert_eq!(p.parked_pages(), vec![8]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = PrpPool::new(0);
    }

    /// The linear-scan pool the heap and bitmap replaced, kept as the
    /// reference they must match slot for slot. Occupancy is read off the
    /// slots, so a page parked in two slots counts twice.
    struct ScanPool {
        slots: Vec<Option<CloneSlot>>,
        high_water: usize,
    }

    impl ScanPool {
        fn new(slots: usize) -> Self {
            ScanPool {
                slots: vec![None; slots],
                high_water: 0,
            }
        }

        fn in_use(&self) -> usize {
            self.slots.iter().flatten().count()
        }

        fn holds_page(&self, page: u64) -> bool {
            self.slots
                .iter()
                .flatten()
                .any(|slot| slot.mos_page == page)
        }

        fn allocate(&mut self, mos_page: u64, release_at: Nanos, now: Nanos) -> Option<usize> {
            for slot in &mut self.slots {
                if slot.is_some_and(|s| s.release_at <= now) {
                    *slot = None;
                }
            }
            let idx = self.slots.iter().position(Option::is_none)?;
            self.slots[idx] = Some(CloneSlot {
                mos_page,
                release_at,
            });
            self.high_water = self.high_water.max(self.in_use());
            Some(idx)
        }

        fn release(&mut self, index: usize) {
            if let Some(slot) = self.slots.get_mut(index) {
                *slot = None;
            }
        }
    }

    proptest! {
        /// Random allocate / release streams — repeated pages, clocks that
        /// step back as well as forward, pools narrower and wider than one
        /// bitmap word — hand out the scan's slots and report its occupancy.
        #[test]
        fn heap_and_bitmap_match_the_linear_scan(
            capacity in 1usize..100,
            ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..400, 0u64..24), 1..300),
        ) {
            let mut pool = PrpPool::new(capacity);
            let mut scan = ScanPool::new(capacity);
            let mut now = 500u64;
            for (op, page, span, step) in ops {
                now = (now + step).saturating_sub(10);
                let at = Nanos::from_nanos(now);
                match op {
                    0..=5 => {
                        let release_at = Nanos::from_nanos(now + 10 * span);
                        prop_assert_eq!(
                            pool.allocate(page, release_at, at),
                            scan.allocate(page, release_at, at)
                        );
                    }
                    6 => {
                        let index = span as usize % (capacity + 2);
                        pool.release(index);
                        scan.release(index);
                    }
                    _ => now += span,
                }
                prop_assert_eq!(pool.in_use(), scan.in_use());
                prop_assert_eq!(pool.high_water(), scan.high_water);
                for p in 0..24 {
                    prop_assert_eq!(pool.holds_page(p), scan.holds_page(p));
                }
            }
        }
    }
}
