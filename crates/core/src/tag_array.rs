//! The MoS tag-array: a direct-mapped cache directory kept alongside ECC in
//! each NVDIMM cache line (Fig. 11), sharded into independent banks.
//!
//! Each entry carries the tag plus three state bits the paper calls out:
//! *valid*, *dirty*, and the *busy* bit used for hazard avoidance (§IV-B,
//! §V-B). The busy bit in this model additionally records *when* the
//! in-flight operation completes, which is how the transaction-level
//! simulation realises the wait queue.
//!
//! HAMS has no OS-side ordering point, so nothing forces the directory to be
//! one monolithic array: [`ShardedTagArray`] partitions the sets into
//! [`ShardConfig::count`] banks, each owning its own tags, busy bits and
//! wait-queue state. The controller still serves every access in arrival
//! order, so the bank shape is a layout, not a schedule. The partition is
//! pure routing — a set's entry, its victim choice and its busy window are
//! identical in every shard shape — which gives the *shard-invariance
//! contract*: every observable (probe results, victims, wait times, counters)
//! is byte-identical for any shard count and hash policy, and
//! [`ShardConfig::single`] reproduces the original single-array layout
//! exactly. `tests/shape_equivalence.rs` and the proptests below pin it.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

/// One directory entry of the MoS NVDIMM cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagEntry {
    /// Tag of the MoS page cached in this set (valid only if `valid`).
    pub tag: u64,
    /// Whether the entry holds a page.
    pub valid: bool,
    /// Whether the cached page has been modified since it was filled.
    pub dirty: bool,
    /// Whether an NVMe command (fill or eviction) involving this entry is in
    /// flight; cleared when the HAMS NVMe engine sees the completion.
    pub busy: bool,
    /// Simulated time at which the in-flight operation completes (only
    /// meaningful while `busy`).
    pub busy_until: Nanos,
}

impl TagEntry {
    const EMPTY: TagEntry = TagEntry {
        tag: 0,
        valid: false,
        dirty: false,
        busy: false,
        busy_until: Nanos::ZERO,
    };
}

/// Result of probing the tag array for a MoS page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TagProbe {
    /// The page is cached in NVDIMM.
    Hit,
    /// The set is empty: fill without eviction.
    MissEmpty,
    /// The set holds a clean page that can be silently replaced.
    MissClean {
        /// MoS page number of the page being replaced.
        victim_page: u64,
    },
    /// The set holds a dirty page that must be evicted to ULL-Flash first.
    MissDirty {
        /// MoS page number of the dirty page to evict.
        victim_page: u64,
    },
}

/// Counters maintained by the tag array (per shard, summed on demand).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagArrayStats {
    /// Probe hits.
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Probes that found the target entry busy and had to wait.
    pub busy_waits: u64,
}

impl TagArrayStats {
    /// Hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn absorb(&mut self, other: &TagArrayStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.busy_waits += other.busy_waits;
    }
}

/// How a global set index is assigned to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardHashPolicy {
    /// Round-robin: set `i` lives in shard `i % count`, slot `i / count`.
    /// Adjacent sets land in different banks, so sequential sweeps spread.
    Interleave,
    /// Contiguous blocks: the set range is cut into `count` equal-size runs.
    /// Adjacent sets share a bank, so spatially local traffic stays local.
    Block,
}

/// Shape of the tag-array sharding: bank count plus the set→shard hash.
///
/// The shard shape is *routing only*: by the shard-invariance contract every
/// observable of the tag array — and therefore every metric of a HAMS run —
/// is byte-identical for any `ShardConfig`. [`ShardConfig::single`] is the
/// exact pre-sharding single array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of independent banks (at least 1).
    pub count: u16,
    /// Set→shard assignment policy.
    pub policy: ShardHashPolicy,
}

impl ShardConfig {
    /// One bank: the original monolithic tag array, byte for byte.
    #[must_use]
    pub fn single() -> Self {
        ShardConfig {
            count: 1,
            policy: ShardHashPolicy::Interleave,
        }
    }

    /// `count` banks with round-robin set assignment (the default policy for
    /// the `hams-TE-s{n}` sweep entries).
    #[must_use]
    pub fn interleaved(count: u16) -> Self {
        ShardConfig {
            count: count.max(1),
            policy: ShardHashPolicy::Interleave,
        }
    }

    /// `count` banks owning contiguous set ranges.
    #[must_use]
    pub fn blocked(count: u16) -> Self {
        ShardConfig {
            count: count.max(1),
            policy: ShardHashPolicy::Block,
        }
    }

    /// Shard shape requested through the `HAMS_SHARDS` environment variable,
    /// if set (the CI matrix lever — analogous to `HAMS_THREADS` for the
    /// grid). By the shard-invariance contract the override can never change
    /// results, only the internal bank layout.
    ///
    /// # Panics
    ///
    /// Panics if `HAMS_SHARDS` is set but not a positive `u16`. A silent
    /// fallback would neuter the CI shard matrix: a leg that failed to
    /// parse its count (or asked for zero banks) would run single-bank and
    /// report the invariance green without ever exercising a multi-bank
    /// directory.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("HAMS_SHARDS").ok()?;
        let count = raw
            .trim()
            .parse::<u16>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                panic!("HAMS_SHARDS must be a positive integer up to 65535, got {raw:?}")
            });
        Some(ShardConfig::interleaved(count))
    }

    /// The shard owning global set index `set` out of `num_sets`.
    #[must_use]
    pub fn shard_of_set(&self, set: usize, num_sets: usize) -> u16 {
        let count = usize::from(self.count.max(1));
        let shard = match self.policy {
            ShardHashPolicy::Interleave => set % count,
            ShardHashPolicy::Block => set / num_sets.div_ceil(count).max(1),
        };
        shard.min(count - 1) as u16
    }

    /// `(shard, slot)` of global set index `set` out of `num_sets`.
    fn locate(&self, set: usize, num_sets: usize) -> (usize, usize) {
        let count = usize::from(self.count.max(1));
        match self.policy {
            ShardHashPolicy::Interleave => (set % count, set / count),
            ShardHashPolicy::Block => {
                let block = num_sets.div_ceil(count).max(1);
                ((set / block).min(count - 1), set % block)
            }
        }
    }

    /// Number of sets bank `shard` owns out of `num_sets`.
    fn shard_len(&self, shard: usize, num_sets: usize) -> usize {
        let count = usize::from(self.count.max(1));
        match self.policy {
            // ceil((num_sets - shard) / count): shard <= count - 1, so the
            // numerator never underflows, and shards past the last set get 0.
            ShardHashPolicy::Interleave => (num_sets + count - 1 - shard) / count,
            ShardHashPolicy::Block => {
                let block = num_sets.div_ceil(count).max(1);
                num_sets.saturating_sub(shard * block).min(block)
            }
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// One independent bank of the sharded directory: its own entries, busy bits
/// and wait-queue state, plus its own counters — no state is shared between
/// banks, so there is no global ordering point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TagShard {
    entries: Vec<TagEntry>,
    stats: TagArrayStats,
}

/// Direct-mapped MoS tag array, sharded into independent banks.
///
/// # Example
///
/// ```
/// use hams_core::{ShardConfig, ShardedTagArray, TagProbe};
///
/// let mut tags = ShardedTagArray::with_config(4, ShardConfig::interleaved(2));
/// assert_eq!(tags.probe(7), TagProbe::MissEmpty);
/// tags.fill(7);
/// assert_eq!(tags.probe(7), TagProbe::Hit);
/// // Page 11 maps to the same set (11 % 4 == 7 % 4) and evicts page 7 —
/// // exactly as in the single-shard array.
/// assert_eq!(tags.probe(11), TagProbe::MissClean { victim_page: 7 });
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedTagArray {
    num_sets: usize,
    config: ShardConfig,
    shards: Vec<TagShard>,
}

/// The pre-sharding name of the directory; kept as an alias so existing code
/// and docs keep compiling. [`ShardedTagArray::new`] is the single-shard
/// constructor it always had.
pub type MosTagArray = ShardedTagArray;

impl ShardedTagArray {
    /// Creates a single-shard tag array with `num_sets` direct-mapped sets —
    /// the original monolithic layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    #[must_use]
    pub fn new(num_sets: usize) -> Self {
        Self::with_config(num_sets, ShardConfig::single())
    }

    /// Creates a tag array with `num_sets` sets partitioned into the banks
    /// described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    #[must_use]
    pub fn with_config(num_sets: usize, config: ShardConfig) -> Self {
        assert!(num_sets > 0, "tag array needs at least one set");
        let count = usize::from(config.count.max(1));
        let shards = (0..count)
            .map(|s| TagShard {
                entries: vec![TagEntry::EMPTY; config.shard_len(s, num_sets)],
                stats: TagArrayStats::default(),
            })
            .collect();
        ShardedTagArray {
            num_sets,
            config,
            shards,
        }
    }

    /// Number of sets (NVDIMM cache lines) across all shards.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Number of independent banks.
    #[must_use]
    pub fn num_shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// The shard shape in force.
    #[must_use]
    pub fn shard_config(&self) -> ShardConfig {
        self.config
    }

    /// Probe/miss counters summed across every shard. The sum is invariant
    /// under the shard shape: each operation touches exactly one set and is
    /// counted in exactly one bank.
    #[must_use]
    pub fn stats(&self) -> TagArrayStats {
        let mut total = TagArrayStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats);
        }
        total
    }

    /// Counters of one bank (observability for the shard sweep; panics if
    /// `shard` is out of range).
    #[must_use]
    pub fn shard_stats(&self, shard: u16) -> &TagArrayStats {
        &self.shards[usize::from(shard)].stats
    }

    /// Number of sets bank `shard` owns.
    #[must_use]
    pub fn shard_sets(&self, shard: u16) -> usize {
        self.shards[usize::from(shard)].entries.len()
    }

    /// Set index of a MoS page number (global, shard-independent).
    #[must_use]
    pub fn index_of(&self, page: u64) -> usize {
        (page % self.num_sets as u64) as usize
    }

    /// Tag of a MoS page number.
    #[must_use]
    pub fn tag_of(&self, page: u64) -> u64 {
        page / self.num_sets as u64
    }

    /// The shard owning the set that `page` maps to.
    #[must_use]
    pub fn shard_of_page(&self, page: u64) -> u16 {
        self.config.shard_of_set(self.index_of(page), self.num_sets)
    }

    fn slot(&self, index: usize) -> (usize, usize) {
        self.config.locate(index, self.num_sets)
    }

    fn entry_mut(&mut self, index: usize) -> &mut TagEntry {
        let (shard, slot) = self.slot(index);
        &mut self.shards[shard].entries[slot]
    }

    /// MoS page number stored in a set, if valid.
    #[must_use]
    pub fn resident_page(&self, index: usize) -> Option<u64> {
        let e = *self.entry(index);
        e.valid.then(|| e.tag * self.num_sets as u64 + index as u64)
    }

    /// Read access to a set's entry (global set index).
    #[must_use]
    pub fn entry(&self, index: usize) -> &TagEntry {
        let (shard, slot) = self.slot(index);
        &self.shards[shard].entries[slot]
    }

    /// Probes for `page`, updating the owning shard's hit/miss statistics.
    pub fn probe(&mut self, page: u64) -> TagProbe {
        let idx = self.index_of(page);
        let tag = self.tag_of(page);
        let num_sets = self.num_sets as u64;
        // One bank lookup serves the entry and the counters — this is the
        // hottest path of every simulated access.
        let (s, slot) = self.slot(idx);
        let shard = &mut self.shards[s];
        let e = shard.entries[slot];
        if e.valid && e.tag == tag {
            shard.stats.hits += 1;
            TagProbe::Hit
        } else {
            shard.stats.misses += 1;
            if !e.valid {
                TagProbe::MissEmpty
            } else {
                let victim_page = e.tag * num_sets + idx as u64;
                if e.dirty {
                    TagProbe::MissDirty { victim_page }
                } else {
                    TagProbe::MissClean { victim_page }
                }
            }
        }
    }

    /// Checks whether the set that `page` maps to is busy at `now`; if so,
    /// returns when it becomes free and records a wait in the owning shard.
    pub fn busy_until(&mut self, page: u64, now: Nanos) -> Option<Nanos> {
        let idx = self.index_of(page);
        let (s, slot) = self.slot(idx);
        let shard = &mut self.shards[s];
        let e = &mut shard.entries[slot];
        if e.busy && e.busy_until > now {
            let until = e.busy_until;
            shard.stats.busy_waits += 1;
            Some(until)
        } else {
            if e.busy {
                // The in-flight operation has completed by `now`.
                e.busy = false;
            }
            None
        }
    }

    /// Installs `page` in its set (clean, not busy). Returns the set index.
    pub fn fill(&mut self, page: u64) -> usize {
        let idx = self.index_of(page);
        let tag = self.tag_of(page);
        *self.entry_mut(idx) = TagEntry {
            tag,
            valid: true,
            dirty: false,
            busy: false,
            busy_until: Nanos::ZERO,
        };
        idx
    }

    /// Marks the cached copy of `page` dirty.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not currently cached — marking a non-resident page
    /// dirty indicates a controller sequencing bug.
    pub fn mark_dirty(&mut self, page: u64) {
        let idx = self.index_of(page);
        let tag = self.tag_of(page);
        let e = self.entry_mut(idx);
        assert!(
            e.valid && e.tag == tag,
            "mark_dirty on a page that is not cached"
        );
        e.dirty = true;
    }

    /// Marks the cached copy of `page` clean (its eviction write-back has
    /// durably completed).
    pub fn mark_clean(&mut self, page: u64) {
        let idx = self.index_of(page);
        let tag = self.tag_of(page);
        let e = self.entry_mut(idx);
        if e.valid && e.tag == tag {
            e.dirty = false;
        }
    }

    /// Sets the busy bit on the set `page` maps to, recording the completion
    /// time of the in-flight operation.
    pub fn set_busy(&mut self, page: u64, until: Nanos) {
        let idx = self.index_of(page);
        let e = self.entry_mut(idx);
        e.busy = true;
        e.busy_until = e.busy_until.max(until);
    }

    /// Clears the busy bit on the set `page` maps to.
    pub fn clear_busy(&mut self, page: u64) {
        let idx = self.index_of(page);
        self.entry_mut(idx).busy = false;
    }

    /// Invalidates the set `page` maps to (regardless of which page it held).
    pub fn invalidate(&mut self, page: u64) {
        let idx = self.index_of(page);
        *self.entry_mut(idx) = TagEntry::EMPTY;
    }

    /// Iterates over all valid (resident) MoS page numbers, in global set
    /// order — identical for every shard shape.
    pub fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_sets).filter_map(|i| self.resident_page(i))
    }

    /// Iterates over all valid *dirty* MoS page numbers, in global set order.
    pub fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_sets).filter_map(|i| {
            let e = self.entry(i);
            (e.valid && e.dirty).then(|| e.tag * self.num_sets as u64 + i as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_classifies_all_cases() {
        let mut t = MosTagArray::new(4);
        assert_eq!(t.probe(2), TagProbe::MissEmpty);
        t.fill(2);
        assert_eq!(t.probe(2), TagProbe::Hit);
        // 6 maps to set 2 as well; resident page 2 is clean.
        assert_eq!(t.probe(6), TagProbe::MissClean { victim_page: 2 });
        t.mark_dirty(2);
        assert_eq!(t.probe(6), TagProbe::MissDirty { victim_page: 2 });
    }

    #[test]
    fn fill_replaces_and_resets_state() {
        let mut t = MosTagArray::new(4);
        t.fill(2);
        t.mark_dirty(2);
        t.fill(6);
        assert_eq!(t.probe(6), TagProbe::Hit);
        assert!(!t.entry(2).dirty, "fill must reset the dirty bit");
        assert_eq!(t.resident_page(2), Some(6));
    }

    #[test]
    fn hit_rate_accumulates() {
        let mut t = MosTagArray::new(8);
        t.fill(1);
        for _ in 0..9 {
            t.probe(1);
        }
        t.probe(100);
        assert!((t.stats().hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn busy_bit_reports_wait_until_completion() {
        let mut t = MosTagArray::new(4);
        t.fill(3);
        t.set_busy(3, Nanos::from_micros(10));
        assert_eq!(
            t.busy_until(3, Nanos::from_micros(1)),
            Some(Nanos::from_micros(10))
        );
        assert_eq!(t.stats().busy_waits, 1);
        // After the completion time the busy bit self-clears.
        assert_eq!(t.busy_until(3, Nanos::from_micros(11)), None);
        assert!(!t.entry(3).busy);
    }

    #[test]
    fn set_busy_keeps_the_latest_completion() {
        let mut t = MosTagArray::new(4);
        t.set_busy(0, Nanos::from_micros(5));
        t.set_busy(0, Nanos::from_micros(2));
        assert_eq!(t.busy_until(0, Nanos::ZERO), Some(Nanos::from_micros(5)));
        t.clear_busy(0);
        assert_eq!(t.busy_until(0, Nanos::ZERO), None);
    }

    // Busy/wait-queue edge cases: pinned before sharding, and kept pinned
    // after — these per-set hazards are now per-shard and must not change
    // meaning. The busy bit belongs to the *set*, not the page — a conflict
    // on an in-flight line must wait even though it targets a different tag.

    #[test]
    fn conflicting_page_waits_on_a_busy_set_it_does_not_own() {
        let mut t = MosTagArray::new(4);
        t.fill(3);
        t.set_busy(3, Nanos::from_micros(10));
        // Page 7 maps to the same set as page 3 but carries a different tag;
        // its fill must park behind the in-flight operation.
        assert_eq!(t.index_of(7), t.index_of(3));
        assert_eq!(
            t.busy_until(7, Nanos::from_micros(2)),
            Some(Nanos::from_micros(10))
        );
        assert_eq!(t.stats().busy_waits, 1);
        // After the wait the probe sees the clean resident victim.
        assert_eq!(t.busy_until(7, Nanos::from_micros(10)), None);
        assert_eq!(t.probe(7), TagProbe::MissClean { victim_page: 3 });
    }

    #[test]
    fn eviction_replacing_a_set_with_a_pending_fill_resets_busy_state() {
        let mut t = MosTagArray::new(4);
        t.fill(1);
        t.mark_dirty(1);
        t.set_busy(1, Nanos::from_micros(50));
        // A conflicting fill lands while the old operation is still pending:
        // install replaces tag, dirty *and* busy state atomically.
        t.fill(5);
        assert_eq!(t.resident_page(1), Some(5));
        assert!(!t.entry(1).busy, "fill must clear the stale busy bit");
        assert!(!t.entry(1).dirty, "fill must clear the stale dirty bit");
        assert_eq!(t.busy_until(5, Nanos::ZERO), None);
        // The new occupant can immediately go busy for its own fill.
        t.set_busy(5, Nanos::from_micros(7));
        assert_eq!(t.busy_until(5, Nanos::ZERO), Some(Nanos::from_micros(7)));
    }

    #[test]
    fn busy_window_boundary_is_exclusive_and_self_clears() {
        let mut t = MosTagArray::new(2);
        t.set_busy(0, Nanos::from_micros(5));
        // Exactly at the completion time the operation has finished: no wait,
        // and the bit self-clears without an explicit clear_busy.
        assert_eq!(t.busy_until(0, Nanos::from_micros(5)), None);
        assert!(!t.entry(0).busy);
        assert_eq!(t.stats().busy_waits, 0, "boundary probe is not a wait");
    }

    #[test]
    fn invalidate_during_pending_fill_drops_the_busy_bit() {
        let mut t = MosTagArray::new(4);
        t.fill(2);
        t.set_busy(2, Nanos::from_micros(100));
        t.invalidate(2);
        assert_eq!(t.probe(2), TagProbe::MissEmpty);
        assert_eq!(t.busy_until(2, Nanos::ZERO), None);
    }

    #[test]
    fn mark_clean_on_a_replaced_page_is_a_no_op() {
        let mut t = MosTagArray::new(4);
        t.fill(1);
        t.mark_dirty(1);
        t.fill(5); // replaces page 1 in set 1
        t.mark_dirty(5);
        // Page 1's eviction completes late; its mark_clean must not touch the
        // new occupant's dirty bit.
        t.mark_clean(1);
        assert!(t.entry(1).dirty, "stale mark_clean must not affect page 5");
    }

    #[test]
    fn dirty_and_resident_iterators() {
        let mut t = MosTagArray::new(8);
        t.fill(1);
        t.fill(2);
        t.mark_dirty(2);
        let resident: Vec<u64> = t.resident_pages().collect();
        let dirty: Vec<u64> = t.dirty_pages().collect();
        assert_eq!(resident, vec![1, 2]);
        assert_eq!(dirty, vec![2]);
        t.mark_clean(2);
        assert_eq!(t.dirty_pages().count(), 0);
    }

    #[test]
    fn invalidate_empties_the_set() {
        let mut t = MosTagArray::new(4);
        t.fill(5);
        t.invalidate(5);
        assert_eq!(t.probe(5), TagProbe::MissEmpty);
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn marking_uncached_page_dirty_panics() {
        let mut t = MosTagArray::new(4);
        t.mark_dirty(9);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = MosTagArray::new(0);
    }

    // ----- shard-shape plumbing -----

    #[test]
    fn single_shard_config_is_the_default() {
        let t = MosTagArray::new(8);
        assert_eq!(t.num_shards(), 1);
        assert_eq!(t.shard_config(), ShardConfig::single());
        assert_eq!(t.shard_sets(0), 8);
    }

    #[test]
    fn interleave_partitions_sets_round_robin() {
        let t = ShardedTagArray::with_config(10, ShardConfig::interleaved(4));
        assert_eq!(t.num_shards(), 4);
        // Sets 0..10 interleave: shard sizes 3, 3, 2, 2.
        let sizes: Vec<usize> = (0u16..4).map(|s| t.shard_sets(s)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(sizes.iter().sum::<usize>(), t.num_sets());
        assert_eq!(t.shard_of_page(0), 0);
        assert_eq!(t.shard_of_page(1), 1);
        assert_eq!(t.shard_of_page(5), 1);
        assert_eq!(t.shard_of_page(13), 3); // set 3
    }

    #[test]
    fn block_partitions_sets_contiguously() {
        let t = ShardedTagArray::with_config(10, ShardConfig::blocked(4));
        // Blocks of ceil(10/4) = 3: sizes 3, 3, 3, 1.
        let sizes: Vec<usize> = (0u16..4).map(|s| t.shard_sets(s)).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(t.shard_of_page(0), 0);
        assert_eq!(t.shard_of_page(2), 0);
        assert_eq!(t.shard_of_page(3), 1);
        assert_eq!(t.shard_of_page(9), 3);
    }

    #[test]
    fn more_shards_than_sets_leaves_trailing_banks_empty() {
        let t = ShardedTagArray::with_config(3, ShardConfig::interleaved(8));
        assert_eq!(t.num_shards(), 8);
        let total: usize = (0u16..8).map(|s| t.shard_sets(s)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn zero_count_is_clamped_to_one() {
        assert_eq!(ShardConfig::interleaved(0).count, 1);
        assert_eq!(ShardConfig::blocked(0).count, 1);
    }

    #[test]
    fn per_shard_stats_sum_to_the_aggregate() {
        let mut t = ShardedTagArray::with_config(8, ShardConfig::interleaved(3));
        for page in 0..16u64 {
            t.probe(page);
            t.fill(page);
        }
        let total = t.stats();
        let mut summed = TagArrayStats::default();
        for s in 0..t.num_shards() {
            summed.absorb(t.shard_stats(s));
        }
        assert_eq!(total, summed);
        assert_eq!(total.hits + total.misses, 16);
    }

    // ----- shard-invariance proptests -----
    //
    // The pinned contract: for ANY op stream, ANY shard count and ANY hash
    // policy, the sharded array is observably identical to the single-shard
    // reference — same probe results (hit/miss/evict classification and
    // victims, i.e. the counters feeding evictions and write-backs), same
    // wait-queue answers in the same order within every set, same counters,
    // same final entries. Sets that alias across shards (consecutive sets in
    // different banks under Interleave) get no special casing by
    // construction: the op stream below constantly crosses bank boundaries.

    use proptest::prelude::*;

    fn build_pair(num_sets: usize, count: u16, policy_pick: u8) -> (MosTagArray, ShardedTagArray) {
        let policy = if policy_pick.is_multiple_of(2) {
            ShardConfig::interleaved(count)
        } else {
            ShardConfig::blocked(count)
        };
        (
            MosTagArray::new(num_sets),
            ShardedTagArray::with_config(num_sets, policy),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Hit/miss/evict classification (and thus every counter a controller
        /// derives from it) is invariant under the shard shape for arbitrary
        /// access streams.
        #[test]
        fn probe_and_fill_streams_are_shard_invariant(
            num_sets in 1usize..24,
            count in 1u16..12,
            policy_pick in 0u8..2,
            ops in proptest::collection::vec((0u8..4, 0u64..96), 1..160),
        ) {
            let (mut single, mut sharded) = build_pair(num_sets, count, policy_pick);
            for (kind, page) in &ops {
                match kind % 4 {
                    0 => prop_assert_eq!(single.probe(*page), sharded.probe(*page)),
                    1 => prop_assert_eq!(single.fill(*page), sharded.fill(*page)),
                    2 => {
                        // mark_dirty is only legal on resident pages; use the
                        // reference to decide (both must agree on residency).
                        let resident =
                            single.resident_page(single.index_of(*page)) == Some(*page);
                        prop_assert_eq!(
                            resident,
                            sharded.resident_page(sharded.index_of(*page)) == Some(*page)
                        );
                        if resident {
                            single.mark_dirty(*page);
                            sharded.mark_dirty(*page);
                        }
                    }
                    _ => {
                        single.mark_clean(*page);
                        sharded.mark_clean(*page);
                    }
                }
            }
            prop_assert_eq!(single.stats(), sharded.stats());
            let resident_a: Vec<u64> = single.resident_pages().collect();
            let resident_b: Vec<u64> = sharded.resident_pages().collect();
            prop_assert_eq!(resident_a, resident_b);
            let dirty_a: Vec<u64> = single.dirty_pages().collect();
            let dirty_b: Vec<u64> = sharded.dirty_pages().collect();
            prop_assert_eq!(dirty_a, dirty_b);
            for i in 0..num_sets {
                prop_assert_eq!(single.entry(i), sharded.entry(i));
            }
        }

        /// No wait-queue entry is lost or reordered within a set when sets
        /// alias across shards: the exact sequence of `busy_until` answers
        /// (the wait queue of Fig. 14) and the busy-wait counters match the
        /// single-shard reference for arbitrary interleavings of busy
        /// set/clear/query/invalidate on aliased pages.
        #[test]
        fn wait_queue_order_within_a_set_is_shard_invariant(
            num_sets in 1usize..12,
            count in 1u16..12,
            policy_pick in 0u8..2,
            ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..40), 1..160),
        ) {
            let (mut single, mut sharded) = build_pair(num_sets, count, policy_pick);
            for (kind, slot, t) in &ops {
                // Aliased addressing: pages 0..24 cover every set several
                // times over for num_sets < 12, so ops constantly collide on
                // sets owned by different banks.
                let page = *slot;
                let now = Nanos::from_nanos(*t * 100);
                match kind % 4 {
                    0 => {
                        single.set_busy(page, now);
                        sharded.set_busy(page, now);
                    }
                    1 => prop_assert_eq!(
                        single.busy_until(page, now),
                        sharded.busy_until(page, now),
                        "wait answer diverged for page {} at {}", page, now
                    ),
                    2 => {
                        single.clear_busy(page);
                        sharded.clear_busy(page);
                    }
                    _ => {
                        single.invalidate(page);
                        sharded.invalidate(page);
                    }
                }
            }
            prop_assert_eq!(single.stats().busy_waits, sharded.stats().busy_waits);
            for i in 0..num_sets {
                prop_assert_eq!(single.entry(i), sharded.entry(i));
            }
        }
    }
}
