//! The MoS tag-array: a direct-mapped cache directory kept alongside ECC in
//! each NVDIMM cache line (Fig. 11).
//!
//! Each entry carries the tag plus three state bits the paper calls out:
//! *valid*, *dirty*, and the *busy* bit used for hazard avoidance (§IV-B,
//! §V-B). The busy bit in this model additionally records *when* the
//! in-flight operation completes, which is how the transaction-level
//! simulation realises the wait queue.
//!
//! [`ShardedTagArray`] keeps every set's entry in one flat array indexed by
//! the set, as the controller decodes a MoS address once: the index bits
//! pick the set and the upper bits are the tag. A [`ShardConfig`] names the
//! bank each set belongs to, and that bank label is stamped on journal tags
//! and trace spans; it never changes where an entry lives. This gives the
//! *shard-invariance contract*: every observable (probe results, victims,
//! wait times, counters) is byte-identical for any shard count and hash
//! policy. `tests/shape_equivalence.rs` pins it end to end, and the proptest
//! below checks the flat array against a banked reference that keeps each
//! bank's entries and counters apart.

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

/// Counters maintained by the tag array.
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
}

/// How a global set index is assigned to a bank label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardHashPolicy {
    /// Round-robin: set `i` belongs to bank `i % count`. Adjacent sets get
    /// different banks, so sequential sweeps spread.
    Interleave,
    /// Contiguous blocks: the set range is cut into `count` equal-size runs.
    /// Adjacent sets share a bank.
    Block,
}

/// The tag directory's bank labels: bank count plus the set→bank hash.
///
/// The label names the bank a set belongs to on journal tags and trace
/// spans. By the shard-invariance contract every observable of the tag
/// array — and therefore every metric of a HAMS run — is byte-identical for
/// any `ShardConfig`. [`ShardConfig::single`] labels every set bank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of banks (at least 1).
    pub count: u16,
    /// Set→shard assignment policy.
    pub policy: ShardHashPolicy,
}

impl ShardConfig {
    /// One bank: every set is labelled bank 0.
    #[must_use]
    pub fn single() -> Self {
        ShardConfig {
            count: 1,
            policy: ShardHashPolicy::Interleave,
        }
    }

    /// `count` banks with round-robin set assignment (the policy of the
    /// shard sweep, `figures fig22`).
    #[must_use]
    pub fn interleaved(count: u16) -> Self {
        ShardConfig {
            count: count.max(1),
            policy: ShardHashPolicy::Interleave,
        }
    }

    /// `count` banks labelling contiguous set ranges.
    #[must_use]
    pub fn blocked(count: u16) -> Self {
        ShardConfig {
            count: count.max(1),
            policy: ShardHashPolicy::Block,
        }
    }

    /// The bank labelling global set index `set` out of `num_sets`.
    #[must_use]
    pub fn shard_of_set(&self, set: usize, num_sets: usize) -> u16 {
        let count = usize::from(self.count.max(1));
        let shard = match self.policy {
            ShardHashPolicy::Interleave => set % count,
            ShardHashPolicy::Block => set / num_sets.div_ceil(count).max(1),
        };
        shard.min(count - 1) as u16
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// A MoS page resolved against the directory once: the set it maps to and
/// the tag it carries there. One access resolves its page once and passes
/// the result to every directory call it makes, so the set and tag come
/// from a single division (Fig. 11's index and tag bits).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetRef {
    pub(crate) set: usize,
    pub(crate) tag: u64,
}

/// Direct-mapped MoS tag array: one entry per set in one flat array, with
/// each set's bank named by a [`ShardConfig`].
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
/// // Page 11 maps to the same set (11 % 4 == 7 % 4) and evicts page 7,
/// // whatever the bank count.
/// assert_eq!(tags.probe(11), TagProbe::MissClean { victim_page: 7 });
/// assert_eq!(tags.shard_of_page(11), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedTagArray {
    config: ShardConfig,
    /// One entry per set, indexed by the global set index.
    entries: Vec<TagEntry>,
    stats: TagArrayStats,
}

/// The pre-sharding name of the directory; kept as an alias so existing code
/// and docs keep compiling. [`ShardedTagArray::new`] is the single-shard
/// constructor it always had.
pub type MosTagArray = ShardedTagArray;

impl ShardedTagArray {
    /// Creates a single-bank tag array with `num_sets` direct-mapped sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    #[must_use]
    pub fn new(num_sets: usize) -> Self {
        Self::with_config(num_sets, ShardConfig::single())
    }

    /// Creates a tag array with `num_sets` sets whose banks `config` names.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    #[must_use]
    pub fn with_config(num_sets: usize, config: ShardConfig) -> Self {
        assert!(num_sets > 0, "tag array needs at least one set");
        ShardedTagArray {
            config,
            entries: vec![TagEntry::EMPTY; num_sets],
            stats: TagArrayStats::default(),
        }
    }

    /// Number of sets (NVDIMM cache lines).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.entries.len()
    }

    /// Number of banks the sets are labelled with.
    #[must_use]
    pub fn num_shards(&self) -> u16 {
        self.config.count.max(1)
    }

    /// The shard shape in force.
    #[must_use]
    pub fn shard_config(&self) -> ShardConfig {
        self.config
    }

    /// Probe, miss and busy-wait counters.
    #[must_use]
    pub fn stats(&self) -> TagArrayStats {
        self.stats
    }

    /// Set index of a MoS page number.
    #[must_use]
    pub fn index_of(&self, page: u64) -> usize {
        self.locate(page).set
    }

    /// Tag of a MoS page number.
    #[must_use]
    pub fn tag_of(&self, page: u64) -> u64 {
        self.locate(page).tag
    }

    /// The set and tag of `page`. The remainder and the quotient share their
    /// operands, so the compiler emits one division for both.
    #[inline]
    pub(crate) fn locate(&self, page: u64) -> SetRef {
        let num_sets = self.entries.len() as u64;
        SetRef {
            set: (page % num_sets) as usize,
            tag: page / num_sets,
        }
    }

    /// The bank labelling the set that `page` maps to.
    #[must_use]
    pub fn shard_of_page(&self, page: u64) -> u16 {
        self.config
            .shard_of_set(self.index_of(page), self.entries.len())
    }

    /// MoS page number stored in a set, if valid.
    #[must_use]
    pub fn resident_page(&self, index: usize) -> Option<u64> {
        let e = self.entries[index];
        e.valid
            .then(|| e.tag * self.entries.len() as u64 + index as u64)
    }

    /// Read access to a set's entry (global set index).
    #[must_use]
    pub fn entry(&self, index: usize) -> &TagEntry {
        &self.entries[index]
    }

    /// Probes for `page`, updating the hit/miss statistics.
    pub fn probe(&mut self, page: u64) -> TagProbe {
        self.probe_at(self.locate(page))
    }

    /// [`Self::probe`] on a resolved page: the hottest path of every
    /// simulated access.
    #[inline]
    pub(crate) fn probe_at(&mut self, at: SetRef) -> TagProbe {
        let e = self.entries[at.set];
        if e.valid && e.tag == at.tag {
            self.stats.hits += 1;
            TagProbe::Hit
        } else {
            self.stats.misses += 1;
            if !e.valid {
                TagProbe::MissEmpty
            } else {
                let victim_page = e.tag * self.entries.len() as u64 + at.set as u64;
                if e.dirty {
                    TagProbe::MissDirty { victim_page }
                } else {
                    TagProbe::MissClean { victim_page }
                }
            }
        }
    }

    /// Checks whether the set that `page` maps to is busy at `now`; if so,
    /// returns when it becomes free and counts a wait.
    pub fn busy_until(&mut self, page: u64, now: Nanos) -> Option<Nanos> {
        self.busy_until_at(self.locate(page), now)
    }

    /// [`Self::busy_until`] on a resolved page.
    #[inline]
    pub(crate) fn busy_until_at(&mut self, at: SetRef, now: Nanos) -> Option<Nanos> {
        let e = &mut self.entries[at.set];
        if e.busy && e.busy_until > now {
            self.stats.busy_waits += 1;
            Some(e.busy_until)
        } else {
            // An in-flight operation that has completed by `now` clears.
            e.busy = false;
            None
        }
    }

    /// Installs `page` in its set (clean, not busy). Returns the set index.
    pub fn fill(&mut self, page: u64) -> usize {
        self.fill_at(self.locate(page))
    }

    /// [`Self::fill`] on a resolved page.
    #[inline]
    pub(crate) fn fill_at(&mut self, at: SetRef) -> usize {
        self.entries[at.set] = TagEntry {
            tag: at.tag,
            valid: true,
            dirty: false,
            busy: false,
            busy_until: Nanos::ZERO,
        };
        at.set
    }

    /// Marks the cached copy of `page` dirty.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not currently cached — marking a non-resident page
    /// dirty indicates a controller sequencing bug.
    pub fn mark_dirty(&mut self, page: u64) {
        self.mark_dirty_at(self.locate(page));
    }

    /// [`Self::mark_dirty`] on a resolved page.
    #[inline]
    pub(crate) fn mark_dirty_at(&mut self, at: SetRef) {
        let e = &mut self.entries[at.set];
        assert!(
            e.valid && e.tag == at.tag,
            "mark_dirty on a page that is not cached"
        );
        e.dirty = true;
    }

    /// Sets the busy bit on the set `page` maps to, recording the completion
    /// time of the in-flight operation.
    pub fn set_busy(&mut self, page: u64, until: Nanos) {
        self.set_busy_at(self.locate(page), until);
    }

    /// [`Self::set_busy`] on a resolved page.
    #[inline]
    pub(crate) fn set_busy_at(&mut self, at: SetRef, until: Nanos) {
        let e = &mut self.entries[at.set];
        e.busy = true;
        e.busy_until = e.busy_until.max(until);
    }

    /// Clears the busy bit on the set `page` maps to.
    pub fn clear_busy(&mut self, page: u64) {
        let set = self.index_of(page);
        self.entries[set].busy = false;
    }

    /// Iterates over all valid (resident) MoS page numbers, in set order.
    pub fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.entries.len()).filter_map(|i| self.resident_page(i))
    }

    /// Iterates over all valid *dirty* MoS page numbers, in set order.
    pub fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
        let num_sets = self.entries.len() as u64;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid && e.dirty)
            .map(move |(i, e)| e.tag * num_sets + i as u64)
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
    fn dirty_and_resident_iterators() {
        let mut t = MosTagArray::new(8);
        t.fill(1);
        t.fill(2);
        t.mark_dirty(2);
        let resident: Vec<u64> = t.resident_pages().collect();
        let dirty: Vec<u64> = t.dirty_pages().collect();
        assert_eq!(resident, vec![1, 2]);
        assert_eq!(dirty, vec![2]);
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

    #[test]
    fn locate_splits_a_page_into_set_and_tag() {
        for num_sets in [1usize, 3, 4, 10, 3966] {
            let t = MosTagArray::new(num_sets);
            let n = num_sets as u64;
            for page in [0u64, 1, 7, 11, n - 1, n, n + 1, 12_345, u64::MAX] {
                let at = t.locate(page);
                assert_eq!((at.set as u64, at.tag), (page % n, page / n));
                assert_eq!((t.index_of(page), t.tag_of(page)), (at.set, at.tag));
            }
        }
    }

    // ----- bank labels -----

    #[test]
    fn single_shard_config_is_the_default() {
        let t = MosTagArray::new(8);
        assert_eq!(t.num_shards(), 1);
        assert_eq!(t.shard_config(), ShardConfig::single());
        assert_eq!(t.shard_of_page(7), 0);
    }

    #[test]
    fn interleave_partitions_sets_round_robin() {
        let t = ShardedTagArray::with_config(10, ShardConfig::interleaved(4));
        assert_eq!(t.num_shards(), 4);
        assert_eq!(t.shard_of_page(0), 0);
        assert_eq!(t.shard_of_page(1), 1);
        assert_eq!(t.shard_of_page(5), 1);
        assert_eq!(t.shard_of_page(13), 3); // set 3
    }

    #[test]
    fn block_partitions_sets_contiguously() {
        let t = ShardedTagArray::with_config(10, ShardConfig::blocked(4));
        // Blocks of ceil(10/4) = 3 sets.
        assert_eq!(t.shard_of_page(0), 0);
        assert_eq!(t.shard_of_page(2), 0);
        assert_eq!(t.shard_of_page(3), 1);
        assert_eq!(t.shard_of_page(9), 3);
    }

    #[test]
    fn more_shards_than_sets_labels_only_the_leading_banks() {
        let t = ShardedTagArray::with_config(3, ShardConfig::interleaved(8));
        assert_eq!(t.num_shards(), 8);
        let banks: Vec<u16> = (0..6u64).map(|page| t.shard_of_page(page)).collect();
        assert_eq!(banks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn zero_count_is_clamped_to_one() {
        assert_eq!(ShardConfig::interleaved(0).count, 1);
        assert_eq!(ShardConfig::blocked(0).count, 1);
    }

    // ----- oracle: the banked directory the flat array replaced -----
    //
    // `BankedReference` is the directory as it was when each bank owned its
    // own entries and counters: a set lives in bank `locate(set).0` at slot
    // `locate(set).1`, and the aggregate counters are the sum over banks.
    // The flat array must answer every operation exactly as it does, for any
    // bank count and hash policy — the shard-invariance contract, checked
    // against an independent layout rather than against itself.

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct TagShard {
        entries: Vec<TagEntry>,
        stats: TagArrayStats,
    }

    #[derive(Debug, Clone)]
    struct BankedReference {
        num_sets: usize,
        config: ShardConfig,
        shards: Vec<TagShard>,
    }

    impl BankedReference {
        fn with_config(num_sets: usize, config: ShardConfig) -> Self {
            let count = usize::from(config.count.max(1));
            let shards = (0..count)
                .map(|s| TagShard {
                    entries: vec![TagEntry::EMPTY; Self::shard_len(config, s, num_sets)],
                    stats: TagArrayStats::default(),
                })
                .collect();
            BankedReference {
                num_sets,
                config,
                shards,
            }
        }

        /// `(shard, slot)` of global set index `set` out of `num_sets`.
        fn locate(config: ShardConfig, set: usize, num_sets: usize) -> (usize, usize) {
            let count = usize::from(config.count.max(1));
            match config.policy {
                ShardHashPolicy::Interleave => (set % count, set / count),
                ShardHashPolicy::Block => {
                    let block = num_sets.div_ceil(count).max(1);
                    ((set / block).min(count - 1), set % block)
                }
            }
        }

        /// Number of sets bank `shard` owns out of `num_sets`.
        fn shard_len(config: ShardConfig, shard: usize, num_sets: usize) -> usize {
            let count = usize::from(config.count.max(1));
            match config.policy {
                ShardHashPolicy::Interleave => (num_sets + count - 1 - shard) / count,
                ShardHashPolicy::Block => {
                    let block = num_sets.div_ceil(count).max(1);
                    num_sets.saturating_sub(shard * block).min(block)
                }
            }
        }

        fn stats(&self) -> TagArrayStats {
            let mut total = TagArrayStats::default();
            for shard in &self.shards {
                total.hits += shard.stats.hits;
                total.misses += shard.stats.misses;
                total.busy_waits += shard.stats.busy_waits;
            }
            total
        }

        fn index_of(&self, page: u64) -> usize {
            (page % self.num_sets as u64) as usize
        }

        fn tag_of(&self, page: u64) -> u64 {
            page / self.num_sets as u64
        }

        fn shard_of_page(&self, page: u64) -> u16 {
            Self::locate(self.config, self.index_of(page), self.num_sets).0 as u16
        }

        fn slot(&self, index: usize) -> (usize, usize) {
            Self::locate(self.config, index, self.num_sets)
        }

        fn entry(&self, index: usize) -> &TagEntry {
            let (shard, slot) = self.slot(index);
            &self.shards[shard].entries[slot]
        }

        fn entry_mut(&mut self, index: usize) -> &mut TagEntry {
            let (shard, slot) = self.slot(index);
            &mut self.shards[shard].entries[slot]
        }

        fn resident_page(&self, index: usize) -> Option<u64> {
            let e = *self.entry(index);
            e.valid.then(|| e.tag * self.num_sets as u64 + index as u64)
        }

        fn probe(&mut self, page: u64) -> TagProbe {
            let idx = self.index_of(page);
            let tag = self.tag_of(page);
            let num_sets = self.num_sets as u64;
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

        fn busy_until(&mut self, page: u64, now: Nanos) -> Option<Nanos> {
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
                    e.busy = false;
                }
                None
            }
        }

        fn fill(&mut self, page: u64) -> usize {
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

        fn mark_dirty(&mut self, page: u64) {
            let idx = self.index_of(page);
            let tag = self.tag_of(page);
            let e = self.entry_mut(idx);
            assert!(
                e.valid && e.tag == tag,
                "mark_dirty on a page that is not cached"
            );
            e.dirty = true;
        }

        fn set_busy(&mut self, page: u64, until: Nanos) {
            let idx = self.index_of(page);
            let e = self.entry_mut(idx);
            e.busy = true;
            e.busy_until = e.busy_until.max(until);
        }

        fn clear_busy(&mut self, page: u64) {
            let idx = self.index_of(page);
            self.entry_mut(idx).busy = false;
        }

        fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
            (0..self.num_sets).filter_map(|i| self.resident_page(i))
        }

        fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
            (0..self.num_sets).filter_map(|i| {
                let e = self.entry(i);
                (e.valid && e.dirty).then(|| e.tag * self.num_sets as u64 + i as u64)
            })
        }
    }

    #[test]
    fn banked_reference_partitions_every_set_into_exactly_one_slot() {
        for (num_sets, config) in [
            (10, ShardConfig::interleaved(4)),
            (10, ShardConfig::blocked(4)),
            (3, ShardConfig::interleaved(8)),
        ] {
            let banked = BankedReference::with_config(num_sets, config);
            let sizes: usize = banked.shards.iter().map(|s| s.entries.len()).sum();
            assert_eq!(sizes, num_sets, "{config:?}");
            let mut slots: Vec<(usize, usize)> = (0..num_sets).map(|i| banked.slot(i)).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), num_sets, "{config:?}: two sets share a slot");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// For any bank count, hash policy and stream of directory
        /// operations on aliased pages, the flat array gives the banked
        /// reference's answer to every call — probe classification and
        /// victims, fill slots, wait-queue answers in order — and ends with
        /// the same counters, entries, resident and dirty pages and bank
        /// labels.
        #[test]
        fn flat_directory_matches_the_banked_reference(
            num_sets in 1usize..24,
            count in 1u16..13,
            policy_pick in 0u8..2,
            ops in proptest::collection::vec((0u8..6, 0u64..96, 0u64..40), 1..200),
        ) {
            let config = if policy_pick == 0 {
                ShardConfig::interleaved(count)
            } else {
                ShardConfig::blocked(count)
            };
            let mut flat = ShardedTagArray::with_config(num_sets, config);
            let mut banked = BankedReference::with_config(num_sets, config);
            prop_assert_eq!(usize::from(flat.num_shards()), banked.shards.len());
            for &(kind, page, t) in &ops {
                // Pages 0..96 alias every set at least four times over, so
                // the stream constantly crosses bank boundaries.
                let now = Nanos::from_nanos(t * 100);
                match kind {
                    0 => prop_assert_eq!(flat.probe(page), banked.probe(page)),
                    1 => prop_assert_eq!(flat.fill(page), banked.fill(page)),
                    2 => {
                        // mark_dirty is only legal on resident pages.
                        let resident = banked.resident_page(banked.index_of(page)) == Some(page);
                        prop_assert_eq!(
                            resident,
                            flat.resident_page(flat.index_of(page)) == Some(page)
                        );
                        if resident {
                            flat.mark_dirty(page);
                            banked.mark_dirty(page);
                        }
                    }
                    3 => {
                        flat.set_busy(page, now);
                        banked.set_busy(page, now);
                    }
                    4 => prop_assert_eq!(
                        flat.busy_until(page, now),
                        banked.busy_until(page, now),
                        "wait answer diverged for page {} at {}", page, now
                    ),
                    _ => {
                        flat.clear_busy(page);
                        banked.clear_busy(page);
                    }
                }
                prop_assert_eq!(flat.shard_of_page(page), banked.shard_of_page(page));
            }
            prop_assert_eq!(flat.stats(), banked.stats());
            for i in 0..num_sets {
                prop_assert_eq!(flat.entry(i), banked.entry(i));
            }
            let resident_a: Vec<u64> = flat.resident_pages().collect();
            let resident_b: Vec<u64> = banked.resident_pages().collect();
            prop_assert_eq!(resident_a, resident_b);
            let dirty_a: Vec<u64> = flat.dirty_pages().collect();
            let dirty_b: Vec<u64> = banked.dirty_pages().collect();
            prop_assert_eq!(dirty_a, dirty_b);
        }
    }
}
