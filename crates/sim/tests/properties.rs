//! Property-based tests for the simulation primitives.

use std::collections::BTreeMap;

use hams_sim::{
    ComponentId, Histogram, LatencyBreakdown, LatencyVector, LruOutcome, LruStats, Nanos, PageLru,
    Resource,
};
use proptest::prelude::*;

/// The name pool the `LatencyVector` equivalence properties draw from: the
/// pre-interned hot-path names plus enough synthetic ones to push ids past
/// the vector's inline slots, so the spill path is exercised too.
const EQUIV_NAMES: [&str; 40] = [
    "app",
    "dma",
    "dram",
    "flash_array",
    "flash_channel",
    "flash_queue",
    "ftl",
    "hams",
    "hil",
    "io_stack",
    "mmap",
    "nvdimm",
    "os",
    "ssd",
    "prop_c00",
    "prop_c01",
    "prop_c02",
    "prop_c03",
    "prop_c04",
    "prop_c05",
    "prop_c06",
    "prop_c07",
    "prop_c08",
    "prop_c09",
    "prop_c10",
    "prop_c11",
    "prop_c12",
    "prop_c13",
    "prop_c14",
    "prop_c15",
    "prop_c16",
    "prop_c17",
    "prop_c18",
    "prop_c19",
    "prop_c20",
    "prop_c21",
    "prop_c22",
    "prop_c23",
    "prop_c24",
    "prop_c25",
];

/// The obvious LRU: `(page, dirty)` pairs ordered from least to most
/// recently used, scanned on every access.
struct RecencyList {
    capacity: usize,
    pages: Vec<(u64, bool)>,
    stats: LruStats,
}

impl RecencyList {
    fn access(&mut self, page: u64, is_write: bool) -> LruOutcome {
        if let Some(at) = self.pages.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = self.pages.remove(at);
            self.pages.push((page, dirty || is_write));
            self.stats.hits += 1;
            return LruOutcome::Hit;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return LruOutcome::Miss;
        }
        let mut outcome = LruOutcome::Miss;
        if self.pages.len() == self.capacity {
            if let (victim, true) = self.pages.remove(0) {
                self.stats.dirty_evictions += 1;
                outcome = LruOutcome::MissEvictDirty { victim };
            }
        }
        self.pages.push((page, is_write));
        outcome
    }
}

proptest! {
    /// `PageLru` matches the recency-list reference on every access (the
    /// dirty victim included), in its size and counters, and in the dirty
    /// pages a final drain returns.
    #[test]
    fn page_lru_matches_a_recency_list(
        capacity in 0usize..9,
        stream in proptest::collection::vec((0u64..16, any::<bool>()), 0..200),
    ) {
        let mut lru = PageLru::new(capacity);
        let mut reference = RecencyList { capacity, pages: Vec::new(), stats: LruStats::default() };
        for &(page, is_write) in &stream {
            prop_assert_eq!(lru.access(page, is_write), reference.access(page, is_write));
            prop_assert_eq!(lru.len(), reference.pages.len());
            prop_assert_eq!(lru.stats(), &reference.stats);
        }
        let mut dirty: Vec<u64> = reference.pages.iter().filter(|p| p.1).map(|p| p.0).collect();
        dirty.sort_unstable();
        prop_assert_eq!(lru.drain_dirty(), dirty);
        prop_assert!(lru.is_empty());
        prop_assert_eq!(lru.capacity(), capacity);
    }

    /// Saturating arithmetic never panics and never goes below zero.
    #[test]
    fn nanos_arithmetic_is_total(a in any::<u64>(), b in any::<u64>()) {
        let x = Nanos::from_nanos(a);
        let y = Nanos::from_nanos(b);
        let sum = x + y;
        let diff = x - y;
        prop_assert!(sum >= x.max(y) || sum == Nanos::MAX);
        prop_assert!(diff <= x);
        prop_assert_eq!(x.max(y).min(x.min(y)), x.min(y));
    }

    /// A resource never starts a grant before the request time, never before
    /// the previous grant ends, and queues back-to-back requests with no gap.
    #[test]
    fn resource_grants_never_overlap(durations in proptest::collection::vec(1u64..10_000, 1..60)) {
        let mut r = Resource::default();
        let mut prev_end = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        for d in &durations {
            let g = r.acquire(Nanos::ZERO, Nanos::from_nanos(*d));
            prop_assert!(g.start >= prev_end);
            prop_assert_eq!(g.end, g.start + Nanos::from_nanos(*d));
            prev_end = g.end;
            total += Nanos::from_nanos(*d);
        }
        prop_assert_eq!(r.busy_until(), prev_end);
        prop_assert_eq!(prev_end, total);
    }

    /// Histogram percentiles are monotone in the percentile and bounded by
    /// the recorded extremes (at bucket resolution).
    #[test]
    fn histogram_percentiles_are_monotone(samples in proptest::collection::vec(1u64..100_000, 1..300)) {
        let mut h = Histogram::new(Nanos::from_nanos(100), 1_024);
        for s in &samples {
            h.record(Nanos::from_nanos(*s));
        }
        let p50 = h.percentile(50.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Merging two histograms equals one histogram that recorded every
    /// sample, overflow maximum included, however the samples are split
    /// between the two.
    #[test]
    fn histogram_merge_equals_recording_every_sample(
        samples in proptest::collection::vec((1u64..150_000, any::<bool>()), 0..300),
    ) {
        // 1,024 buckets of 100 ns: samples from 102,400 ns on overflow.
        let new = || Histogram::new(Nanos::from_nanos(100), 1_024);
        let (mut all, mut left, mut right) = (new(), new(), new());
        for &(ns, to_left) in &samples {
            let t = Nanos::from_nanos(ns);
            all.record(t);
            if to_left {
                left.record(t);
            } else {
                right.record(t);
            }
        }
        left.merge(&right);
        prop_assert_eq!(left, all);
    }

    /// Breakdown component fractions always sum to 1 (or 0 for an empty one).
    #[test]
    fn breakdown_fractions_normalise(components in proptest::collection::vec((0usize..6, 1u64..1_000_000), 0..30)) {
        let names = ["nvdimm", "dma", "ssd", "hams", "os", "app"];
        let mut b = LatencyBreakdown::new();
        for (idx, v) in &components {
            b.add(names[*idx], Nanos::from_nanos(*v));
        }
        let sum: f64 = b.iter().map(|(name, _)| b.fraction(name)).sum();
        if components.is_empty() {
            prop_assert_eq!(sum, 0.0);
        } else {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// The slot-indexed `LatencyVector` is observationally equivalent to the
    /// seed implementation — a `BTreeMap<String, Nanos>` — on arbitrary add
    /// streams: same components, same totals, same name-ordered iteration.
    #[test]
    fn latency_vector_matches_the_btreemap_model_on_add_streams(
        stream in proptest::collection::vec((0usize..40, 0u64..1_000_000), 0..80),
    ) {
        let mut vector = LatencyVector::new();
        let mut model: BTreeMap<String, Nanos> = BTreeMap::new();
        for (idx, v) in &stream {
            let name = EQUIV_NAMES[*idx];
            let t = Nanos::from_nanos(*v);
            vector.add(name, t);
            *model.entry(name.to_owned()).or_insert(Nanos::ZERO) += t;
        }
        prop_assert_eq!(vector.is_empty(), model.is_empty());
        prop_assert_eq!(vector.total(), model.values().copied().sum::<Nanos>());
        for name in EQUIV_NAMES {
            prop_assert_eq!(
                vector.component(name),
                model.get(name).copied().unwrap_or(Nanos::ZERO),
                "component {} diverged", name
            );
        }
        // Iteration order and contents match the map exactly.
        let vector_entries: Vec<(String, Nanos)> =
            vector.iter().map(|(n, t)| (n.to_owned(), t)).collect();
        let model_entries: Vec<(String, Nanos)> =
            model.iter().map(|(n, t)| (n.clone(), *t)).collect();
        prop_assert_eq!(vector_entries, model_entries);
    }

    /// Merging two vectors built from split streams equals building one
    /// vector (and one map model) from the concatenation — add/merge
    /// commute exactly as they did for the `BTreeMap`.
    #[test]
    fn latency_vector_merge_matches_the_btreemap_model(
        left in proptest::collection::vec((0usize..40, 0u64..1_000_000), 0..50),
        right in proptest::collection::vec((0usize..40, 0u64..1_000_000), 0..50),
    ) {
        let build = |stream: &[(usize, u64)]| {
            let mut v = LatencyVector::new();
            for (idx, val) in stream {
                v.add(EQUIV_NAMES[*idx], Nanos::from_nanos(*val));
            }
            v
        };
        let mut merged = build(&left);
        merged.merge(&build(&right));

        let mut model: BTreeMap<String, Nanos> = BTreeMap::new();
        for (idx, val) in left.iter().chain(right.iter()) {
            *model.entry(EQUIV_NAMES[*idx].to_owned()).or_insert(Nanos::ZERO) +=
                Nanos::from_nanos(*val);
        }
        let merged_entries: Vec<(String, Nanos)> =
            merged.iter().map(|(n, t)| (n.to_owned(), t)).collect();
        let model_entries: Vec<(String, Nanos)> =
            model.iter().map(|(n, t)| (n.clone(), *t)).collect();
        prop_assert_eq!(merged_entries, model_entries);
        prop_assert_eq!(merged.total(), model.values().copied().sum::<Nanos>());

        // Merge order over the same component set never changes the result.
        let mut flipped = build(&right);
        flipped.merge(&build(&left));
        prop_assert_eq!(merged, flipped);
    }

    /// Ids and names are interchangeable: adding through pre-interned
    /// constants equals adding through the string edge layer.
    #[test]
    fn latency_vector_ids_and_names_agree(
        stream in proptest::collection::vec((0usize..14, 1u64..1_000_000), 0..40),
    ) {
        let ids = [
            ComponentId::APP, ComponentId::DMA, ComponentId::DRAM,
            ComponentId::FLASH_ARRAY, ComponentId::FLASH_CHANNEL,
            ComponentId::FLASH_QUEUE, ComponentId::FTL, ComponentId::HAMS,
            ComponentId::HIL, ComponentId::IO_STACK, ComponentId::MMAP,
            ComponentId::NVDIMM, ComponentId::OS, ComponentId::SSD,
        ];
        let mut by_id = LatencyVector::new();
        let mut by_name = LatencyVector::new();
        for (idx, v) in &stream {
            by_id.add(ids[*idx], Nanos::from_nanos(*v));
            by_name.add(EQUIV_NAMES[*idx], Nanos::from_nanos(*v));
        }
        prop_assert_eq!(by_id, by_name);
    }
}

#[test]
fn merging_an_empty_histogram_changes_nothing() {
    let new = || Histogram::new(Nanos::from_nanos(10), 4);
    let mut h = new();
    for ns in [5, 15, 70, 90] {
        h.record(Nanos::from_nanos(ns));
    }
    let recorded = h.clone();
    h.merge(&new());
    assert_eq!(h, recorded);
    let mut empty = new();
    empty.merge(&recorded);
    assert_eq!(empty, recorded);
}

#[test]
#[should_panic(expected = "cannot merge")]
fn merging_differently_binned_histograms_panics() {
    let mut h = Histogram::new(Nanos::from_nanos(10), 4);
    h.merge(&Histogram::new(Nanos::from_nanos(20), 4));
}
