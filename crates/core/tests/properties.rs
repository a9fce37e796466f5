//! Property-based tests for the HAMS controller's data structures and
//! end-to-end invariants.

use hams_core::{AttachMode, HamsConfig, HamsController, MosTagArray, PersistMode, TagProbe};
use hams_sim::Nanos;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// The tag array behaves exactly like a direct-mapped cache model: after
    /// any sequence of fills and probes, a probe hits if and only if the most
    /// recent fill of that set installed the probed page.
    #[test]
    fn tag_array_matches_a_reference_model(
        sets in 1usize..64,
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..300),
    ) {
        let mut tags = MosTagArray::new(sets);
        let mut model: HashMap<usize, u64> = HashMap::new();
        for (page, do_fill) in ops {
            let idx = tags.index_of(page);
            if do_fill {
                tags.fill(page);
                model.insert(idx, page);
            } else {
                let expected_hit = model.get(&idx) == Some(&page);
                let probe = tags.probe(page);
                prop_assert_eq!(matches!(probe, TagProbe::Hit), expected_hit);
            }
        }
        // Resident pages reported by the array match the model exactly.
        let mut resident: Vec<u64> = tags.resident_pages().collect();
        let mut expected: Vec<u64> = model.values().copied().collect();
        resident.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
    }

    /// Dirty bookkeeping: the set of dirty pages is always a subset of the
    /// resident pages, and a fill replaces a dirty page with a clean one.
    #[test]
    fn dirty_pages_are_a_subset_of_resident_pages(
        ops in proptest::collection::vec((0u64..256, any::<bool>()), 1..200),
    ) {
        let mut tags = MosTagArray::new(32);
        for (page, fill) in ops {
            if fill {
                tags.fill(page);
                prop_assert!(tags.dirty_pages().all(|dirty| dirty != page));
            } else if tags.resident_page(tags.index_of(page)) == Some(page) {
                tags.mark_dirty(page);
            }
            let resident: std::collections::HashSet<u64> = tags.resident_pages().collect();
            for dirty in tags.dirty_pages() {
                prop_assert!(resident.contains(&dirty));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// End-to-end controller invariant: for any access stream, simulated time
    /// is monotone, hit/miss counts are consistent, and the critical-path
    /// delay breakdown never exceeds the wall-clock span by more than the
    /// background work allowance.
    #[test]
    fn controller_time_and_counters_are_consistent(
        ops in proptest::collection::vec((0u64..1024, any::<bool>()), 1..150),
        tight in any::<bool>(),
    ) {
        let attach = if tight { AttachMode::Tight } else { AttachMode::Loose };
        let mut hams = HamsController::new(HamsConfig::tiny_for_tests(attach, PersistMode::Extend));
        let page_size = hams.config().mos_page_size;
        let mut now = Nanos::ZERO;
        let mut hits = 0u64;
        for (slot, is_write) in &ops {
            let addr = slot * page_size + (slot % 8) * 64;
            let result = hams.access(addr, *is_write, 64, now);
            prop_assert!(result.finished_at >= now);
            if result.hit {
                hits += 1;
            }
            now = result.finished_at;
        }
        let stats = hams.stats();
        prop_assert_eq!(stats.accesses, ops.len() as u64);
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        prop_assert!(stats.evictions <= stats.misses);
        prop_assert!(stats.hit_rate() <= 1.0);
    }

    /// Power failures injected at an arbitrary point of a mixed read/write
    /// stream never lose an acknowledged write, in persist or extend mode.
    #[test]
    fn no_acknowledged_write_is_lost(
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 5..100),
        persist in any::<bool>(),
    ) {
        let mode = if persist { PersistMode::Persist } else { PersistMode::Extend };
        let mut hams = HamsController::new(HamsConfig::tiny_for_tests(AttachMode::Loose, mode));
        let page_size = hams.config().mos_page_size;
        let mut now = Nanos::ZERO;
        let mut written = Vec::new();
        for (slot, is_write) in &ops {
            let addr = slot * page_size;
            let result = hams.access(addr, *is_write, 64, now);
            now = result.finished_at;
            if *is_write {
                written.push(hams.page_of(addr));
            }
        }
        hams.power_fail(now);
        let report = hams.recover(now);
        for page in written {
            prop_assert!(
                hams.is_page_recoverable(page, report.completed_at),
                "acknowledged write to page {page} was lost ({mode:?})"
            );
        }
    }
}
