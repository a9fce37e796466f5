//! Property-based tests for the PRP machinery and the MSI coalescing model.

use std::hash::{DefaultHasher, Hash, Hasher};

use hams_nvme::{MsiCoalescer, MsiCoalescing, PrpList};
use hams_sim::Nanos;
use proptest::prelude::*;

fn hash_of(list: &PrpList) -> u64 {
    let mut h = DefaultHasher::new();
    list.hash(&mut h);
    h.finish()
}

proptest! {
    /// A PRP list is the enumeration of the pages a transfer touches, each
    /// aligned down to the page size, kept here as the reference:
    /// `(first_page..=last_page).map(|p| p * page_size)`. Page sizes are
    /// drawn both as powers of two and not. Retargeting keeps every entry's
    /// offset from the first, and two lists compare (and hash) equal exactly
    /// when their entries do.
    #[test]
    fn prp_lists_equal_the_page_enumeration(
        base in 0u64..(1 << 40),
        len in 1u64..(1 << 20),
        shift in 9u32..21,
        odd in 500u64..70_000,
        pow2 in any::<bool>(),
        new_base in 0u64..(1 << 40),
    ) {
        let page_size = if pow2 { 1u64 << shift } else { odd };
        let (first_page, last_page) = (base / page_size, (base + len - 1) / page_size);
        let reference: Vec<u64> = (first_page..=last_page).map(|p| p * page_size).collect();
        let list = PrpList::for_transfer(base, len, page_size);
        prop_assert_eq!(list.len(), reference.len());
        prop_assert_eq!(list.first().map(|e| e.address()), Some(reference[0]));
        let entries: Vec<u64> = list.iter().map(|e| e.address()).collect();
        prop_assert_eq!(&entries, &reference);

        let mut moved = list;
        moved.retarget(new_base);
        let shifted: Vec<u64> = reference
            .iter()
            .map(|a| new_base.wrapping_add(a - reference[0]))
            .collect();
        prop_assert_eq!(moved.iter().map(|e| e.address()).collect::<Vec<_>>(), shifted);

        // The same pages listed from the aligned start always match; a
        // single pointer matches a one-entry list; a neighbouring page size
        // and the retargeted list match only if their entries do.
        let pages = reference.len() as u64;
        let aligned = PrpList::for_transfer(reference[0], pages * page_size, page_size);
        let others = [
            aligned,
            PrpList::single(reference[0]),
            PrpList::for_transfer(base, len, page_size + 1),
            moved,
        ];
        prop_assert!(list == aligned);
        for other in others {
            let same_entries = list.iter().eq(other.iter());
            prop_assert_eq!(list == other, same_entries);
            if same_entries {
                prop_assert_eq!(hash_of(&list), hash_of(&other));
            }
        }
    }

    /// A PRP list built for any transfer covers every byte of the transfer:
    /// the number of entries equals the number of pages the range straddles.
    #[test]
    fn prp_lists_cover_the_transfer(base in 0u64..1_000_000, len in 1u64..1_000_000) {
        let page = 4096u64;
        let list = PrpList::for_transfer(base, len, page);
        let first = base / page;
        let last = (base + len - 1) / page;
        prop_assert_eq!(list.len() as u64, last - first + 1);
        prop_assert_eq!(list.first().unwrap().address(), first * page);
    }

    /// Retargeting preserves pairwise offsets between PRP entries.
    #[test]
    fn retarget_preserves_offsets(base in 0u64..1_000_000, len in 1u64..100_000, new_base in 0u64..1_000_000) {
        let mut list = PrpList::for_transfer(base, len, 4096);
        let offsets: Vec<u64> = list.iter().map(|e| e.address().wrapping_sub(base / 4096 * 4096)).collect();
        list.retarget(new_base);
        let new_offsets: Vec<u64> = list
            .iter()
            .map(|e| e.address().wrapping_sub(new_base))
            .collect();
        prop_assert_eq!(offsets, new_offsets);
    }

    /// MSI coalescing invariants for arbitrary completion bursts and
    /// policies: every interrupt fires at or after its completion, within
    /// the coalescing window (`threshold` reached or `timeout` expired — so
    /// never more than `timeout` after the completion), delivery times are
    /// monotone, and no more interrupts are posted than completions.
    #[test]
    fn msi_fires_within_threshold_plus_timeout(
        gaps in proptest::collection::vec(0u64..5_000, 1..48),
        threshold in 1u32..10,
        timeout_ns in 0u64..20_000,
    ) {
        let timeout = Nanos::from_nanos(timeout_ns);
        let mut coalescer = MsiCoalescer::new(MsiCoalescing::batched(threshold, timeout));
        let mut completions = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for g in gaps {
            t += g;
            completions.push(Nanos::from_nanos(t));
        }
        let mut delivered = Vec::new();
        coalescer.deliver_into(&completions, &mut delivered);
        prop_assert_eq!(delivered.len(), completions.len());
        for (c, d) in completions.iter().zip(&delivered) {
            prop_assert!(*d >= *c, "interrupt delivered before its completion");
            prop_assert!(
                *d - *c <= timeout,
                "completion waited {} which exceeds the {} timer",
                *d - *c,
                timeout
            );
        }
        for pair in delivered.windows(2) {
            prop_assert!(pair[0] <= pair[1], "delivery order inverted");
        }
        let stats = coalescer.stats();
        prop_assert_eq!(stats.completions, completions.len() as u64);
        prop_assert!(stats.interrupts >= 1);
        prop_assert!(stats.interrupts <= stats.completions);
        // Each interrupt covers at most `threshold` completions.
        let min_interrupts =
            (completions.len() as u64).div_ceil(u64::from(threshold).min(completions.len() as u64));
        prop_assert!(stats.interrupts >= min_interrupts);
    }
}
