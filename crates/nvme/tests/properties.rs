//! Property-based tests for the PRP machinery and the MSI coalescing model.

use hams_nvme::{MsiCoalescer, MsiCoalescing, PrpList};
use hams_sim::Nanos;
use proptest::prelude::*;

proptest! {
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
