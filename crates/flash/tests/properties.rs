//! Property-based tests for the flash substrate: FTL mapping invariants and
//! device-level causality.

use hams_flash::{FlashGeometry, Ftl, SsdConfig, SsdDevice};
use hams_nvme::{NvmeCommand, PrpList};
use hams_sim::Nanos;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of writes and trims, every mapped LPN resolves to a
    /// unique PPN within the device, and trimmed LPNs resolve to nothing.
    #[test]
    fn ftl_mapping_stays_consistent(ops in proptest::collection::vec((0u64..96, any::<bool>()), 1..400)) {
        let mut ftl = Ftl::new(FlashGeometry::tiny(), 0.25);
        let mut model: HashMap<u64, bool> = HashMap::new();
        for (lpn, is_trim) in ops {
            if is_trim {
                ftl.trim(lpn);
                model.insert(lpn, false);
            } else if ftl.write(lpn).is_ok() {
                model.insert(lpn, true);
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (lpn, mapped) in &model {
            match ftl.lookup(*lpn) {
                Some(ppn) => {
                    prop_assert!(*mapped, "trimmed LPN {lpn} still mapped");
                    prop_assert!(ppn < ftl.geometry().total_pages());
                    prop_assert!(seen.insert(ppn), "PPN {ppn} mapped twice");
                }
                None => prop_assert!(!*mapped, "written LPN {lpn} lost its mapping"),
            }
        }
        // Write amplification is at least 1 whenever any host write happened.
        if ftl.stats().host_writes > 0 {
            prop_assert!(ftl.stats().write_amplification() >= 1.0);
        }
    }

    /// Device-level: write completion times never precede issue times.
    #[test]
    fn write_completions_never_precede_issue(lbas in proptest::collection::vec(0u64..64, 1..40)) {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let mut now = Nanos::ZERO;
        for lba in &lbas {
            let cmd = NvmeCommand::write(1, *lba, 4096, PrpList::single(0));
            let done = ssd.service(&cmd, now).unwrap();
            prop_assert!(done.finished_at >= now);
            now = done.finished_at;
        }
    }
}
