//! Property-based tests for the platform layer: runner metric sanity and
//! cross-platform orderings that must hold for any seed.

use hams_platforms::{run_workload, PlatformKind, ScaleProfile};
use hams_workloads::WorkloadSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed, the runner produces finite, positive metrics and the
    /// oracle upper-bounds HAMS, which upper-bounds (or equals) mmap.
    #[test]
    fn runner_metrics_are_sane_for_any_seed(seed in 0u64..1_000) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 1_000,
            seed,
        };
        let spec = WorkloadSpec::by_name("rndWr").unwrap();
        let mut mmap = PlatformKind::Mmap.build(&scale);
        let mut te = PlatformKind::HamsTE.build(&scale);
        let mut oracle = PlatformKind::Oracle.build(&scale);
        let m = run_workload(mmap.as_mut(), spec, &scale);
        let h = run_workload(te.as_mut(), spec, &scale);
        let o = run_workload(oracle.as_mut(), spec, &scale);
        for r in [&m, &h, &o] {
            prop_assert!(r.pages_per_sec.is_finite() && r.pages_per_sec > 0.0);
            prop_assert!(r.ipc.is_finite() && r.ipc > 0.0);
            prop_assert!(r.energy.total_joules().is_finite());
        }
        prop_assert!(o.pages_per_sec >= h.pages_per_sec * 0.99);
        prop_assert!(h.pages_per_sec >= m.pages_per_sec * 0.9,
            "HAMS ({:.0}) fell far below mmap ({:.0}) for seed {seed}", h.pages_per_sec, m.pages_per_sec);
    }
}
