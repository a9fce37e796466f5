//! Workload specifications and the memory-access trace generator.
//!
//! Table III of the paper characterises twelve workloads (four
//! mmap-microbenchmark kernels, five SQLite operations, three Rodinia
//! kernels) by instruction count, load/store ratios and dataset size. The
//! memory system only observes the resulting stream of
//! address/size/read-write/compute-gap tuples, so the reproduction generates
//! synthetic traces with those statistics: same dataset footprint, same
//! memory-instruction mix, same coarse- vs fine-grained access granularity,
//! and an access pattern matching the workload's nature (sequential scans,
//! uniform random, or hot-spot skewed).

use rand::Rng;
use serde::{Deserialize, Serialize};

use hams_sim::rng::derived_rng;

/// One memory access observed by the memory system, plus the number of
/// non-memory instructions the core executes before issuing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Byte address within the workload's dataset.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Whether the access is a store.
    pub is_write: bool,
    /// Non-memory instructions executed since the previous access.
    pub compute_instructions: u64,
}

/// Spatial pattern of a workload's accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Monotonically increasing addresses with a fixed stride.
    Sequential,
    /// Uniformly random addresses over the dataset.
    Random,
    /// Skewed accesses: `hot_access_fraction` of accesses fall in the first
    /// `hot_fraction` of the dataset (database-style locality).
    Hotspot {
        /// Fraction of the dataset that is hot.
        hot_fraction: f64,
        /// Fraction of accesses that touch the hot region.
        hot_access_fraction: f64,
    },
}

/// Which benchmark suite a workload belongs to (Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// mmap-benchmark microbenchmarks (page-granular, memory intensive).
    Microbench,
    /// SQLite/LevelDB benchmark operations (fine-grained, DBMS computation).
    Sqlite,
    /// Rodinia kernels (fine-grained, computation heavy).
    Rodinia,
}

/// The static characteristics of one workload (one column of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name as used in the paper's figures.
    pub name: &'static str,
    /// Benchmark suite.
    pub class: WorkloadClass,
    /// Total dynamic instruction count (Table III, "# of inst.").
    pub total_instructions: u64,
    /// Fraction of instructions that are loads.
    pub load_ratio: f64,
    /// Fraction of instructions that are stores.
    pub store_ratio: f64,
    /// Dataset footprint in bytes.
    pub dataset_bytes: u64,
    /// Size of one memory access issued to the MoS space.
    pub access_bytes: u64,
    /// Spatial pattern.
    pub pattern: AccessPattern,
}

impl WorkloadSpec {
    /// Checks the load/store ratio accounting and returns the spec with any
    /// floating-point epsilon overshoot normalized away.
    ///
    /// Every instruction is either a load, a store, or compute, so
    /// `load_ratio + store_ratio` must not exceed 1.0. A sum within a tiny
    /// epsilon above 1.0 (rounded table data) is rescaled so the ratios sum
    /// to exactly 1.0; anything larger is a construction error.
    ///
    /// The access size and, for [`AccessPattern::Hotspot`], both fractions
    /// are checked too: the trace generator divides the dataset by the
    /// access size and confines hot accesses to the first `hot_fraction` of
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when either ratio is non-finite or negative, when the sum
    /// exceeds 1.0 beyond floating-point noise, when `access_bytes` is zero,
    /// or when a hotspot fraction is non-finite or outside `[0, 1]`.
    #[must_use]
    pub fn validated(mut self) -> Self {
        assert!(
            self.access_bytes > 0,
            "workload {}: access_bytes must be non-zero",
            self.name
        );
        if let AccessPattern::Hotspot {
            hot_fraction,
            hot_access_fraction,
        } = self.pattern
        {
            for (what, f) in [
                ("hot_fraction", hot_fraction),
                ("hot_access_fraction", hot_access_fraction),
            ] {
                assert!(
                    f.is_finite() && (0.0..=1.0).contains(&f),
                    "workload {}: {what} {f} must be finite and within [0, 1]",
                    self.name
                );
            }
        }
        assert!(
            self.load_ratio.is_finite() && self.load_ratio >= 0.0,
            "workload {}: load_ratio {} must be finite and non-negative",
            self.name,
            self.load_ratio
        );
        assert!(
            self.store_ratio.is_finite() && self.store_ratio >= 0.0,
            "workload {}: store_ratio {} must be finite and non-negative",
            self.name,
            self.store_ratio
        );
        let sum = self.load_ratio + self.store_ratio;
        assert!(
            sum <= 1.0 + 1e-9,
            "workload {}: load_ratio {} + store_ratio {} = {sum} exceeds 1.0",
            self.name,
            self.load_ratio,
            self.store_ratio
        );
        if sum > 1.0 {
            self.load_ratio /= sum;
            self.store_ratio /= sum;
        }
        self
    }

    /// Fraction of instructions that reference memory.
    #[must_use]
    pub fn memory_ratio(&self) -> f64 {
        self.load_ratio + self.store_ratio
    }

    /// Fraction of memory accesses that are writes.
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        let m = self.memory_ratio();
        if m <= 0.0 {
            0.0
        } else {
            self.store_ratio / m
        }
    }

    /// Average non-memory instructions between consecutive memory accesses.
    #[must_use]
    pub fn compute_per_access(&self) -> u64 {
        let m = self.memory_ratio();
        if m <= 0.0 {
            return 0;
        }
        ((1.0 - m) / m).round() as u64
    }

    /// The four mmap-benchmark microbenchmarks (Table III).
    #[must_use]
    pub fn microbench() -> Vec<WorkloadSpec> {
        let gb = 1024 * 1024 * 1024;
        let spec = |name, inst: u64, load, store, pattern| {
            WorkloadSpec {
                name,
                class: WorkloadClass::Microbench,
                total_instructions: inst,
                load_ratio: load,
                store_ratio: store,
                dataset_bytes: 16 * gb,
                access_bytes: 4096,
                pattern,
            }
            .validated()
        };
        vec![
            spec(
                "seqRd",
                67_000_000_000,
                0.28,
                0.43,
                AccessPattern::Sequential,
            ),
            spec("rndRd", 69_000_000_000, 0.27, 0.37, AccessPattern::Random),
            spec(
                "seqWr",
                67_000_000_000,
                0.28,
                0.43,
                AccessPattern::Sequential,
            ),
            spec("rndWr", 69_000_000_000, 0.27, 0.37, AccessPattern::Random),
        ]
    }

    /// The five SQLite benchmark operations (Table III).
    #[must_use]
    pub fn sqlite() -> Vec<WorkloadSpec> {
        let gb = 1024 * 1024 * 1024;
        let hotspot = AccessPattern::Hotspot {
            hot_fraction: 0.2,
            hot_access_fraction: 0.85,
        };
        let spec = |name, inst: u64, load, store, pattern| {
            WorkloadSpec {
                name,
                class: WorkloadClass::Sqlite,
                total_instructions: inst,
                load_ratio: load,
                store_ratio: store,
                dataset_bytes: 11 * gb,
                access_bytes: 64,
                pattern,
            }
            .validated()
        };
        vec![
            spec(
                "seqSel",
                213_000_000_000,
                0.26,
                0.20,
                AccessPattern::Sequential,
            ),
            spec("rndSel", 213_000_000_000, 0.26, 0.20, hotspot),
            spec(
                "seqIns",
                40_000_000_000,
                0.25,
                0.21,
                AccessPattern::Sequential,
            ),
            spec("rndIns", 44_000_000_000, 0.25, 0.21, hotspot),
            spec("update", 244_000_000_000, 0.26, 0.20, hotspot),
        ]
    }

    /// The three Rodinia kernels (Table III).
    #[must_use]
    pub fn rodinia() -> Vec<WorkloadSpec> {
        let gb = 1024 * 1024 * 1024;
        vec![
            WorkloadSpec {
                name: "BFS",
                class: WorkloadClass::Rodinia,
                total_instructions: 192_000_000_000,
                load_ratio: 0.21,
                store_ratio: 0.04,
                dataset_bytes: 9 * gb,
                access_bytes: 64,
                pattern: AccessPattern::Random,
            }
            .validated(),
            WorkloadSpec {
                name: "KMN",
                class: WorkloadClass::Rodinia,
                total_instructions: 38_000_000_000,
                load_ratio: 0.27,
                store_ratio: 0.03,
                dataset_bytes: 5 * gb,
                access_bytes: 64,
                pattern: AccessPattern::Sequential,
            }
            .validated(),
            WorkloadSpec {
                name: "NN",
                class: WorkloadClass::Rodinia,
                total_instructions: 145_000_000_000,
                load_ratio: 0.16,
                store_ratio: 0.05,
                dataset_bytes: 7 * gb,
                access_bytes: 64,
                pattern: AccessPattern::Sequential,
            }
            .validated(),
        ]
    }

    /// Every workload of Table III, in the order the figures list them.
    #[must_use]
    pub fn table3() -> Vec<WorkloadSpec> {
        let mut all = Self::microbench();
        all.extend(Self::rodinia());
        all.extend(Self::sqlite());
        all
    }

    /// Looks a workload up by its paper name (case-sensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::table3().into_iter().find(|w| w.name == name)
    }

    /// Returns a copy of this spec with its dataset scaled to `bytes`
    /// (used by the Fig. 20b large-footprint stress test and by the
    /// scaled-down unit tests).
    #[must_use]
    pub fn with_dataset_bytes(mut self, bytes: u64) -> Self {
        self.dataset_bytes = bytes;
        self
    }
}

/// Deterministic generator of a workload's memory-access trace.
///
/// The generator produces `count` accesses whose statistics follow the spec;
/// `count` is typically far below the full workload's memory accesses
/// (`total_instructions` times [`WorkloadSpec::memory_ratio`]) so that
/// experiments finish in seconds while preserving ratios.
///
/// # Example
///
/// ```
/// use hams_workloads::{TraceGenerator, WorkloadSpec};
///
/// let spec = WorkloadSpec::by_name("rndWr").unwrap().with_dataset_bytes(1 << 20);
/// let trace: Vec<_> = TraceGenerator::new(spec, 42, 1000).collect();
/// assert_eq!(trace.len(), 1000);
/// let writes = trace.iter().filter(|a| a.is_write).count();
/// assert!(writes > 400 && writes < 800); // store-heavy microbenchmark
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: rand::rngs::StdRng,
    remaining: usize,
    next_sequential: u64,
    /// Access-sized slots in the dataset.
    slots: u64,
    /// The spec's pattern with its per-access constants resolved.
    pattern: SlotPattern,
    /// Probability that an access is a store.
    write_fraction: f64,
    /// Compute instructions preceding every access.
    compute_per_access: u64,
}

/// How [`TraceGenerator`] picks a slot, with the spec's constants resolved
/// once so an access pays only for its random draws.
#[derive(Debug, Clone, Copy)]
enum SlotPattern {
    Sequential,
    Random,
    Hotspot {
        /// Slots in the hot region at the start of the dataset.
        hot_slots: u64,
        /// Probability that an access falls in the hot region.
        hot_access_fraction: f64,
    },
}

impl TraceGenerator {
    /// Creates a generator for `count` accesses of `spec`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails [`WorkloadSpec::validated`].
    #[must_use]
    pub fn new(spec: WorkloadSpec, seed: u64, count: usize) -> Self {
        let spec = spec.validated();
        let span = spec.dataset_bytes.max(spec.access_bytes);
        let slots = (span / spec.access_bytes).max(1);
        let pattern = match spec.pattern {
            AccessPattern::Sequential => SlotPattern::Sequential,
            AccessPattern::Random => SlotPattern::Random,
            AccessPattern::Hotspot {
                hot_fraction,
                hot_access_fraction,
            } => SlotPattern::Hotspot {
                hot_slots: ((slots as f64 * hot_fraction).ceil() as u64).max(1),
                hot_access_fraction: hot_access_fraction.clamp(0.0, 1.0),
            },
        };
        TraceGenerator {
            spec,
            rng: derived_rng(seed, spec.name),
            remaining: count,
            next_sequential: 0,
            slots,
            pattern,
            write_fraction: spec.write_fraction().clamp(0.0, 1.0),
            compute_per_access: spec.compute_per_access(),
        }
    }

    /// The spec this generator follows.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_slot(&mut self) -> u64 {
        match self.pattern {
            SlotPattern::Sequential => {
                let slot = self.next_sequential % self.slots;
                self.next_sequential += 1;
                slot
            }
            SlotPattern::Random => self.rng.gen_range(0..self.slots),
            SlotPattern::Hotspot {
                hot_slots,
                hot_access_fraction,
            } => {
                if self.rng.gen_bool(hot_access_fraction) {
                    self.rng.gen_range(0..hot_slots)
                } else {
                    self.rng.gen_range(0..self.slots)
                }
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.next_slot() * self.spec.access_bytes;
        let is_write = self.rng.gen_bool(self.write_fraction);
        Some(Access {
            addr,
            size: self.spec.access_bytes,
            is_write,
            compute_instructions: self.compute_per_access,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceGenerator {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-access formulas [`TraceGenerator`] replaced, which re-derived
    /// every spec constant on every access. Kept as its reference.
    struct ReferenceTrace {
        spec: WorkloadSpec,
        rng: rand::rngs::StdRng,
        remaining: usize,
        next_sequential: u64,
    }

    impl ReferenceTrace {
        fn new(spec: WorkloadSpec, seed: u64, count: usize) -> Self {
            let spec = spec.validated();
            ReferenceTrace {
                spec,
                rng: derived_rng(seed, spec.name),
                remaining: count,
                next_sequential: 0,
            }
        }

        fn next_addr(&mut self) -> u64 {
            let span = self.spec.dataset_bytes.max(self.spec.access_bytes);
            let slots = (span / self.spec.access_bytes).max(1);
            match self.spec.pattern {
                AccessPattern::Sequential => {
                    let slot = self.next_sequential % slots;
                    self.next_sequential += 1;
                    slot * self.spec.access_bytes
                }
                AccessPattern::Random => self.rng.gen_range(0..slots) * self.spec.access_bytes,
                AccessPattern::Hotspot {
                    hot_fraction,
                    hot_access_fraction,
                } => {
                    let hot_slots = ((slots as f64 * hot_fraction).ceil() as u64).max(1);
                    if self.rng.gen_bool(hot_access_fraction.clamp(0.0, 1.0)) {
                        self.rng.gen_range(0..hot_slots) * self.spec.access_bytes
                    } else {
                        self.rng.gen_range(0..slots) * self.spec.access_bytes
                    }
                }
            }
        }
    }

    impl Iterator for ReferenceTrace {
        type Item = Access;

        fn next(&mut self) -> Option<Access> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let addr = self.next_addr();
            let is_write = self
                .rng
                .gen_bool(self.spec.write_fraction().clamp(0.0, 1.0));
            Some(Access {
                addr,
                size: self.spec.access_bytes,
                is_write,
                compute_instructions: self.spec.compute_per_access(),
            })
        }
    }

    #[test]
    fn generator_equals_the_per_access_reference_on_every_table3_spec() {
        // 64 KiB holds fewer slots than the 4 KiB microbenchmarks draw, so
        // the sequential scans wrap; 1 GiB keeps every slot count large.
        for spec in WorkloadSpec::table3() {
            for dataset in [64 << 10, 1 << 30] {
                let spec = spec.with_dataset_bytes(dataset);
                for seed in [42, 20211] {
                    let fast: Vec<Access> = TraceGenerator::new(spec, seed, 3000).collect();
                    let reference: Vec<Access> = ReferenceTrace::new(spec, seed, 3000).collect();
                    assert_eq!(
                        fast, reference,
                        "{} over {dataset} B at seed {seed}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn table3_lists_all_twelve_workloads() {
        let all = WorkloadSpec::table3();
        assert_eq!(all.len(), 12);
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        for expected in [
            "seqRd", "rndRd", "seqWr", "rndWr", "BFS", "KMN", "NN", "seqSel", "rndSel", "seqIns",
            "rndIns", "update",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(WorkloadSpec::by_name("update").is_some());
        assert!(WorkloadSpec::by_name("doom").is_none());
    }

    #[test]
    fn ratios_match_table3() {
        let bfs = WorkloadSpec::by_name("BFS").unwrap();
        assert!((bfs.load_ratio - 0.21).abs() < 1e-9);
        assert!((bfs.store_ratio - 0.04).abs() < 1e-9);
        assert_eq!(bfs.dataset_bytes, 9 * 1024 * 1024 * 1024);
        assert!(bfs.write_fraction() < 0.2);

        let seq_wr = WorkloadSpec::by_name("seqWr").unwrap();
        assert!(seq_wr.write_fraction() > 0.5, "seqWr is store heavy");
    }

    #[test]
    fn compute_per_access_reflects_memory_intensity() {
        let micro = WorkloadSpec::by_name("seqRd").unwrap();
        let rodinia = WorkloadSpec::by_name("NN").unwrap();
        assert!(
            rodinia.compute_per_access() > micro.compute_per_access(),
            "Rodinia is computation heavy"
        );
    }

    #[test]
    fn sequential_trace_is_monotonic_with_wraparound() {
        let spec = WorkloadSpec::by_name("seqRd")
            .unwrap()
            .with_dataset_bytes(64 * 4096);
        let trace: Vec<Access> = TraceGenerator::new(spec, 1, 64).collect();
        for pair in trace.windows(2) {
            assert!(pair[1].addr > pair[0].addr || pair[1].addr == 0);
        }
    }

    #[test]
    fn traces_are_reproducible_per_seed() {
        let spec = WorkloadSpec::by_name("rndRd")
            .unwrap()
            .with_dataset_bytes(1 << 22);
        let a: Vec<Access> = TraceGenerator::new(spec, 7, 500).collect();
        let b: Vec<Access> = TraceGenerator::new(spec, 7, 500).collect();
        let c: Vec<Access> = TraceGenerator::new(spec, 8, 500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_within_the_dataset() {
        for spec in WorkloadSpec::table3() {
            let spec = spec.with_dataset_bytes(1 << 24);
            for access in TraceGenerator::new(spec, 3, 2000) {
                assert!(access.addr + access.size <= spec.dataset_bytes.max(spec.access_bytes));
            }
        }
    }

    #[test]
    fn hotspot_pattern_concentrates_accesses() {
        let spec = WorkloadSpec::by_name("rndSel")
            .unwrap()
            .with_dataset_bytes(1 << 24);
        let trace: Vec<Access> = TraceGenerator::new(spec, 11, 5000).collect();
        let hot_boundary = (spec.dataset_bytes as f64 * 0.2) as u64;
        let hot = trace.iter().filter(|a| a.addr < hot_boundary).count();
        assert!(
            hot as f64 > 0.7 * trace.len() as f64,
            "only {hot} of {} accesses were hot",
            trace.len()
        );
    }

    #[test]
    fn generator_reports_exact_length() {
        let spec = WorkloadSpec::by_name("KMN")
            .unwrap()
            .with_dataset_bytes(1 << 20);
        let g = TraceGenerator::new(spec, 5, 123);
        assert_eq!(g.len(), 123);
        assert_eq!(g.count(), 123);
    }

    #[test]
    #[should_panic(expected = "exceeds 1.0")]
    fn validated_rejects_ratio_sum_above_one() {
        let mut spec = WorkloadSpec::by_name("rndRd").unwrap();
        spec.load_ratio = 0.8;
        spec.store_ratio = 0.4;
        let _ = spec.validated();
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn validated_rejects_negative_ratio() {
        let mut spec = WorkloadSpec::by_name("rndRd").unwrap();
        spec.store_ratio = -0.1;
        let _ = spec.validated();
    }

    #[test]
    #[should_panic(expected = "access_bytes must be non-zero")]
    fn validated_rejects_zero_access_size() {
        let mut spec = WorkloadSpec::by_name("rndRd").unwrap();
        spec.access_bytes = 0;
        let _ = spec.validated();
    }

    #[test]
    #[should_panic(expected = "hot_fraction 1.5 must be finite and within [0, 1]")]
    fn validated_rejects_a_hot_region_larger_than_the_dataset() {
        // Before the check, 1.5 put ~30% of the accesses past the dataset.
        let mut spec = WorkloadSpec::by_name("rndSel")
            .unwrap()
            .with_dataset_bytes(1 << 20);
        spec.pattern = AccessPattern::Hotspot {
            hot_fraction: 1.5,
            hot_access_fraction: 0.85,
        };
        let _ = TraceGenerator::new(spec, 42, 10_000);
    }

    #[test]
    fn validated_rejects_non_finite_and_negative_hotspot_fractions() {
        for (hot_fraction, hot_access_fraction) in [
            (f64::NAN, 0.85),
            (0.2, f64::INFINITY),
            (-0.1, 0.85),
            (0.2, 1.01),
        ] {
            let mut spec = WorkloadSpec::by_name("update").unwrap();
            spec.pattern = AccessPattern::Hotspot {
                hot_fraction,
                hot_access_fraction,
            };
            let rejected = std::panic::catch_unwind(|| spec.validated()).is_err();
            assert!(rejected, "({hot_fraction}, {hot_access_fraction}) accepted");
        }
    }

    #[test]
    fn validated_normalizes_epsilon_overshoot() {
        let mut spec = WorkloadSpec::by_name("rndRd").unwrap();
        // Rounded table data can overshoot by floating-point noise; the sum
        // must come back as exactly 1.0 with the load/store mix preserved.
        spec.load_ratio = 0.6 + 4e-10;
        spec.store_ratio = 0.4 + 4e-10;
        let fixed = spec.validated();
        assert!(fixed.memory_ratio() <= 1.0);
        assert!((fixed.memory_ratio() - 1.0).abs() < 1e-9);
        assert!((fixed.write_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn write_fraction_of_zero_memory_ratio_is_zero() {
        let mut spec = WorkloadSpec::by_name("KMN").unwrap();
        spec.load_ratio = 0.0;
        spec.store_ratio = 0.0;
        assert_eq!(spec.write_fraction(), 0.0);
        assert_eq!(spec.compute_per_access(), 0);
    }
}
