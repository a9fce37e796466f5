//! Measurement primitives used to produce every figure of the paper.
//!
//! * [`Counter`] — a named monotonically increasing event count,
//! * [`RunningStats`] — online mean/min/max over a stream of samples,
//! * [`Histogram`] — fixed-width-bucket latency histogram with percentiles,
//! * [`LatencyVector`] — named time components (e.g. `"mmap"`, `"io_stack"`,
//!   `"ssd"`, `"cpu"`) that sum to a total, used for the stacked-bar figures
//!   (Fig. 7a, 17, 18, 19). Components are slot-indexed by an interned
//!   [`ComponentId`], so the serving hot path accumulates into a fixed
//!   array with no heap traffic; [`LatencyBreakdown`] is the historical
//!   name, kept as an alias.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intern::ComponentId;
use crate::time::Nanos;

/// A named monotonically increasing counter.
///
/// # Example
///
/// ```
/// use hams_sim::Counter;
///
/// let mut hits = Counter::new("nvdimm_cache_hits");
/// hits.add(3);
/// hits.incr();
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Adds one to the counter.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

/// Online mean / min / max / count over a stream of `f64` samples.
///
/// # Example
///
/// ```
/// use hams_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl RunningStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of samples observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 if no samples have been observed.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance, or 0 if fewer than two samples have been observed.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0)
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample observed.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample observed.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another statistics accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A fixed-bucket-width histogram of nanosecond latencies with percentile
/// queries.
///
/// Samples above the configured range accumulate in an overflow bucket that
/// still participates in percentile queries: the histogram tracks the true
/// maximum of the overflowed samples, and any percentile that lands in the
/// overflow bucket resolves to that maximum rather than to the range edge.
/// (The seed implementation clamped overflow percentiles to the range
/// maximum, which silently flattened p999 exactly when a platform
/// saturates — the regime where the tail matters most.)
///
/// # Example
///
/// ```
/// use hams_sim::{Histogram, Nanos};
///
/// let mut h = Histogram::new(Nanos::from_nanos(100), 100);
/// for i in 1..=100u64 {
///     h.record(Nanos::from_nanos(i * 100));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= Nanos::from_nanos(4900) && p50 <= Nanos::from_nanos(5200));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: Nanos,
    buckets: Vec<u64>,
    overflow: u64,
    /// Largest sample that landed in the overflow bucket (zero when none
    /// has). Overflow-landing percentiles resolve to this value.
    overflow_max: Nanos,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets each `bucket_width` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    #[must_use]
    pub fn new(bucket_width: Nanos, buckets: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be non-zero");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            overflow_max: Nanos::ZERO,
            count: 0,
            sum: 0,
        }
    }

    /// Records a latency sample.
    pub fn record(&mut self, t: Nanos) {
        let idx = (t.as_nanos() / self.bucket_width.as_nanos()) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
            self.overflow_max = self.overflow_max.max(t);
        }
        self.count += 1;
        self.sum += u128::from(t.as_nanos());
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples that fell past the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The largest sample that fell past the last bucket, or `None` when no
    /// sample has overflowed. This is the exact value overflow-landing
    /// percentiles resolve to.
    #[must_use]
    pub fn overflow_max(&self) -> Option<Nanos> {
        (self.overflow > 0).then_some(self.overflow_max)
    }

    /// Mean of all recorded samples, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos::from_nanos((self.sum / u128::from(self.count)) as u64)
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100), approximated at bucket-boundary
    /// resolution. Returns `None` when no samples have been recorded.
    /// Percentiles that land in the overflow bucket resolve to the true
    /// maximum of the overflowed samples ([`Histogram::overflow_max`]), not
    /// to the range edge.
    ///
    /// One query is a single allocation-free bucket walk; to resolve
    /// several percentiles of the same histogram, [`Histogram::percentiles`]
    /// shares one cumulative pass across all of them instead of rescanning
    /// from bucket zero per query.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        if self.count == 0 {
            return None;
        }
        let target = Self::rank_of(p, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_width * (i as u64 + 1));
            }
        }
        // The target rank exceeds the bucketed sample count, so at least one
        // sample overflowed and `overflow_max` is the true observed value.
        Some(self.overflow_max)
    }

    /// Resolves every percentile in `ps` (each 0 < p ≤ 100) in **one**
    /// cumulative pass over the buckets, instead of rescanning from bucket
    /// zero per query. Results are index-aligned with `ps`; each entry is
    /// `None` when the histogram is empty, and identical to what
    /// [`Histogram::percentile`] returns for that `p`.
    #[must_use]
    pub fn percentiles(&self, ps: &[f64]) -> Vec<Option<Nanos>> {
        if self.count == 0 {
            return vec![None; ps.len()];
        }
        // Rank each percentile, then resolve the ranks in ascending order
        // while a single cumulative count walks the buckets.
        let mut targets: Vec<(usize, u64)> = ps
            .iter()
            .map(|p| Self::rank_of(*p, self.count))
            .enumerate()
            .collect();
        targets.sort_by_key(|&(_, target)| target);

        // Pre-fill with the overflow resolution: targets the bucket walk
        // never reaches sit in the overflow bucket, whose percentile value
        // is the true maximum of the overflowed samples.
        let mut results = vec![Some(self.overflow_max); ps.len()];
        let mut next = targets.iter().peekable();
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            while let Some(&&(slot, target)) = next.peek() {
                if seen < target {
                    break;
                }
                results[slot] = Some(self.bucket_width * (i as u64 + 1));
                next.next();
            }
            if next.peek().is_none() {
                break;
            }
        }
        // Unresolved targets sit in the overflow bucket and keep the
        // pre-filled overflow maximum.
        results
    }

    /// The 1-based sample rank percentile `p` resolves to among `count`
    /// samples — the shared definition behind [`Histogram::percentile`] and
    /// [`Histogram::percentiles`].
    fn rank_of(p: f64, count: u64) -> u64 {
        let exact = p.clamp(0.0, 100.0) / 100.0 * count as f64;
        // `99.9 / 100.0` is 0.9990000000000001, so a product that should be
        // an integer can land just above it; snap it back before the
        // ceiling, or p99.9 of 1000 samples would resolve to rank 1000.
        let nearest = exact.round();
        let rank = if (exact - nearest).abs() <= nearest * 1e-9 {
            nearest
        } else {
            exact.ceil()
        };
        rank.max(1.0) as u64
    }

    /// The standard tail summary — count, mean, p50/p99/p99.9 and max — in
    /// **one** cumulative pass over the buckets. Returns `None` when the
    /// histogram is empty.
    ///
    /// Overflow-aware like [`Histogram::percentiles`]: percentiles (and the
    /// maximum) that land past the last bucket resolve to the true maximum
    /// of the overflowed samples, not to the bucket-range edge.
    #[must_use]
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.count == 0 {
            return None;
        }
        let targets = [
            Self::rank_of(50.0, self.count),
            Self::rank_of(99.0, self.count),
            Self::rank_of(99.9, self.count),
        ];
        // One walk resolves all three ranks and finds the highest non-empty
        // bucket; overflowed values resolve to the exact overflow maximum.
        let mut resolved = [self.overflow_max; 3];
        let mut max = self.overflow_max;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 {
                let edge = self.bucket_width * (i as u64 + 1);
                if self.overflow == 0 {
                    max = edge;
                }
                for (slot, &target) in targets.iter().enumerate() {
                    if seen >= target && seen - c < target {
                        resolved[slot] = edge;
                    }
                }
            }
        }
        Some(HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: resolved[0],
            p99: resolved[1],
            p999: resolved[2],
            max,
        })
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
        self.overflow_max = Nanos::ZERO;
        self.count = 0;
        self.sum = 0;
    }
}

/// The one-pass tail summary of a [`Histogram`]; see [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples recorded.
    pub count: u64,
    /// Mean of all samples.
    pub mean: Nanos,
    /// Median, at bucket-boundary resolution.
    pub p50: Nanos,
    /// 99th percentile, at bucket-boundary resolution.
    pub p99: Nanos,
    /// 99.9th percentile, at bucket-boundary resolution.
    pub p999: Nanos,
    /// Largest sample: the highest non-empty bucket edge, or the exact
    /// overflow maximum when samples fell past the last bucket.
    pub max: Nanos,
}

/// Number of fixed accumulator slots in a [`LatencyVector`]. Ids below this
/// index add in O(1) with zero heap traffic; the workspace's pre-interned
/// names all fit with room to spare, and rarer (test-only) names spill to a
/// sorted side list.
pub const INLINE_COMPONENTS: usize = 32;

/// Named time components that sum to a total — the stacked bars of the
/// paper's breakdown figures.
///
/// The accumulator is a fixed `[Nanos; INLINE_COMPONENTS]` array indexed by
/// interned [`ComponentId`]s plus a presence bitmask, so `add` and `merge`
/// on the serving hot path touch no heap at all (the seed implementation
/// keyed a `BTreeMap` by `String`, paying an allocation per `add` and a
/// tree walk per merge). Ids past the inline slots — only reachable by
/// interning many distinct names — spill to a small sorted list.
///
/// The string-facing API is a thin edge layer: [`LatencyVector::add`]
/// accepts either a name or a pre-interned id, and iteration yields
/// components in **name order**, exactly as the old `BTreeMap` did, so
/// printed output and the golden snapshots (which render through
/// [`LatencyVector::component`]) are unchanged.
///
/// Serde caveat: the derives keep the workspace's swap-the-shim contract
/// compiling, but the derived wire format is the slot representation, and
/// ids past the pre-interned set depend on process-local intern order. A
/// breakdown that must cross process boundaries should be emitted through
/// [`LatencyVector::iter`] (name → time, as the golden renderer does), not
/// through serde.
///
/// # Example
///
/// ```
/// use hams_sim::{ComponentId, LatencyVector, Nanos};
///
/// let mut b = LatencyVector::new();
/// b.add("os", Nanos::from_micros(15));
/// b.add(ComponentId::SSD, Nanos::from_micros(3));
/// b.add("app", Nanos::from_micros(12));
/// assert_eq!(b.total(), Nanos::from_micros(30));
/// assert!((b.fraction("os") - 0.5).abs() < 1e-9);
/// let names: Vec<&str> = b.names().collect();
/// assert_eq!(names, ["app", "os", "ssd"]); // name order, like the old map
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyVector {
    /// Fixed accumulator slots, indexed by `ComponentId::index()`.
    inline: [Nanos; INLINE_COMPONENTS],
    /// Bit `i` set ⇔ inline slot `i` has been explicitly added to (a
    /// component added with zero time is *present*, matching map semantics).
    present: u32,
    /// Components with ids past the inline slots, sorted by id. Empty (and
    /// unallocated) in every workspace code path.
    spill: Vec<(ComponentId, Nanos)>,
}

/// The historical name of [`LatencyVector`], kept so existing call sites and
/// docs keep reading naturally.
pub type LatencyBreakdown = LatencyVector;

impl LatencyVector {
    /// Creates an empty breakdown. Allocation-free.
    #[must_use]
    pub fn new() -> Self {
        LatencyVector {
            inline: [Nanos::ZERO; INLINE_COMPONENTS],
            present: 0,
            spill: Vec::new(),
        }
    }

    /// Adds `t` to a component, creating it if necessary. Accepts a
    /// pre-interned [`ComponentId`] (the hot-path form: one array index, no
    /// allocation) or a `&str` name (the edge layer, which interns).
    pub fn add(&mut self, component: impl Into<ComponentId>, t: Nanos) {
        let id = component.into();
        let i = id.index();
        if i < INLINE_COMPONENTS {
            self.inline[i] += t;
            self.present |= 1 << i;
        } else {
            match self.spill.binary_search_by_key(&id, |e| e.0) {
                Ok(pos) => self.spill[pos].1 += t,
                Err(pos) => self.spill.insert(pos, (id, t)),
            }
        }
    }

    /// The accumulated time of component `name`, or zero if absent. Never
    /// interns: asking for an unknown name is free.
    #[must_use]
    pub fn component(&self, name: &str) -> Nanos {
        ComponentId::lookup(name).map_or(Nanos::ZERO, |id| self.value(id))
    }

    /// The accumulated time of an interned component, or zero if absent.
    #[must_use]
    pub fn value(&self, id: ComponentId) -> Nanos {
        let i = id.index();
        if i < INLINE_COMPONENTS {
            self.inline[i]
        } else {
            self.spill
                .binary_search_by_key(&id, |e| e.0)
                .map_or(Nanos::ZERO, |pos| self.spill[pos].1)
        }
    }

    /// The sum of all components.
    #[must_use]
    pub fn total(&self) -> Nanos {
        let mut total = Nanos::ZERO;
        for slot in &self.inline {
            total += *slot;
        }
        for (_, t) in &self.spill {
            total += *t;
        }
        total
    }

    /// Component `name` as a fraction of the total, in `[0, 1]`.
    /// Returns 0 when the total is zero.
    #[must_use]
    pub fn fraction(&self, name: &str) -> f64 {
        let total = self.total();
        if total.is_zero() {
            return 0.0;
        }
        self.component(name).as_nanos() as f64 / total.as_nanos() as f64
    }

    /// The present components as `(id, time)` pairs, sorted by name — the
    /// deterministic order the old `BTreeMap` iterated in.
    fn sorted_entries(&self) -> Vec<(ComponentId, Nanos)> {
        let mut entries: Vec<(ComponentId, Nanos)> =
            Vec::with_capacity(self.present.count_ones() as usize + self.spill.len());
        let mut mask = self.present;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            // Present inline slots were set through `add`, whose interning
            // guarantees the id exists in the table.
            entries.push((ComponentId::from_index(i), self.inline[i]));
            mask &= mask - 1;
        }
        entries.extend(self.spill.iter().copied());
        entries.sort_by_key(|(id, _)| id.name());
        entries
    }

    /// Iterates over `(component, time)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Nanos)> {
        self.sorted_entries()
            .into_iter()
            .map(|(id, t)| (id.name(), t))
    }

    /// Component names present in the breakdown, in name order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        self.iter().map(|(name, _)| name)
    }

    /// Returns `true` if no components have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == 0 && self.spill.is_empty()
    }

    /// Merges another breakdown into this one component-by-component:
    /// O(`present` slots), no allocation on the inline path.
    pub fn merge(&mut self, other: &LatencyVector) {
        let mut mask = other.present;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            self.inline[i] += other.inline[i];
            mask &= mask - 1;
        }
        self.present |= other.present;
        for &(id, t) in &other.spill {
            self.add(id, t);
        }
    }

    /// Resets to the empty breakdown without touching the spill capacity —
    /// the scratch-reuse form of [`LatencyVector::new`].
    pub fn clear(&mut self) {
        self.inline = [Nanos::ZERO; INLINE_COMPONENTS];
        self.present = 0;
        self.spill.clear();
    }

    /// Returns the breakdown normalised so that components sum to 1.0.
    /// Components of a zero-total breakdown normalise to 0.
    #[must_use]
    pub fn normalized(&self) -> Vec<(String, f64)> {
        self.iter()
            .map(|(name, _)| (name.to_owned(), self.fraction(name)))
            .collect()
    }
}

impl Default for LatencyVector {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for LatencyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        write!(f, "total={total}")?;
        for (name, t) in self.iter() {
            write!(f, " {name}={t} ({:.1}%)", self.fraction(name) * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        assert_eq!(c.name(), "x");
        c.incr();
        c.add(10);
        assert_eq!(c.value(), 11);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new("x");
        c.add(u64::MAX);
        c.add(5);
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn running_stats_mean_and_extremes() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [4.0, 8.0, 6.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 6.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(4.0));
        assert_eq!(s.max(), Some(8.0));
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    fn running_stats_merge() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    fn running_stats_variance_of_constant_is_zero() {
        let mut s = RunningStats::new();
        for _ in 0..100 {
            s.push(7.5);
        }
        assert!(s.variance() < 1e-9);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(Nanos::from_nanos(10), 1000);
        for i in 1..=1000u64 {
            h.record(Nanos::from_nanos(i * 10));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.overflow(), 1); // the 10_000ns sample lands past bucket 999
        let p99 = h.percentile(99.0).unwrap();
        assert!(p99 >= Nanos::from_nanos(9_800), "p99 was {p99}");
        assert!(h.mean() > Nanos::from_nanos(4_000));
        assert!(h.percentile(0.0).is_some());
    }

    #[test]
    fn histogram_empty_and_reset() {
        let mut h = Histogram::new(Nanos::from_nanos(10), 10);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), Nanos::ZERO);
        h.record(Nanos::from_nanos(5));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(Nanos::ZERO, 10);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = LatencyBreakdown::new();
        b.add("a", Nanos::from_nanos(10));
        b.add("b", Nanos::from_nanos(30));
        b.add("a", Nanos::from_nanos(10));
        let sum: f64 = b.normalized().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(b.component("a"), Nanos::from_nanos(20));
        assert_eq!(b.component("missing"), Nanos::ZERO);
        assert_eq!(b.total(), Nanos::from_nanos(50));
    }

    #[test]
    fn breakdown_merge_and_display() {
        let mut a = LatencyBreakdown::new();
        a.add("os", Nanos::from_nanos(5));
        let mut b = LatencyBreakdown::new();
        b.add("os", Nanos::from_nanos(5));
        b.add("ssd", Nanos::from_nanos(10));
        a.merge(&b);
        assert_eq!(a.component("os"), Nanos::from_nanos(10));
        assert_eq!(a.component("ssd"), Nanos::from_nanos(10));
        let shown = a.to_string();
        assert!(shown.contains("os"));
        assert!(shown.contains("ssd"));
    }

    #[test]
    fn breakdown_empty_total_is_zero() {
        let b = LatencyBreakdown::new();
        assert!(b.is_empty());
        assert_eq!(b.total(), Nanos::ZERO);
        assert_eq!(b.fraction("anything"), 0.0);
    }

    #[test]
    fn vector_accepts_ids_and_names_interchangeably() {
        let mut by_name = LatencyVector::new();
        by_name.add("nvdimm", Nanos::from_nanos(7));
        by_name.add("dma", Nanos::from_nanos(3));
        let mut by_id = LatencyVector::new();
        by_id.add(ComponentId::NVDIMM, Nanos::from_nanos(7));
        by_id.add(ComponentId::DMA, Nanos::from_nanos(3));
        assert_eq!(by_name, by_id);
        assert_eq!(by_id.value(ComponentId::NVDIMM), Nanos::from_nanos(7));
        assert_eq!(by_id.component("nvdimm"), Nanos::from_nanos(7));
    }

    #[test]
    fn vector_iterates_in_name_order_like_the_old_map() {
        let mut b = LatencyVector::new();
        b.add(ComponentId::SSD, Nanos::from_nanos(1));
        b.add(ComponentId::APP, Nanos::from_nanos(2));
        b.add(ComponentId::NVDIMM, Nanos::from_nanos(3));
        b.add("io_stack", Nanos::from_nanos(4));
        let names: Vec<&str> = b.names().collect();
        assert_eq!(names, ["app", "io_stack", "nvdimm", "ssd"]);
    }

    #[test]
    fn zero_valued_components_are_present_like_map_entries() {
        let mut b = LatencyVector::new();
        b.add("os", Nanos::ZERO);
        assert!(!b.is_empty());
        assert_eq!(b.names().collect::<Vec<_>>(), ["os"]);
        let empty = LatencyVector::new();
        assert_ne!(b, empty, "an explicit zero entry is not the empty map");
    }

    #[test]
    fn vector_clear_resets_to_empty() {
        let mut b = LatencyVector::new();
        b.add(ComponentId::HAMS, Nanos::from_nanos(9));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b, LatencyVector::new());
    }

    #[test]
    fn spilled_components_merge_and_iterate() {
        // Intern enough distinct names to push past the inline slots.
        let ids: Vec<ComponentId> = (0..INLINE_COMPONENTS + 4)
            .map(|i| ComponentId::intern(&format!("spill_test_{i:03}")))
            .collect();
        let over = *ids.last().unwrap();
        assert!(over.index() >= INLINE_COMPONENTS);
        let mut a = LatencyVector::new();
        a.add(over, Nanos::from_nanos(5));
        let mut b = LatencyVector::new();
        b.add(over, Nanos::from_nanos(6));
        b.add(ComponentId::DMA, Nanos::from_nanos(1));
        a.merge(&b);
        assert_eq!(a.value(over), Nanos::from_nanos(11));
        assert_eq!(a.total(), Nanos::from_nanos(12));
        assert!(a.names().any(|n| n == over.name()));
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        // 10 buckets of 10ns: samples 10, 20, ..., 90 land in buckets 1..9
        // (sample i*10 falls exactly on a boundary, landing in bucket i),
        // one 1000ns sample overflows.
        let mut h = Histogram::new(Nanos::from_nanos(10), 10);
        for i in 1..=9u64 {
            h.record(Nanos::from_nanos(i * 10));
        }
        h.record(Nanos::from_nanos(1_000));
        assert_eq!(h.count(), 10);
        assert_eq!(h.overflow(), 1);
        // p50 → target rank 5 → the fifth sample (50ns) in bucket 5 → upper
        // edge 60ns.
        assert_eq!(h.percentile(50.0), Some(Nanos::from_nanos(60)));
        // p99 → rank 10 → the overflow sample → its true observed value,
        // not the 100ns range edge (which would flatten the tail).
        assert_eq!(h.percentile(99.0), Some(Nanos::from_nanos(1_000)));
        // p0 clamps to the first sample's bucket.
        assert_eq!(h.percentile(0.0), Some(Nanos::from_nanos(20)));
        // Out-of-range p clamps to 100.
        assert_eq!(h.percentile(250.0), h.percentile(100.0));

        // 1000 samples in 1ns buckets: sample k (1-based) lands in bucket
        // k - 1, whose upper edge is k ns. 0.999 * 1000 is exactly 999, so
        // p99.9 is the 999th sample, not the maximum.
        let mut h = Histogram::new(Nanos::from_nanos(1), 1_000);
        for i in 0..1_000u64 {
            h.record(Nanos::from_nanos(i));
        }
        let p999 = Some(Nanos::from_nanos(999));
        assert_eq!(h.percentile(99.9), p999);
        assert_eq!(h.percentiles(&[99.9]), vec![p999]);
        assert_eq!(h.summary().map(|s| s.p999), p999);
        assert_eq!(h.percentile(100.0), Some(Nanos::from_nanos(1_000)));
    }

    #[test]
    fn percentiles_match_percentile_in_one_pass() {
        let mut h = Histogram::new(Nanos::from_nanos(100), 64);
        for i in 0..500u64 {
            h.record(Nanos::from_nanos(i * 17 % 8_000));
        }
        let ps = [99.9, 1.0, 50.0, 90.0, 99.0, 25.0, 75.0];
        let batch = h.percentiles(&ps);
        for (p, got) in ps.iter().zip(&batch) {
            assert_eq!(*got, h.percentile(*p), "p{p} diverged from the batch");
        }
        // An overflow-heavy histogram must agree between the two paths too.
        let mut tail = Histogram::new(Nanos::from_nanos(100), 8);
        for i in 0..200u64 {
            tail.record(Nanos::from_nanos(i * 311 % 50_000));
        }
        assert!(tail.overflow() > 0);
        for (p, got) in ps.iter().zip(&tail.percentiles(&ps)) {
            assert_eq!(*got, tail.percentile(*p), "overflow p{p} diverged");
        }
        // Empty histograms resolve every percentile to None.
        let empty = Histogram::new(Nanos::from_nanos(10), 4);
        assert_eq!(empty.percentiles(&ps), vec![None; ps.len()]);
    }

    #[test]
    fn all_overflow_percentiles_return_the_true_observed_max() {
        let mut h = Histogram::new(Nanos::from_nanos(10), 4);
        for _ in 0..8 {
            h.record(Nanos::from_micros(1));
        }
        assert_eq!(h.overflow(), 8);
        assert_eq!(h.overflow_max(), Some(Nanos::from_micros(1)));
        // Every percentile lands in the overflow bucket: the answer is the
        // largest overflowed sample, not the 40ns range maximum the clamped
        // implementation used to report.
        assert_eq!(h.percentile(50.0), Some(Nanos::from_micros(1)));
        assert_eq!(h.percentile(99.0), Some(Nanos::from_micros(1)));
        assert_eq!(
            h.percentiles(&[50.0, 99.9]),
            vec![Some(Nanos::from_micros(1)); 2]
        );
        h.reset();
        assert_eq!(h.overflow_max(), None);
    }

    #[test]
    fn summary_matches_the_piecewise_queries() {
        let mut h = Histogram::new(Nanos::from_nanos(100), 64);
        for i in 0..500u64 {
            h.record(Nanos::from_nanos(i * 17 % 8_000));
        }
        let s = h.summary().expect("non-empty histogram summarizes");
        assert_eq!(s.count, h.count());
        assert_eq!(s.mean, h.mean());
        assert_eq!(Some(s.p50), h.percentile(50.0));
        assert_eq!(Some(s.p99), h.percentile(99.0));
        assert_eq!(Some(s.p999), h.percentile(99.9));
        assert_eq!(Some(s.max), h.percentile(100.0));

        // Overflow-aware: the tail resolves to the true overflowed maximum.
        let mut tail = Histogram::new(Nanos::from_nanos(10), 4);
        for _ in 0..8 {
            tail.record(Nanos::from_micros(1));
        }
        let s = tail.summary().unwrap();
        assert_eq!(s.p50, Nanos::from_micros(1));
        assert_eq!(s.max, Nanos::from_micros(1));

        // Empty histograms have no summary.
        assert_eq!(Histogram::new(Nanos::from_nanos(10), 4).summary(), None);
    }

    #[test]
    fn boundary_sample_at_range_edge_lands_in_overflow() {
        // A sample at exactly `buckets * bucket_width` indexes one past the
        // last bucket: it must count as overflow and become the overflow max.
        let mut h = Histogram::new(Nanos::from_nanos(10), 4);
        h.record(Nanos::from_nanos(40));
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.overflow_max(), Some(Nanos::from_nanos(40)));
        assert_eq!(h.percentile(100.0), Some(Nanos::from_nanos(40)));
    }
}
