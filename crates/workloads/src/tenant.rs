//! Multi-tenant workload composition: several independent clients sharing
//! one platform.
//!
//! The paper's serving scenarios are single-tenant stand-ins for a shared
//! host. This module supplies the missing layer: a [`TenantSpec`] pairs a
//! Table III workload with its own open-loop [`ArrivalProcess`] (and an
//! optional QoS weight for fairness reporting), and a [`TenantSet`] merges
//! any number of such tenants into one time-ordered request stream — the
//! [`TenantSource`] — that the platform-boundary admission queue in
//! `hams-platforms` consumes exactly like a single-tenant stream.
//!
//! Determinism contract: tenant *i* draws its trace and arrival streams from
//! [`tenant_seed`]`(base, i)`, and tenant 0's seed **is** the base seed, so
//! the source of a single-tenant set is exactly its workload's trace zipped
//! with its arrival schedule. The open-loop engine relies on this: a
//! single-tenant run is the one-tenant set. Merging is a stable
//! earliest-arrival scan with ties broken by tenant index, so the merged
//! order is a pure function of the seeds.
//!
//! The merge looks only at arrival instants. Each tenant holds its next
//! arrival instant and its two generators; a request's access is generated
//! when the request is taken. The trace and the schedule draw from
//! independent seeded streams, so generating the access late changes
//! nothing in the merged stream.

use serde::{Deserialize, Serialize};

use hams_sim::Nanos;

use crate::arrival::{ArrivalGenerator, ArrivalProcess};
use crate::spec::{Access, TraceGenerator, WorkloadSpec};

/// Per-tenant seed stride (the 64-bit golden-ratio constant, as used by
/// splitmix-style sequence splitting): tenant `i` seeds its streams with
/// `base + i * STRIDE`, keeping tenant 0 byte-identical to a single-tenant
/// run while decorrelating the rest.
const TENANT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed tenant `tenant` derives its trace and arrival streams from.
/// `tenant_seed(base, 0) == base` — the degenerate single-tenant contract.
#[must_use]
pub fn tenant_seed(base: u64, tenant: usize) -> u64 {
    base.wrapping_add((tenant as u64).wrapping_mul(TENANT_SEED_STRIDE))
}

/// One tenant: a workload, its own arrival schedule, and a QoS weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name as used in figure legends and per-tenant reports.
    pub name: String,
    /// The workload this tenant replays.
    pub spec: WorkloadSpec,
    /// When this tenant's requests arrive.
    pub arrivals: ArrivalProcess,
    /// QoS weight for fairness reporting: achieved rates are normalized by
    /// weight before the fairness index is computed, so a weight-2 tenant is
    /// *entitled* to twice the throughput of a weight-1 tenant.
    pub weight: f64,
    /// Number of requests this tenant offers; `None` uses the run's
    /// `ScaleProfile::accesses` default.
    pub accesses: Option<usize>,
}

impl TenantSpec {
    /// A tenant with weight 1 offering the profile-default request count.
    #[must_use]
    pub fn new(name: impl Into<String>, spec: WorkloadSpec, arrivals: ArrivalProcess) -> Self {
        TenantSpec {
            name: name.into(),
            spec,
            arrivals,
            weight: 1.0,
            accesses: None,
        }
    }

    /// Returns a copy with a different QoS weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Returns a copy offering an explicit request count instead of the
    /// profile default.
    #[must_use]
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = Some(accesses);
        self
    }

    /// The request count this tenant offers given the profile default.
    #[must_use]
    pub fn accesses_or(&self, default: usize) -> usize {
        self.accesses.unwrap_or(default)
    }
}

/// An ordered set of tenants sharing one platform. Tenant index (position
/// in [`TenantSet::tenants`]) is the tenant id threaded through the
/// open-loop engine's records and per-tenant metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSet {
    /// The tenants, in id order.
    pub tenants: Vec<TenantSpec>,
}

impl TenantSet {
    /// Builds a validated set.
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is empty, a weight is non-finite or
    /// non-positive, or an arrival process fails
    /// [`ArrivalProcess::validate`].
    #[must_use]
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        let set = TenantSet { tenants };
        set.validate();
        set
    }

    /// The one-tenant set: its source is exactly the workload's trace zipped
    /// with the arrival schedule, which is how single-tenant open-loop runs
    /// are served.
    #[must_use]
    pub fn single(name: impl Into<String>, spec: WorkloadSpec, arrivals: ArrivalProcess) -> Self {
        TenantSet::new(vec![TenantSpec::new(name, spec, arrivals)])
    }

    /// Number of tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the set has no tenants (never true for a validated set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Checks the set.
    ///
    /// # Panics
    ///
    /// Panics on an empty set, a non-finite or non-positive weight, or an
    /// invalid arrival process.
    pub fn validate(&self) {
        assert!(!self.tenants.is_empty(), "a tenant set needs >= 1 tenant");
        for t in &self.tenants {
            assert!(
                t.weight.is_finite() && t.weight > 0.0,
                "tenant {}: weight {} must be finite and positive",
                t.name,
                t.weight
            );
            t.arrivals.validate();
        }
    }

    /// Sum of the tenants' mean offered rates (infinite if any tenant
    /// saturates).
    #[must_use]
    pub fn offered_rate_per_sec(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.arrivals.mean_rate_per_sec())
            .sum()
    }

    /// Total requests the set offers given the profile default per tenant.
    #[must_use]
    pub fn total_accesses(&self, default: usize) -> usize {
        self.tenants.iter().map(|t| t.accesses_or(default)).sum()
    }

    /// The merged run's workload label: the tenants' workload names joined
    /// with `+`. A single-tenant set keeps exactly its workload's name.
    #[must_use]
    pub fn workload_label(&self) -> String {
        self.tenants
            .iter()
            .map(|t| t.spec.name)
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One tenant's request stream: its generators and the arrival instant of
/// its next request.
#[derive(Debug)]
struct TenantStream {
    trace: TraceGenerator,
    arrivals: ArrivalGenerator,
    /// `None` once the tenant has offered every request.
    next_arrival: Option<Nanos>,
}

/// The merged, time-ordered request source of a [`TenantSet`]: yields
/// `(tenant, access, arrival)` tuples in non-decreasing arrival order, with
/// simultaneous arrivals ordered by tenant index. Each tenant's own stream
/// stays in its generator order, so per-tenant request sequences are
/// unchanged by the merge.
#[derive(Debug)]
pub struct TenantSource {
    streams: Vec<TenantStream>,
    /// The tenant whose request arrives next, and its arrival instant.
    head: Option<(usize, Nanos)>,
}

impl TenantSource {
    /// Builds the merged source. `scaled[i]` must be tenant *i*'s
    /// dataset-scaled workload spec (scaling lives in the caller because the
    /// scale profile does); `default_accesses` fills in for tenants without
    /// an explicit request count.
    ///
    /// # Panics
    ///
    /// Panics when `scaled` and the set disagree on length, or the set
    /// fails [`TenantSet::validate`].
    #[must_use]
    pub fn new(
        set: &TenantSet,
        scaled: &[WorkloadSpec],
        base_seed: u64,
        default_accesses: usize,
    ) -> Self {
        set.validate();
        assert_eq!(
            scaled.len(),
            set.tenants.len(),
            "one scaled spec per tenant"
        );
        let streams = set
            .tenants
            .iter()
            .zip(scaled)
            .enumerate()
            .map(|(i, (t, &spec))| {
                let count = t.accesses_or(default_accesses);
                let seed = tenant_seed(base_seed, i);
                let mut arrivals = ArrivalGenerator::new(t.arrivals, seed, count);
                TenantStream {
                    trace: TraceGenerator::new(spec, seed, count),
                    next_arrival: arrivals.next(),
                    arrivals,
                }
            })
            .collect();
        let mut source = TenantSource {
            streams,
            head: None,
        };
        source.head = source.earliest();
        source
    }

    /// The arrival instant of the next request, without taking it.
    #[must_use]
    pub fn peek_arrival(&self) -> Option<Nanos> {
        self.head.map(|(_, arrival)| arrival)
    }

    /// Earliest-arrival scan; strict `<` keeps the lowest tenant index on
    /// ties, so the merge order is deterministic.
    fn earliest(&self) -> Option<(usize, Nanos)> {
        let mut best: Option<(usize, Nanos)> = None;
        for (i, stream) in self.streams.iter().enumerate() {
            if let Some(arrival) = stream.next_arrival {
                if best.is_none_or(|(_, t)| arrival < t) {
                    best = Some((i, arrival));
                }
            }
        }
        best
    }
}

impl Iterator for TenantSource {
    type Item = (usize, Access, Nanos);

    fn next(&mut self) -> Option<Self::Item> {
        let (i, arrival) = self.head?;
        let stream = &mut self.streams[i];
        let access = stream
            .trace
            .next()
            .expect("a trace is as long as its arrival schedule");
        stream.next_arrival = stream.arrivals.next();
        self.head = self.earliest();
        Some((i, access, arrival))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A request's access is generated when it is taken, so each trace's
        // remaining length is its tenant's remaining request count.
        let remaining = self.streams.iter().map(|s| s.trace.len()).sum();
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::by_name(name).unwrap()
    }

    fn poisson(rate: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_sec: rate }
    }

    #[test]
    fn tenant_zero_uses_the_base_seed() {
        assert_eq!(tenant_seed(42, 0), 42);
        assert_ne!(tenant_seed(42, 1), 42);
        assert_ne!(tenant_seed(42, 1), tenant_seed(42, 2));
    }

    #[test]
    fn single_tenant_source_is_the_plain_zipped_stream() {
        let w = spec("rndRd");
        let set = TenantSet::single("only", w, poisson(1e6));
        let merged: Vec<_> = TenantSource::new(&set, &[w], 7, 300).collect();
        let reference: Vec<_> = TraceGenerator::new(w, 7, 300)
            .zip(ArrivalGenerator::new(poisson(1e6), 7, 300))
            .map(|(a, t)| (0usize, a, t))
            .collect();
        assert_eq!(merged, reference);
    }

    #[test]
    fn merged_source_is_time_ordered_and_conserves_per_tenant_counts() {
        let set = TenantSet::new(vec![
            TenantSpec::new("a", spec("rndRd"), poisson(2e6)),
            TenantSpec::new("b", spec("update"), poisson(5e5)).with_accesses(150),
            TenantSpec::new("c", spec("seqWr"), ArrivalProcess::Saturate).with_weight(2.0),
        ]);
        let scaled = [spec("rndRd"), spec("update"), spec("seqWr")];
        let merged: Vec<_> = TenantSource::new(&set, &scaled, 11, 400).collect();
        assert_eq!(merged.len(), 400 + 150 + 400);
        let mut counts = [0usize; 3];
        let mut last = Nanos::ZERO;
        for &(tenant, _, arrival) in &merged {
            assert!(arrival >= last, "merged stream went back in time");
            last = arrival;
            counts[tenant] += 1;
        }
        assert_eq!(counts, [400, 150, 400]);
        // The saturating tenant's arrivals are all at t = 0, tie-broken by
        // index: tenant 2 owns the head of the merged stream.
        assert!(merged[..400].iter().all(|&(t, _, a)| t == 2 && a.is_zero()));
    }

    /// The merge [`TenantSource`] replaced: each tenant's trace zipped with
    /// its arrival schedule, a request generated ahead into a peek buffer,
    /// and an earliest-arrival scan over the buffered heads. Kept as its
    /// reference.
    fn reference_merge(
        set: &TenantSet,
        scaled: &[WorkloadSpec],
        base_seed: u64,
        default_accesses: usize,
    ) -> Vec<(usize, Access, Nanos)> {
        let mut streams: Vec<_> = set
            .tenants
            .iter()
            .zip(scaled)
            .enumerate()
            .map(|(i, (t, &spec))| {
                let count = t.accesses_or(default_accesses);
                let seed = tenant_seed(base_seed, i);
                TraceGenerator::new(spec, seed, count)
                    .zip(ArrivalGenerator::new(t.arrivals, seed, count))
                    .peekable()
            })
            .collect();
        let mut merged = Vec::new();
        loop {
            let mut best: Option<(usize, Nanos)> = None;
            for (i, stream) in streams.iter_mut().enumerate() {
                if let Some(&(_, arrival)) = stream.peek() {
                    if best.is_none_or(|(_, t)| arrival < t) {
                        best = Some((i, arrival));
                    }
                }
            }
            let Some((i, _)) = best else {
                return merged;
            };
            let (access, arrival) = streams[i].next().expect("peeked");
            merged.push((i, access, arrival));
        }
    }

    #[test]
    fn merge_equals_the_peek_buffer_reference() {
        let bursty = ArrivalProcess::Bursty {
            base_rate_per_sec: 2e5,
            burst_multiplier: 8.0,
            mean_burst: Nanos::from_micros(20),
            mean_calm: Nanos::from_micros(200),
        };
        let diurnal = ArrivalProcess::Diurnal {
            trough_rate_per_sec: 1e5,
            peak_rate_per_sec: 1e6,
            period: Nanos::from_micros(500),
        };
        let set = TenantSet::new(vec![
            TenantSpec::new("sat-a", spec("seqRd"), ArrivalProcess::Saturate).with_accesses(40),
            TenantSpec::new("poisson", spec("rndRd"), poisson(5e5)),
            TenantSpec::new("sat-b", spec("update"), ArrivalProcess::Saturate).with_accesses(25),
            TenantSpec::new("bursty", spec("rndSel"), bursty).with_accesses(700),
            TenantSpec::new("diurnal", spec("BFS"), diurnal).with_accesses(90),
            TenantSpec::new("idle", spec("KMN"), poisson(1e6)).with_accesses(0),
        ]);
        let scaled: Vec<WorkloadSpec> = set
            .tenants
            .iter()
            .map(|t| t.spec.with_dataset_bytes(1 << 24))
            .collect();
        for seed in [42, 20211] {
            let mut source = TenantSource::new(&set, &scaled, seed, 400);
            let mut merged = Vec::new();
            loop {
                let remaining = source.size_hint();
                let head = source.peek_arrival();
                let Some(item) = source.next() else {
                    assert_eq!((head, remaining), (None, (0, Some(0))));
                    break;
                };
                assert_eq!(head, Some(item.2), "the head query names the next arrival");
                assert!(remaining.0 > 0 && remaining.1 == Some(remaining.0));
                merged.push(item);
            }
            let reference = reference_merge(&set, &scaled, seed, 400);
            assert_eq!(merged.len(), 40 + 400 + 25 + 700 + 90);
            // The two saturating tenants tie at t = 0: the lower index first.
            assert!(merged[..40].iter().all(|&(t, _, a)| t == 0 && a.is_zero()));
            assert!(merged[40..65]
                .iter()
                .all(|&(t, _, a)| t == 2 && a.is_zero()));
            assert_eq!(merged, reference, "seed {seed}");
        }
    }

    #[test]
    fn offered_rate_sums_tenant_rates() {
        let set = TenantSet::new(vec![
            TenantSpec::new("a", spec("rndRd"), poisson(1e6)),
            TenantSpec::new("b", spec("update"), poisson(3e6)),
        ]);
        assert!((set.offered_rate_per_sec() - 4e6).abs() < 1e-3);
        assert_eq!(set.workload_label(), "rndRd+update");
        assert_eq!(set.total_accesses(100), 200);
        let sat = TenantSet::single("s", spec("rndRd"), ArrivalProcess::Saturate);
        assert_eq!(sat.offered_rate_per_sec(), f64::INFINITY);
        assert_eq!(sat.workload_label(), "rndRd");
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn non_positive_weight_is_rejected() {
        let _ = TenantSet::new(vec![
            TenantSpec::new("a", spec("rndRd"), poisson(1e6)).with_weight(0.0)
        ]);
    }

    #[test]
    #[should_panic(expected = ">= 1 tenant")]
    fn empty_set_is_rejected() {
        let _ = TenantSet::new(Vec::new());
    }
}
