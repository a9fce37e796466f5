//! Open-loop serving: a bounded admission queue between arrival processes
//! and the platform, with sojourn-time (queueing + service) accounting —
//! single-tenant and multi-tenant.
//!
//! The closed-loop runner ([`crate::run_workload`]) issues the next access
//! when the previous one finishes, so the offered load always equals the
//! service rate — saturation behaviour, the regime where HAMS's hardware
//! automation is supposed to beat the software stacks, is invisible. The
//! open-loop driver here decouples the two: an
//! [`ArrivalGenerator`](hams_workloads::ArrivalGenerator) schedules when
//! requests *arrive*, an admission queue [`ADMISSION_QUEUE_DEPTH`] deep holds
//! them at the platform boundary (an arrival that finds it full is dropped),
//! and the platform serves FIFO batches of up to [`DEFAULT_BATCH_SIZE`]
//! through the same [`Platform::serve_batch_into`] hot path as closed-loop
//! replay. Each served request records arrival → dispatch → finish
//! timestamps, and the sojourn time (finish − arrival) feeds a [`Histogram`]
//! for p50/p99/p999 reporting.
//!
//! Every run is a [`TenantSet`] served through one engine. Its merged,
//! time-ordered request stream ([`TenantSource`]) feeds one admission queue
//! and one platform: N independent clients, each with its own workload,
//! arrival process and QoS weight — the harness for noisy-neighbour
//! interference studies (`fig25`). The tenant id is threaded through
//! [`OpenLoopRecord`]. Each tenant's [`TenantMetrics`] is its ledger, the
//! only place a request is counted: admission counts its arrival (or drop)
//! there, and serving its finish and sojourn. The merged totals are derived
//! from the ledgers when the run ends. [`run_workload_open_loop`] is the
//! one-tenant set of its workload and arrival process.
//!
//! The engine builds the merged source on the calling thread, then serves it
//! through [`hams_sim::par::prefetch`]: one producer thread generates the
//! stream ahead in chunks, so the serving thread never draws an arrival gap,
//! steps a trace or merges tenants. Closed-loop replay generates inline.
//!
//! At arrival-rate → ∞ ([`ArrivalProcess::Saturate`]) every request arrives
//! at t = 0, so while none is dropped every dispatch instant equals the
//! previous finish — exactly the closed-loop serial schedule, which batching
//! does not change. A saturated run of at most [`ADMISSION_QUEUE_DEPTH`]
//! requests must therefore produce [`RunMetrics`] byte-identical to
//! [`crate::run_workload_serial`] (`tests/openloop_equivalence.rs`).
//! The merged totals are the sums of the tenant ledgers, and each ledger
//! conserves its requests: arrivals = served + dropped
//! (`tests/tenant_equivalence.rs`).

use hams_sim::par::{prefetch, Prefetched};
use hams_sim::{Histogram, Nanos};
use hams_telemetry::RunTelemetry;
use hams_workloads::{Access, ArrivalProcess, TenantSet, TenantSource, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::observe::{Observer, Tracer};
use crate::platform::{BatchOutcome, BatchRequest, Platform};
use crate::runner::{MetricsFold, RunMetrics, ScaleProfile, DEFAULT_BATCH_SIZE};

/// The most requests that wait at the platform boundary. An arrival that
/// finds the admission queue this full is dropped.
pub const ADMISSION_QUEUE_DEPTH: usize = 4096;

/// Configuration of one open-loop run: the arrival process, the sojourn
/// histogram and record retention. Every run admits through one
/// [`ADMISSION_QUEUE_DEPTH`]-deep dropping queue and dispatches batches of
/// up to [`DEFAULT_BATCH_SIZE`] requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// When requests arrive. Ignored by [`run_tenant_set_open_loop`], where
    /// each tenant's own [`ArrivalProcess`] drives its stream.
    pub arrivals: ArrivalProcess,
    /// Bucket width of the sojourn-time histogram.
    pub sojourn_bucket: Nanos,
    /// Bucket count of the sojourn-time histogram.
    pub sojourn_buckets: usize,
    /// Whether per-request [`OpenLoopRecord`]s are retained in
    /// [`OpenLoopMetrics::records`]. The sojourn histogram (and every
    /// derived percentile) is exact either way; wall-clock harnesses over
    /// millions of arrivals turn this off to keep the run allocation-light.
    pub keep_records: bool,
}

impl OpenLoopConfig {
    /// A Poisson run at `rate_per_sec` with a 256 ns × 65 536-bucket sojourn
    /// histogram (~16.8 ms of range before the overflow bucket's true-max
    /// tracking takes over).
    #[must_use]
    pub fn poisson(rate_per_sec: f64) -> Self {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 65_536,
            keep_records: true,
        }
    }

    /// Returns a copy with per-request record retention switched on or off.
    #[must_use]
    pub fn with_records(mut self, keep: bool) -> Self {
        self.keep_records = keep;
        self
    }
}

/// The life of one served request, as the three instants the engine records,
/// tagged with the tenant that issued it (0 for single-tenant runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenLoopRecord {
    /// Index of the issuing tenant in its [`TenantSet`] (always 0 for
    /// [`run_workload_open_loop`]).
    pub tenant: usize,
    /// When the request arrived at the platform boundary and, unless it was
    /// dropped, entered the admission queue.
    pub arrival: Nanos,
    /// When the platform started serving it.
    pub started: Nanos,
    /// When its outcome completed.
    pub finished: Nanos,
}

impl OpenLoopRecord {
    /// Total time in the system: queueing plus service.
    #[must_use]
    pub fn sojourn(&self) -> Nanos {
        self.finished.saturating_sub(self.arrival)
    }

    /// Service time alone (dispatch to completion).
    #[must_use]
    pub fn service(&self) -> Nanos {
        self.finished.saturating_sub(self.started)
    }

    /// Time spent in the admission queue before dispatch.
    #[must_use]
    pub fn queue_wait(&self) -> Nanos {
        self.started.saturating_sub(self.arrival)
    }
}

/// Everything one open-loop run reports: the closed-loop-compatible
/// [`RunMetrics`] plus arrival/drop accounting and the sojourn distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopMetrics {
    /// The same per-run metrics closed-loop replay produces (timing folded
    /// over served requests only).
    pub run: RunMetrics,
    /// Mean offered arrival rate (requests per second; infinite for
    /// [`ArrivalProcess::Saturate`]).
    pub offered_rate_per_sec: f64,
    /// Requests the arrival process generated.
    pub arrivals: u64,
    /// Requests actually served.
    pub served: u64,
    /// Requests dropped at a full admission queue.
    pub dropped: u64,
    /// Arrival instant of the first request the arrival process produced
    /// (zero when nothing arrived).
    pub first_arrival: Nanos,
    /// Completion instant of the last served request (zero when nothing was
    /// served).
    pub last_finish: Nanos,
    /// Sojourn-time (queueing + service) distribution over served requests.
    pub sojourn: Histogram,
    /// Per-request timestamp records, in service order. Empty when
    /// [`OpenLoopConfig::keep_records`] is off — the histogram above stays
    /// exact either way.
    pub records: Vec<OpenLoopRecord>,
}

impl OpenLoopMetrics {
    /// The simulated wall-clock span of the run: first arrival → last
    /// finish. This — not the metric fold's busy time — is the denominator
    /// of [`OpenLoopMetrics::achieved_per_sec`]: under light load the
    /// server idles between arrivals, and under a late-starting arrival
    /// schedule the fold's span-from-zero would understate the rate.
    #[must_use]
    pub fn wall_span(&self) -> Nanos {
        self.last_finish.saturating_sub(self.first_arrival)
    }

    /// Achieved throughput in served requests per second of simulated
    /// wall-clock time ([`OpenLoopMetrics::wall_span`]).
    #[must_use]
    pub fn achieved_per_sec(&self) -> f64 {
        self.served as f64 / self.wall_span().as_secs_f64().max(1e-12)
    }

    /// The sojourn percentiles the paper-style tail report uses:
    /// (p50, p99, p999). `None` entries mean no request was served.
    #[must_use]
    pub fn sojourn_p50_p99_p999(&self) -> [Option<Nanos>; 3] {
        let ps = self.sojourn.percentiles(&[50.0, 99.0, 99.9]);
        [ps[0], ps[1], ps[2]]
    }
}

/// One tenant's share of an open-loop run: its ledger, which the run fills
/// as it admits and serves the tenant's requests.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant index in the [`TenantSet`].
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// QoS weight (fairness normalizes achieved rates by this).
    pub weight: f64,
    /// The tenant's mean offered arrival rate.
    pub offered_rate_per_sec: f64,
    /// Requests this tenant's arrival process generated.
    pub arrivals: u64,
    /// Requests of this tenant actually served.
    pub served: u64,
    /// Requests of this tenant rejected by a full dropping queue.
    pub dropped: u64,
    /// Arrival instant of this tenant's first request (zero when none).
    pub first_arrival: Nanos,
    /// Completion instant of this tenant's last served request.
    pub last_finish: Nanos,
    /// Sojourn distribution over this tenant's served requests.
    pub sojourn: Histogram,
}

impl TenantMetrics {
    /// This tenant's achieved throughput over its own simulated wall span
    /// (its first arrival → its last finish).
    #[must_use]
    pub fn achieved_per_sec(&self) -> f64 {
        let span = self.last_finish.saturating_sub(self.first_arrival);
        self.served as f64 / span.as_secs_f64().max(1e-12)
    }

    /// This tenant's (p50, p99, p999) sojourn percentiles.
    #[must_use]
    pub fn sojourn_p50_p99_p999(&self) -> [Option<Nanos>; 3] {
        let ps = self.sojourn.percentiles(&[50.0, 99.0, 99.9]);
        [ps[0], ps[1], ps[2]]
    }
}

/// A multi-tenant open-loop run: the merged-stream metrics plus one
/// [`TenantMetrics`] per tenant. The merged arrivals, served, dropped,
/// first arrival, last finish and sojourn histogram are derived from the
/// tenant ledgers when the run ends (pinned in
/// `tests/tenant_equivalence.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantMetrics {
    /// Metrics of the merged stream, exactly as a single-tenant run reports
    /// them. For sets of more than one tenant the workload label is the
    /// tenants' workload names joined with `+`, and `run.pages_per_sec`
    /// reflects the byte mix actually served.
    pub merged: OpenLoopMetrics,
    /// Per-tenant accounting, in [`TenantSet`] order.
    pub tenants: Vec<TenantMetrics>,
}

impl MultiTenantMetrics {
    /// Jain's fairness index over weight-normalized achieved rates:
    /// `(Σx)² / (n · Σx²)` with `x_i = achieved_i / weight_i`. 1.0 means
    /// every tenant got throughput proportional to its weight; `1/n` means
    /// one tenant got everything. Returns 1.0 for the vacuous cases (a
    /// single tenant, or nothing served at all).
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.achieved_per_sec() / t.weight)
            .collect();
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (n * sum_sq)
    }

    /// Looks a tenant up by name.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantMetrics> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// One request waiting at the platform boundary.
#[derive(Debug, Clone, Copy)]
struct Queued {
    tenant: usize,
    access: Access,
    arrival: Nanos,
}

/// Admits every arrival with instant ≤ `t`, in arrival order, counting each
/// on its tenant's ledger (the first one also sets the tenant's first
/// arrival). An arrival that finds `queue` holding [`ADMISSION_QUEUE_DEPTH`]
/// requests is counted as dropped there instead of queued.
fn admit_until(
    queue: &mut VecDeque<Queued>,
    source: &mut Prefetched<(usize, Access, Nanos)>,
    ledgers: &mut [TenantMetrics],
    t: Nanos,
) {
    while source.peek().is_some_and(|&(_, _, arrival)| arrival <= t) {
        let (tenant, access, arrival) = source.next().expect("peeked");
        let ledger = &mut ledgers[tenant];
        if ledger.arrivals == 0 {
            ledger.first_arrival = arrival;
        }
        ledger.arrivals += 1;
        if queue.len() < ADMISSION_QUEUE_DEPTH {
            queue.push_back(Queued {
                tenant,
                access,
                arrival,
            });
        } else {
            ledger.dropped += 1;
        }
    }
}

/// Runs one workload through the open-loop engine on one platform: a
/// one-tenant [`TenantSet`] of `spec` arriving by `config.arrivals`.
///
/// Request *i* of the trace arrives at instant *i* of the arrival schedule,
/// so open-loop and closed-loop runs of the same [`ScaleProfile`] serve
/// exactly the same accesses in the same FIFO order — only the dispatch
/// instants differ.
///
/// # Panics
///
/// Panics when the platform violates the batch contract (wrong outcome
/// count) or the config fails [`ArrivalProcess::validate`].
pub fn run_workload_open_loop(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
    config: &OpenLoopConfig,
) -> OpenLoopMetrics {
    let set = TenantSet::single(spec.name, spec, config.arrivals);
    run_open_loop(platform, &set, scale, config, ()).merged
}

/// [`run_workload_open_loop`] with telemetry collection: per-request
/// sojourn and admission-wait spans, a recording sink on the platform for
/// the controller-side layers, and per-batch registry samples (admission
/// queue depth, served/dropped counters, platform gauges). Observation only
/// — the returned metrics are byte-identical to the untraced run.
pub fn run_workload_open_loop_traced(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
    config: &OpenLoopConfig,
    telemetry: &mut RunTelemetry,
) -> OpenLoopMetrics {
    let set = TenantSet::single(spec.name, spec, config.arrivals);
    run_open_loop(platform, &set, scale, config, Tracer::new(telemetry)).merged
}

/// Runs a [`TenantSet`] through the open-loop engine on one platform: the
/// tenants' seeded arrival streams are merged into one time-ordered source
/// (ties broken by tenant index) feeding one bounded admission queue and
/// FIFO batch dispatch.
///
/// `config.arrivals` is ignored — each tenant's own [`ArrivalProcess`]
/// drives its stream; the histogram and record settings apply to the
/// shared platform boundary. The merged totals are derived from the tenant
/// ledgers (`tests/tenant_equivalence.rs`).
///
/// # Panics
///
/// Panics when the set fails [`TenantSet::validate`] or the platform
/// violates the batch contract.
pub fn run_tenant_set_open_loop(
    platform: &mut dyn Platform,
    set: &TenantSet,
    scale: &ScaleProfile,
    config: &OpenLoopConfig,
) -> MultiTenantMetrics {
    run_open_loop(platform, set, scale, config, ())
}

/// [`run_tenant_set_open_loop`] with telemetry collection — the
/// multi-tenant analogue of [`run_workload_open_loop_traced`]. Spans carry
/// the issuing tenant's index and the registry gains one
/// `tenant{i}_dropped` counter per tenant. Observation only.
pub fn run_tenant_set_open_loop_traced(
    platform: &mut dyn Platform,
    set: &TenantSet,
    scale: &ScaleProfile,
    config: &OpenLoopConfig,
    telemetry: &mut RunTelemetry,
) -> MultiTenantMetrics {
    run_open_loop(platform, set, scale, config, Tracer::new(telemetry))
}

/// The open-loop engine behind all four entry points: the set's merged
/// `(tenant, access, arrival)` stream through the admission queue and FIFO
/// batch dispatch, counted on one ledger per tenant.
///
/// The source is built here, on the calling thread, so an invalid set
/// panics where it always did; [`prefetch`] then runs it on its producer
/// thread, which yields exactly what [`TenantSource`] yields.
fn run_open_loop<O: Observer>(
    platform: &mut dyn Platform,
    set: &TenantSet,
    scale: &ScaleProfile,
    config: &OpenLoopConfig,
    mut observer: O,
) -> MultiTenantMetrics {
    let scaled: Vec<WorkloadSpec> = set
        .tenants
        .iter()
        .map(|t| scale.scale_spec(t.spec))
        .collect();
    let source = TenantSource::new(set, &scaled, scale.seed, scale.accesses);
    let expected = set.total_accesses(scale.accesses);
    observer.start(platform);
    let mut fold = MetricsFold::new();
    let buckets = config.sojourn_buckets.max(1);
    let mut ledgers: Vec<TenantMetrics> = set
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantMetrics {
            tenant: i,
            name: t.name.clone(),
            weight: t.weight,
            offered_rate_per_sec: t.arrivals.mean_rate_per_sec(),
            arrivals: 0,
            served: 0,
            dropped: 0,
            first_arrival: Nanos::ZERO,
            last_finish: Nanos::ZERO,
            sojourn: Histogram::new(config.sojourn_bucket, buckets),
        })
        .collect();
    let mut records = Vec::with_capacity(if config.keep_records { expected } else { 0 });
    // The admission queue never holds more than the run's `expected`
    // requests, so that bounds its up-front reservation.
    let mut queue = VecDeque::with_capacity(ADMISSION_QUEUE_DEPTH.min(expected).max(1));

    let cap = DEFAULT_BATCH_SIZE.min(expected.max(1));
    let mut batch: Vec<BatchRequest> = Vec::with_capacity(cap);
    let mut meta: Vec<(usize, Nanos)> = Vec::with_capacity(cap);
    let mut out = BatchOutcome::with_capacity(cap);
    // The instant the platform finished its last dispatched batch; it sits
    // idle from here until the next dispatch.
    let mut server_free = Nanos::ZERO;

    prefetch(source, |source| loop {
        // Catch the queue up to the server's clock, then — if it is idle and
        // empty — jump it forward to the next arrival. Every arrival up to
        // the dispatch instant below is then admitted or dropped.
        admit_until(&mut queue, source, &mut ledgers, server_free);
        if queue.is_empty() {
            let Some(&(_, _, next_arrival)) = source.peek() else {
                break;
            };
            admit_until(&mut queue, source, &mut ledgers, next_arrival);
        }

        // FIFO dispatch: the batch starts when the server is free and its
        // head request has arrived.
        let start = server_free.max(queue.front().expect("non-empty").arrival);

        batch.clear();
        meta.clear();
        while batch.len() < DEFAULT_BATCH_SIZE {
            let Some(q) = queue.pop_front() else {
                break;
            };
            // Compute phases are priced in dispatch order, which is trace
            // order (FIFO admission of a zipped stream), so the CPU model
            // sees exactly the closed-loop instruction sequence.
            let compute = fold.cpu.retire(q.access.compute_instructions + 1);
            batch.push(BatchRequest {
                access: q.access,
                compute,
            });
            meta.push((q.tenant, q.arrival));
        }

        platform.serve_batch_into(&batch, start, &mut out);
        assert_eq!(
            out.outcomes.len(),
            batch.len(),
            "{} returned {} outcomes for an open-loop batch of {}",
            platform.name(),
            out.outcomes.len(),
            batch.len()
        );

        let mut ready = start;
        for ((request, outcome), &(tenant, arrival)) in batch.iter().zip(&out.outcomes).zip(&meta) {
            fold.fold(ready, request.compute, outcome);
            let record = OpenLoopRecord {
                tenant,
                arrival,
                started: ready,
                finished: outcome.finished_at,
            };
            let ledger = &mut ledgers[tenant];
            ledger.served += 1;
            ledger.last_finish = ledger.last_finish.max(record.finished);
            ledger.sojourn.record(record.sojourn());
            observer.request(request, &record);
            if config.keep_records {
                records.push(record);
            }
            ready = outcome.finished_at;
        }
        server_free = out.finished_at(start);
        observer.dispatch(platform, server_free, queue.len(), &ledgers);
    });

    observer.finish(platform);
    let total = |count: fn(&TenantMetrics) -> u64| ledgers.iter().map(count).sum::<u64>();
    let (arrivals, served, dropped) = (
        total(|t| t.arrivals),
        total(|t| t.served),
        total(|t| t.dropped),
    );
    debug_assert_eq!(arrivals, served + dropped);
    let mut sojourn = Histogram::new(config.sojourn_bucket, buckets);
    for ledger in &ledgers {
        sojourn.merge(&ledger.sojourn);
    }
    let mut run = fold.finish(platform, set.tenants[0].spec, scaled[0]);
    if set.len() > 1 {
        // The fold labelled and byte-accounted the run with tenant 0's spec,
        // which is exact for one tenant; for a mixed set, re-derive both
        // from what was actually served.
        run.workload = set.workload_label();
        let secs = run.total_time.as_secs_f64().max(1e-12);
        let bytes: u64 = ledgers
            .iter()
            .zip(&scaled)
            .map(|(t, s)| t.served * s.access_bytes)
            .sum();
        run.pages_per_sec = bytes as f64 / 4096.0 / secs;
    }
    let merged = OpenLoopMetrics {
        run,
        offered_rate_per_sec: set.offered_rate_per_sec(),
        arrivals,
        served,
        dropped,
        first_arrival: ledgers
            .iter()
            .filter(|t| t.arrivals > 0)
            .map(|t| t.first_arrival)
            .min()
            .unwrap_or(Nanos::ZERO),
        last_finish: ledgers
            .iter()
            .map(|t| t.last_finish)
            .max()
            .unwrap_or(Nanos::ZERO),
        sojourn,
        records,
    };
    MultiTenantMetrics {
        merged,
        tenants: ledgers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::AccessOutcome;
    use crate::runner::{run_workload_serial, PlatformKind};
    use hams_energy::EnergyAccount;
    use hams_telemetry::Layer;
    use hams_workloads::TenantSpec;

    fn tiny_scale() -> ScaleProfile {
        ScaleProfile {
            capacity_divisor: 2048,
            accesses: 1_200,
            seed: 17,
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec::by_name("rndRd").unwrap()
    }

    /// Every request arrives at t = 0.
    fn saturate() -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            ..OpenLoopConfig::poisson(1.0)
        }
    }

    #[test]
    fn degenerate_open_loop_matches_serial_on_hams_te() {
        let scale = tiny_scale();
        let mut serial = PlatformKind::HamsTE.build(&scale);
        let mut open = PlatformKind::HamsTE.build(&scale);
        let reference = run_workload_serial(serial.as_mut(), spec(), &scale);
        let ol = run_workload_open_loop(open.as_mut(), spec(), &scale, &saturate());
        assert_eq!(ol.run, reference);
        assert_eq!(ol.served, scale.accesses as u64);
        assert_eq!(ol.dropped, 0);
    }

    #[test]
    fn the_production_queue_admits_4096_and_drops_the_rest_from_the_later_tenant() {
        // fig24–fig26 and perfbench admit through this queue.
        assert_eq!(ADMISSION_QUEUE_DEPTH, 4096);
        // Two saturating tenants offer 4,296 requests, all at t = 0. The
        // merge breaks the ties toward tenant 0, so all 4,000 of its
        // requests are admitted first, then 96 of tenant 1's; the first
        // catch-up drops the other 200.
        let scale = tiny_scale();
        let set = TenantSet::new(vec![
            TenantSpec::new("first", spec(), ArrivalProcess::Saturate).with_accesses(4_000),
            TenantSpec::new(
                "second",
                WorkloadSpec::by_name("update").unwrap(),
                ArrivalProcess::Saturate,
            )
            .with_accesses(296),
        ]);
        let mut p = PlatformKind::Oracle.build(&scale);
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &saturate());
        let merged = &m.merged;
        assert_eq!(
            (merged.arrivals, merged.served, merged.dropped),
            (4_296, 4_096, 200)
        );
        let counts: Vec<(u64, u64, u64)> = m
            .tenants
            .iter()
            .map(|t| (t.arrivals, t.served, t.dropped))
            .collect();
        assert_eq!(counts, [(4_000, 4_000, 0), (296, 96, 200)]);
        for (i, t) in m.tenants.iter().enumerate() {
            assert_eq!(t.arrivals, t.served + t.dropped, "{}", t.name);
            assert_eq!(t.sojourn.count(), t.served, "{}", t.name);
            let recorded = merged.records.iter().filter(|r| r.tenant == i).count();
            assert_eq!(recorded as u64, t.served, "{}", t.name);
        }
        assert_eq!(merged.sojourn.count(), merged.served);
    }

    /// A platform that breaks the batch contract: it serves each batch
    /// through the platform it wraps, then drops the last outcome.
    struct ShortChanging(Box<dyn Platform>);

    impl Platform for ShortChanging {
        fn name(&self) -> &str {
            "short-changing"
        }

        fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
            self.0.access(access, now)
        }

        fn serve_batch_into(
            &mut self,
            batch: &[BatchRequest],
            start: Nanos,
            out: &mut BatchOutcome,
        ) {
            self.0.serve_batch_into(batch, start, out);
            out.outcomes.pop();
        }

        fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
            self.0.device_energy(elapsed)
        }

        fn is_persistent(&self) -> bool {
            self.0.is_persistent()
        }
    }

    #[test]
    #[should_panic(expected = "short-changing returned 0 outcomes for an open-loop batch of 1")]
    fn a_platform_short_of_one_outcome_panics_without_hanging() {
        // Far more requests than the generator runs ahead, so it is blocked
        // on its full channel when the first batch's contract check fires;
        // the test returning at all shows the unwind released it. Poisson
        // gaps are at least 1 ns, so the first batch is the first arrival
        // alone and the rest of the stream stays in the channel.
        let scale = ScaleProfile {
            capacity_divisor: 2048,
            accesses: 20_000,
            seed: 3,
        };
        let config = OpenLoopConfig::poisson(1_000_000_000.0).with_records(false);
        let mut p = ShortChanging(PlatformKind::Oracle.build(&scale));
        let _ = run_workload_open_loop(&mut p, spec(), &scale, &config);
    }
    #[test]
    fn a_set_offering_no_requests_serves_nothing_and_returns() {
        let scale = tiny_scale();
        let set = TenantSet::new(vec![
            TenantSpec::new(
                "quiet",
                spec(),
                ArrivalProcess::Poisson {
                    rate_per_sec: 1_000_000.0,
                },
            )
            .with_accesses(0),
            TenantSpec::new(
                "silent",
                WorkloadSpec::by_name("update").unwrap(),
                ArrivalProcess::Saturate,
            )
            .with_accesses(0),
        ]);
        let mut p = PlatformKind::HamsTE.build(&scale);
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &OpenLoopConfig::poisson(1.0));
        let merged = &m.merged;
        assert_eq!((merged.arrivals, merged.served, merged.dropped), (0, 0, 0));
        assert!(merged.records.is_empty());
        assert_eq!(merged.sojourn.count(), 0);
        assert_eq!(
            (merged.first_arrival, merged.last_finish),
            (Nanos::ZERO, Nanos::ZERO)
        );
        assert_eq!(merged.run.total_time, Nanos::ZERO);
        for t in &m.tenants {
            assert_eq!((t.arrivals, t.served, t.dropped), (0, 0, 0));
            assert_eq!(t.sojourn.count(), 0);
        }
    }

    #[test]
    fn merged_totals_are_derived_from_the_ledgers_past_a_silent_tenant() {
        // Tenant 0 offers nothing, so its ledger's zero first arrival must
        // not become the merged one. Nothing is dropped at this load, so the
        // records see every request and are an independent oracle.
        let scale = tiny_scale();
        let poisson = |rate_per_sec| ArrivalProcess::Poisson { rate_per_sec };
        let set = TenantSet::new(vec![
            TenantSpec::new("silent", spec(), poisson(1_000_000.0)).with_accesses(0),
            TenantSpec::new("reader", spec(), poisson(300_000.0)),
            TenantSpec::new(
                "writer",
                WorkloadSpec::by_name("update").unwrap(),
                poisson(600_000.0),
            ),
        ]);
        let mut p = PlatformKind::HamsTE.build(&scale);
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &OpenLoopConfig::poisson(1.0));
        let merged = &m.merged;
        assert_eq!(merged.dropped, 0);
        assert_eq!(merged.records.len() as u64, merged.served);
        let first = merged.records.iter().map(|r| r.arrival).min().unwrap();
        let last = merged.records.iter().map(|r| r.finished).max().unwrap();
        assert!(!first.is_zero());
        assert_eq!((merged.first_arrival, merged.last_finish), (first, last));
        let mut sojourn = Histogram::new(Nanos::from_nanos(256), 65_536);
        for r in &merged.records {
            sojourn.record(r.sojourn());
        }
        assert_eq!(merged.sojourn, sojourn);
    }

    #[test]
    fn record_retention_is_opt_in_with_an_exact_histogram_either_way() {
        let scale = tiny_scale();
        let config = OpenLoopConfig::poisson(2_000_000.0);
        let mut with = PlatformKind::HamsTE.build(&scale);
        let mut without = PlatformKind::HamsTE.build(&scale);
        let kept = run_workload_open_loop(with.as_mut(), spec(), &scale, &config);
        let dropped = run_workload_open_loop(
            without.as_mut(),
            spec(),
            &scale,
            &config.with_records(false),
        );
        assert!(!kept.records.is_empty());
        assert!(dropped.records.is_empty());
        assert_eq!(kept.run, dropped.run);
        assert_eq!(kept.sojourn, dropped.sojourn);
        assert_eq!(kept.served, dropped.served);
        assert_eq!(kept.sojourn.count(), kept.served);
        assert_eq!(kept.first_arrival, dropped.first_arrival);
        assert_eq!(kept.last_finish, dropped.last_finish);
        assert!((kept.achieved_per_sec() - dropped.achieved_per_sec()).abs() < 1e-9);
    }

    #[test]
    fn achieved_rate_uses_the_simulated_wall_span() {
        let scale = tiny_scale();
        let mut p = PlatformKind::Oracle.build(&scale);
        let m = run_workload_open_loop(
            p.as_mut(),
            spec(),
            &scale,
            &OpenLoopConfig::poisson(1_000_000.0),
        );
        // Poisson arrivals start after the first exponential gap, so the
        // wall span is strictly inside the fold's span-from-zero.
        assert!(!m.first_arrival.is_zero());
        assert_eq!(m.last_finish, m.run.total_time);
        assert_eq!(m.wall_span(), m.last_finish.saturating_sub(m.first_arrival));
        let expected = m.served as f64 / m.wall_span().as_secs_f64();
        assert!((m.achieved_per_sec() - expected).abs() < 1e-6);
    }

    #[test]
    fn sojourn_decomposes_into_wait_plus_service() {
        let scale = tiny_scale();
        let mut p = PlatformKind::Oracle.build(&scale);
        let m = run_workload_open_loop(
            p.as_mut(),
            spec(),
            &scale,
            &OpenLoopConfig::poisson(2_000_000.0),
        );
        for r in &m.records {
            assert!(r.arrival <= r.started);
            assert!(r.started <= r.finished);
            assert_eq!(r.sojourn(), r.queue_wait() + r.service());
            assert_eq!(r.tenant, 0);
        }
    }

    #[test]
    fn light_load_leaves_the_server_idle_between_arrivals() {
        let scale = ScaleProfile {
            capacity_divisor: 2048,
            accesses: 300,
            seed: 9,
        };
        // 1000 req/s against a microsecond-scale service time: every request
        // should find an empty queue and wait for nothing.
        let mut p = PlatformKind::Oracle.build(&scale);
        let m = run_workload_open_loop(
            p.as_mut(),
            spec(),
            &scale,
            &OpenLoopConfig::poisson(1_000.0),
        );
        assert_eq!(m.dropped, 0);
        let waited = m
            .records
            .iter()
            .filter(|r| !r.queue_wait().is_zero())
            .count();
        assert!(
            waited * 10 < m.records.len(),
            "{waited} of {} underloaded requests queued",
            m.records.len()
        );
        // Total time spans the arrival schedule, not just the service time.
        assert!(m.run.total_time >= m.records.last().unwrap().arrival);
    }

    #[test]
    fn traced_open_loop_is_byte_identical_and_covers_the_admission_layer() {
        let scale = tiny_scale();
        let config = OpenLoopConfig::poisson(2_000_000.0);
        let mut plain = PlatformKind::HamsTE.build(&scale);
        let mut traced = PlatformKind::HamsTE.build(&scale);
        let reference = run_workload_open_loop(plain.as_mut(), spec(), &scale, &config);
        let mut telemetry = RunTelemetry::new();
        let m =
            run_workload_open_loop_traced(traced.as_mut(), spec(), &scale, &config, &mut telemetry);
        assert_eq!(reference, m, "tracing changed the open-loop metrics");
        let counts = telemetry.layer_counts();
        assert_eq!(counts[Layer::Request.index()], m.served);
        assert!(counts[Layer::Admission.index()] >= m.served);
        assert!(counts[Layer::Controller.index()] > 0);
        assert!(telemetry.registry.get("admission_queue_depth").is_some());
        assert!(telemetry.registry.get("tenant0_dropped").is_some());
        let served = telemetry.registry.get("requests_served").unwrap();
        assert_eq!(served.last_value(), Some(m.served as f64));
    }

    #[test]
    fn traced_tenant_set_tags_spans_and_counts_per_tenant_drops() {
        let scale = tiny_scale();
        let set = TenantSet::new(vec![
            TenantSpec::new(
                "a",
                spec(),
                ArrivalProcess::Poisson {
                    rate_per_sec: 500_000.0,
                },
            ),
            TenantSpec::new(
                "b",
                WorkloadSpec::by_name("update").unwrap(),
                ArrivalProcess::Poisson {
                    rate_per_sec: 5_000_000.0,
                },
            ),
        ]);
        let config = OpenLoopConfig::poisson(1.0);
        let mut plain = PlatformKind::HamsTE.build(&scale);
        let mut traced = PlatformKind::HamsTE.build(&scale);
        let reference = run_tenant_set_open_loop(plain.as_mut(), &set, &scale, &config);
        let mut telemetry = RunTelemetry::new();
        let m =
            run_tenant_set_open_loop_traced(traced.as_mut(), &set, &scale, &config, &mut telemetry);
        assert_eq!(reference, m, "tracing changed the multi-tenant metrics");
        let tagged: Vec<u16> = telemetry
            .recorder
            .spans()
            .filter(|s| s.layer == Layer::Request)
            .filter_map(|s| s.tenant)
            .collect();
        assert!(tagged.contains(&0) && tagged.contains(&1));
        assert!(telemetry.registry.get("tenant0_dropped").is_some());
        assert!(telemetry.registry.get("tenant1_dropped").is_some());
        let d1 = telemetry.registry.get("tenant1_dropped").unwrap();
        assert_eq!(d1.last_value(), Some(m.tenants[1].dropped as f64));
    }

    #[test]
    fn two_tenant_accounting_closes_and_fairness_is_bounded() {
        let scale = tiny_scale();
        let set = TenantSet::new(vec![
            TenantSpec::new(
                "victim",
                spec(),
                ArrivalProcess::Poisson {
                    rate_per_sec: 500_000.0,
                },
            ),
            TenantSpec::new(
                "antagonist",
                WorkloadSpec::by_name("update").unwrap(),
                ArrivalProcess::Poisson {
                    rate_per_sec: 5_000_000.0,
                },
            )
            .with_weight(2.0),
        ]);
        let mut p = PlatformKind::HamsTE.build(&scale);
        let config = OpenLoopConfig::poisson(1.0);
        let m = run_tenant_set_open_loop(p.as_mut(), &set, &scale, &config);
        assert_eq!(m.tenants.len(), 2);
        let sum = |f: fn(&TenantMetrics) -> u64| m.tenants.iter().map(f).sum::<u64>();
        assert_eq!(sum(|t| t.arrivals), m.merged.arrivals);
        assert_eq!(sum(|t| t.served), m.merged.served);
        assert_eq!(sum(|t| t.dropped), m.merged.dropped);
        for t in &m.tenants {
            assert_eq!(t.arrivals, t.served + t.dropped);
            assert_eq!(t.arrivals, scale.accesses as u64);
            assert_eq!(t.sojourn.count(), t.served);
        }
        let fairness = m.fairness();
        assert!(fairness > 0.0 && fairness <= 1.0 + 1e-12);
        assert_eq!(m.merged.run.workload, "rndRd+update");
        assert!(m.tenant("victim").is_some());
        assert!(m.tenant("nobody").is_none());
        // Records carry the issuing tenant.
        assert!(m.merged.records.iter().any(|r| r.tenant == 1));
    }
}
