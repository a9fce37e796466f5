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
//! requests *arrive*, a bounded admission queue of configurable depth holds
//! them at the platform boundary (dropping or back-pressuring when full),
//! and the platform serves FIFO batches through the same
//! [`Platform::serve_batch_into`] hot path as closed-loop replay. Each served
//! request records arrival → enqueue → dispatch → finish timestamps, and the
//! sojourn time (finish − arrival) feeds a [`Histogram`] for p50/p99/p999
//! reporting.
//!
//! Every run is a [`TenantSet`] served through one engine. Its merged,
//! time-ordered request stream ([`TenantSource`]) feeds one admission queue
//! and one platform: N independent clients, each with its own workload,
//! arrival process and QoS weight — the harness for noisy-neighbour
//! interference studies (`fig25`). The tenant id is threaded through
//! [`OpenLoopRecord`], and every request is also accounted to its tenant's
//! own sojourn histogram and arrival/served/dropped counters.
//! [`run_workload_open_loop`] is the one-tenant set of its workload and
//! arrival process.
//!
//! At arrival-rate → ∞ ([`ArrivalProcess::Saturate`]) with a depth-1
//! blocking queue and batch size 1, every dispatch instant equals the
//! previous finish — exactly the closed-loop serial schedule — so
//! [`run_workload_open_loop`] must produce [`RunMetrics`] byte-identical to
//! [`crate::run_workload_serial`] (`tests/openloop_equivalence.rs`). Per-tenant
//! counters always sum exactly to the merged totals
//! (`tests/tenant_equivalence.rs`).

use hams_sim::{Histogram, Nanos};
use hams_telemetry::RunTelemetry;
use hams_workloads::{Access, ArrivalProcess, TenantSet, TenantSource, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::observe::{Observer, Tracer};
use crate::platform::{BatchOutcome, BatchRequest, Platform};
use crate::runner::{MetricsFold, RunMetrics, ScaleProfile, DEFAULT_BATCH_SIZE};

/// What the admission queue does with an arrival that finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Reject the request; it is counted in
    /// [`OpenLoopMetrics::dropped`] and never reaches the platform.
    Drop,
    /// Hold the request at the door until a slot frees (the client blocks);
    /// its enqueue timestamp becomes the instant the slot freed.
    Block,
}

/// Configuration of one open-loop run: the arrival process plus the
/// admission-queue and histogram knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// When requests arrive. Ignored by [`run_tenant_set_open_loop`], where
    /// each tenant's own [`ArrivalProcess`] drives its stream.
    pub arrivals: ArrivalProcess,
    /// Maximum number of requests waiting at the platform boundary.
    pub queue_depth: usize,
    /// What happens to an arrival that finds the queue full.
    pub policy: AdmissionPolicy,
    /// Requests dispatched to [`Platform::serve_batch_into`] per call
    /// (capped by what is queued; `0` is treated as `1`).
    pub batch_size: usize,
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
    /// A Poisson run at `rate_per_sec` with production-flavoured defaults:
    /// a deep dropping queue and a 256 ns × 65 536-bucket sojourn histogram
    /// (~16.8 ms of range before the overflow bucket's true-max tracking
    /// takes over).
    #[must_use]
    pub fn poisson(rate_per_sec: f64) -> Self {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            queue_depth: 4096,
            policy: AdmissionPolicy::Drop,
            batch_size: DEFAULT_BATCH_SIZE,
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 65_536,
            keep_records: true,
        }
    }

    /// The degenerate configuration that reproduces closed-loop serial
    /// serving: all arrivals at t = 0, one slot, blocking admission, batch
    /// size 1. Pinned byte-identical to [`crate::run_workload_serial`].
    #[must_use]
    pub fn degenerate_serial() -> Self {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            queue_depth: 1,
            policy: AdmissionPolicy::Block,
            batch_size: 1,
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 65_536,
            keep_records: true,
        }
    }

    /// Returns a copy with a different arrival process.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Returns a copy with a different queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns a copy with a different admission policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with per-request record retention switched on or off.
    #[must_use]
    pub fn with_records(mut self, keep: bool) -> Self {
        self.keep_records = keep;
        self
    }
}

/// The life of one served request, as the four instants the engine records,
/// tagged with the tenant that issued it (0 for single-tenant runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenLoopRecord {
    /// Index of the issuing tenant in its [`TenantSet`] (always 0 for
    /// [`run_workload_open_loop`]).
    pub tenant: usize,
    /// When the request arrived at the platform boundary.
    pub arrival: Nanos,
    /// When it entered the admission queue (equals `arrival` unless a
    /// blocking queue held it at the door).
    pub enqueued: Nanos,
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

    /// Time spent waiting before dispatch (door plus queue).
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
    /// Requests rejected by a full [`AdmissionPolicy::Drop`] queue.
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

    /// Fraction of arrivals that were dropped.
    #[must_use]
    pub fn drop_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dropped as f64 / self.arrivals as f64
        }
    }

    /// The sojourn percentiles the paper-style tail report uses:
    /// (p50, p99, p999). `None` entries mean no request was served.
    #[must_use]
    pub fn sojourn_p50_p99_p999(&self) -> [Option<Nanos>; 3] {
        let ps = self.sojourn.percentiles(&[50.0, 99.0, 99.9]);
        [ps[0], ps[1], ps[2]]
    }
}

/// One tenant's share of a multi-tenant open-loop run.
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

    /// Fraction of this tenant's arrivals that were dropped.
    #[must_use]
    pub fn drop_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dropped as f64 / self.arrivals as f64
        }
    }

    /// This tenant's (p50, p99, p999) sojourn percentiles.
    #[must_use]
    pub fn sojourn_p50_p99_p999(&self) -> [Option<Nanos>; 3] {
        let ps = self.sojourn.percentiles(&[50.0, 99.0, 99.9]);
        [ps[0], ps[1], ps[2]]
    }
}

/// A multi-tenant open-loop run: the merged-stream metrics plus one
/// [`TenantMetrics`] per tenant. Per-tenant arrivals/served/dropped always
/// sum exactly to the merged totals (pinned in
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
    enqueued: Nanos,
}

/// The bounded FIFO between the arrival streams and the platform.
///
/// `door` models [`AdmissionPolicy::Block`]: the one client the full queue is
/// back-pressuring. While it is occupied no later arrival can be admitted
/// (open-loop clients are independent, but admission is a single FIFO door),
/// which is exactly the head-of-line blocking a bounded listen queue shows.
/// Arrival, drop and first-arrival accounting is kept per tenant; merged
/// totals are the exact sums.
#[derive(Debug)]
struct AdmissionQueue {
    depth: usize,
    policy: AdmissionPolicy,
    queue: VecDeque<Queued>,
    door: Option<(usize, Access, Nanos)>,
    /// Per-tenant count of requests pulled off the arrival streams.
    arrivals: Vec<u64>,
    /// Per-tenant count of requests rejected by a full dropping queue.
    dropped: Vec<u64>,
    /// Per-tenant first arrival instant.
    first_arrival: Vec<Option<Nanos>>,
    /// The instant the most recent blocked client got its slot; later
    /// arrivals cannot have enqueued before it.
    unblocked_at: Nanos,
}

impl AdmissionQueue {
    /// A queue admitting up to `depth` requests. It never holds more than
    /// the run's `expected` requests, so that bounds the up-front
    /// reservation: an unbounded `depth` (`usize::MAX`) allocates nothing
    /// extra.
    fn new(depth: usize, policy: AdmissionPolicy, tenant_count: usize, expected: usize) -> Self {
        AdmissionQueue {
            depth: depth.max(1),
            policy,
            queue: VecDeque::with_capacity(depth.min(expected).max(1)),
            door: None,
            arrivals: vec![0; tenant_count],
            dropped: vec![0; tenant_count],
            first_arrival: vec![None; tenant_count],
            unblocked_at: Nanos::ZERO,
        }
    }

    /// Admits every arrival with instant ≤ `t`, in arrival order, applying
    /// the overflow policy. The blocked door client (if any) is first in
    /// line and enqueues at `t` itself — the moment its slot freed. Callers
    /// must therefore invoke this at every instant a slot *actually* frees
    /// (in particular at batch dispatch, when `pop_front` empties slots),
    /// not only when the server goes idle.
    fn admit_until(&mut self, source: &mut TenantSource, t: Nanos) {
        loop {
            let (item, from_door) = if let Some(blocked) = self.door.take() {
                (blocked, true)
            } else if source.peek_arrival().is_some_and(|arrival| arrival <= t) {
                let item = source.next().expect("peeked");
                let (tenant, _, arrival) = item;
                self.arrivals[tenant] += 1;
                self.first_arrival[tenant].get_or_insert(arrival);
                (item, false)
            } else {
                return;
            };
            let (tenant, access, arrival) = item;
            if self.queue.len() < self.depth {
                if from_door {
                    self.unblocked_at = t;
                }
                self.queue.push_back(Queued {
                    tenant,
                    access,
                    arrival,
                    enqueued: arrival.max(self.unblocked_at),
                });
            } else {
                match self.policy {
                    AdmissionPolicy::Drop => self.dropped[tenant] += 1,
                    AdmissionPolicy::Block => {
                        self.door = Some(item);
                        return;
                    }
                }
            }
        }
    }
}

/// Per-tenant accumulators the serving loop maintains.
struct TenantAccum {
    served: u64,
    last_finish: Nanos,
    sojourn: Histogram,
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
/// drives its stream; the queue, batch and histogram knobs apply to the
/// shared platform boundary. Per-tenant counters always sum exactly to the
/// merged totals (`tests/tenant_equivalence.rs`).
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
/// batch dispatch.
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
    let mut source = TenantSource::new(set, &scaled, scale.seed, scale.accesses);
    let expected = set.total_accesses(scale.accesses);
    let batch_size = config.batch_size.max(1);
    observer.start(platform);
    let mut fold = MetricsFold::new();
    let buckets = config.sojourn_buckets.max(1);
    let mut sojourn = Histogram::new(config.sojourn_bucket, buckets);
    let mut tenants: Vec<TenantAccum> = (0..set.len())
        .map(|_| TenantAccum {
            served: 0,
            last_finish: Nanos::ZERO,
            sojourn: Histogram::new(config.sojourn_bucket, buckets),
        })
        .collect();
    let mut records = Vec::with_capacity(if config.keep_records { expected } else { 0 });
    let mut served = 0u64;
    let mut last_finish = Nanos::ZERO;

    let mut queue = AdmissionQueue::new(config.queue_depth, config.policy, set.len(), expected);

    let cap = batch_size.min(expected.max(1));
    let mut batch: Vec<BatchRequest> = Vec::with_capacity(cap);
    let mut meta: Vec<(usize, Nanos, Nanos)> = Vec::with_capacity(cap);
    let mut out = BatchOutcome::with_capacity(cap);
    // The instant the platform finished its last dispatched batch; it sits
    // idle from here until the next dispatch.
    let mut server_free = Nanos::ZERO;

    loop {
        // Catch the queue up to the server's clock, then — if it is idle and
        // empty — jump it forward to the next arrival.
        queue.admit_until(&mut source, server_free);
        if queue.queue.is_empty() {
            debug_assert!(
                queue.door.is_none(),
                "a blocked client implies a full queue"
            );
            let Some(next_arrival) = source.peek_arrival() else {
                break;
            };
            queue.admit_until(&mut source, server_free.max(next_arrival));
        }

        // FIFO dispatch: the batch starts when the server is free and its
        // head request is in the queue.
        let head_enqueued = queue.queue.front().expect("non-empty").enqueued;
        let start = server_free.max(head_enqueued);

        batch.clear();
        meta.clear();
        while batch.len() < batch_size {
            let Some(q) = queue.queue.pop_front() else {
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
            meta.push((q.tenant, q.arrival, q.enqueued));
        }
        // Dispatch freed queue slots *now*: a blocked door client gets its
        // slot — and its enqueue timestamp — at the dispatch instant, not
        // at the end of the batch it had to wait out. (Dispatch instants
        // are unaffected: `start` only ever grows past `server_free`, so
        // this earlier admission changes `enqueued` bookkeeping, never the
        // schedule.)
        queue.admit_until(&mut source, start);

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
        for ((request, outcome), &(tenant, arrival, enqueued)) in
            batch.iter().zip(&out.outcomes).zip(&meta)
        {
            fold.fold(ready, request.compute, outcome);
            let record = OpenLoopRecord {
                tenant,
                arrival,
                enqueued,
                started: ready,
                finished: outcome.finished_at,
            };
            sojourn.record(record.sojourn());
            served += 1;
            last_finish = last_finish.max(record.finished);
            let acc = &mut tenants[tenant];
            acc.served += 1;
            acc.last_finish = acc.last_finish.max(record.finished);
            acc.sojourn.record(record.sojourn());
            observer.request(request, &record);
            if config.keep_records {
                records.push(record);
            }
            ready = outcome.finished_at;
        }
        server_free = out.finished_at(start);
        observer.dispatch(
            platform,
            server_free,
            queue.queue.len(),
            served,
            &queue.dropped,
        );
    }

    let AdmissionQueue {
        arrivals,
        dropped,
        first_arrival,
        ..
    } = queue;
    let arrivals_total: u64 = arrivals.iter().sum();
    let dropped_total: u64 = dropped.iter().sum();
    debug_assert_eq!(arrivals_total, served + dropped_total);
    let first_arrival_merged = first_arrival
        .iter()
        .flatten()
        .copied()
        .min()
        .unwrap_or(Nanos::ZERO);
    observer.finish(platform);
    let mut run = fold.finish(platform, set.tenants[0].spec, scaled[0]);
    if set.len() > 1 {
        // The fold labelled and byte-accounted the run with tenant 0's spec,
        // which is exact for one tenant; for a mixed set, re-derive both
        // from what was actually served.
        run.workload = set.workload_label();
        let secs = run.total_time.as_secs_f64().max(1e-12);
        let bytes: u64 = tenants
            .iter()
            .zip(&scaled)
            .map(|(acc, s)| acc.served * s.access_bytes)
            .sum();
        run.pages_per_sec = bytes as f64 / 4096.0 / secs;
    }
    let merged = OpenLoopMetrics {
        run,
        offered_rate_per_sec: set.offered_rate_per_sec(),
        arrivals: arrivals_total,
        served,
        dropped: dropped_total,
        first_arrival: first_arrival_merged,
        last_finish,
        sojourn,
        records,
    };
    let tenants = set
        .tenants
        .iter()
        .zip(tenants)
        .enumerate()
        .map(|(i, (t, acc))| TenantMetrics {
            tenant: i,
            name: t.name.clone(),
            weight: t.weight,
            offered_rate_per_sec: t.arrivals.mean_rate_per_sec(),
            arrivals: arrivals[i],
            served: acc.served,
            dropped: dropped[i],
            first_arrival: first_arrival[i].unwrap_or(Nanos::ZERO),
            last_finish: acc.last_finish,
            sojourn: acc.sojourn,
        })
        .collect();
    MultiTenantMetrics { merged, tenants }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_workload_serial, PlatformKind};
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

    #[test]
    fn degenerate_open_loop_matches_serial_on_hams_te() {
        let scale = tiny_scale();
        let mut serial = PlatformKind::HamsTE.build(&scale);
        let mut open = PlatformKind::HamsTE.build(&scale);
        let reference = run_workload_serial(serial.as_mut(), spec(), &scale);
        let ol = run_workload_open_loop(
            open.as_mut(),
            spec(),
            &scale,
            &OpenLoopConfig::degenerate_serial(),
        );
        assert_eq!(ol.run, reference);
        assert_eq!(ol.served, scale.accesses as u64);
        assert_eq!(ol.dropped, 0);
    }

    #[test]
    fn drop_policy_accounts_every_arrival() {
        let scale = tiny_scale();
        let mut p = PlatformKind::Mmap.build(&scale);
        // Saturate + a shallow dropping queue: nearly everything past the
        // first window is rejected.
        let config = OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            queue_depth: 8,
            policy: AdmissionPolicy::Drop,
            batch_size: 4,
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 1024,
            keep_records: true,
        };
        let m = run_workload_open_loop(p.as_mut(), spec(), &scale, &config);
        assert_eq!(m.arrivals, scale.accesses as u64);
        assert_eq!(m.arrivals, m.served + m.dropped);
        assert!(m.dropped > 0, "a full dropping queue must drop");
        assert_eq!(m.served, m.records.len() as u64);
        assert_eq!(m.sojourn.count(), m.served);
    }

    #[test]
    fn block_policy_never_drops() {
        let scale = tiny_scale();
        let mut p = PlatformKind::Mmap.build(&scale);
        let config = OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            queue_depth: 3,
            policy: AdmissionPolicy::Block,
            batch_size: 2,
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 1024,
            keep_records: true,
        };
        let m = run_workload_open_loop(p.as_mut(), spec(), &scale, &config);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.served, scale.accesses as u64);
    }

    #[test]
    fn blocked_door_client_enqueues_at_the_dispatch_that_freed_its_slot() {
        // Saturate + Block with depth 2 and batch 2: requests 0 and 1 fill
        // the queue at t = 0 and request 2 blocks at the door. Its slot
        // frees when batch [0, 1] is *dispatched* (popped) at t = 0 — the
        // old engine only admitted it at the next admit_until(server_free),
        // the end of that batch, inflating its queue wait by one batch
        // service time.
        let scale = ScaleProfile {
            capacity_divisor: 2048,
            accesses: 6,
            seed: 5,
        };
        let config = OpenLoopConfig {
            arrivals: ArrivalProcess::Saturate,
            queue_depth: 2,
            policy: AdmissionPolicy::Block,
            batch_size: 2,
            sojourn_bucket: Nanos::from_nanos(256),
            sojourn_buckets: 1024,
            keep_records: true,
        };
        for kind in [PlatformKind::Oracle, PlatformKind::HamsTE] {
            let mut p = kind.build(&scale);
            let m = run_workload_open_loop(p.as_mut(), spec(), &scale, &config);
            assert_eq!(m.served, 6);
            let r = &m.records;
            // The door client of the first batch enqueues at that batch's
            // dispatch instant (t = 0 under saturation)...
            assert_eq!(
                r[2].enqueued,
                r[0].started,
                "{}: door client enqueued at {:?}, batch dispatched at {:?}",
                kind.label(),
                r[2].enqueued,
                r[0].started
            );
            // ...which is strictly before the batch finishes — the old
            // engine's (buggy) enqueue instant.
            assert!(
                r[2].enqueued < r[1].finished,
                "{}: door client's enqueue was deferred to the end of the batch",
                kind.label()
            );
            // Same for the door client displaced by the second batch.
            assert_eq!(r[4].enqueued, r[2].started, "{}", kind.label());
        }
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
            assert!(r.arrival <= r.enqueued);
            assert!(r.enqueued <= r.started);
            assert!(r.started <= r.finished);
            assert_eq!(r.sojourn(), r.queue_wait() + r.service());
            assert_eq!(r.tenant, 0);
        }
    }

    #[test]
    fn deeper_queue_drops_no_more() {
        let scale = tiny_scale();
        let base = OpenLoopConfig::poisson(50_000_000.0).with_queue_depth(4);
        let mut shallow = PlatformKind::Mmap.build(&scale);
        let s = run_workload_open_loop(shallow.as_mut(), spec(), &scale, &base);
        // `usize::MAX` is an unbounded queue: it must admit every arrival
        // without reserving `depth` slots up front.
        for depth in [4096, usize::MAX] {
            let mut deep = PlatformKind::Mmap.build(&scale);
            let config = base.with_queue_depth(depth);
            let d = run_workload_open_loop(deep.as_mut(), spec(), &scale, &config);
            assert!(
                d.dropped <= s.dropped,
                "deepening the queue to {depth} added drops ({} -> {})",
                s.dropped,
                d.dropped
            );
            if depth == usize::MAX {
                assert_eq!(d.served, scale.accesses as u64);
                assert_eq!(d.dropped, 0);
            }
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
        let config = OpenLoopConfig::poisson(1.0).with_queue_depth(64);
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
        let config = OpenLoopConfig::poisson(1.0).with_queue_depth(64);
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
