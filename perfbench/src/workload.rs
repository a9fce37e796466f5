//! The three benchmark workloads: their definitions, their untraced and
//! traced runs, and the simulated metrics each run reports.

use hams::core::{AttachMode, PersistMode};
use hams::energy::EnergyAccount;
use hams::platforms::{
    run_tenant_set_open_loop, run_tenant_set_open_loop_traced, run_workload, run_workload_traced,
    AccessOutcome, BatchOutcome, BatchRequest, HamsPlatform, MultiTenantMetrics, OpenLoopConfig,
    Platform, RunMetrics, ScaleProfile,
};
use hams::sim::{Histogram, LatencyVector, Nanos};
use hams::telemetry::RunTelemetry;
use hams::workloads::{Access, ArrivalProcess, TenantSet, TenantSpec, WorkloadSpec};

/// Capacities and datasets are 1/256 of full scale: a 32 MiB NVDIMM cache.
pub const CAPACITY_DIVISOR: u64 = 256;

/// Fixed absolute arrival rates of the open-loop tenants. They are part of
/// the workload's definition and are never recalibrated to the host or the
/// model: a change that moves the knee shows up as a longer tail, not as a
/// different offered load.
pub const VICTIM_RATE_PER_SEC: f64 = 30_000.0;
pub const ANTAGONIST_RATE_PER_SEC: f64 = 300_000.0;

/// How one workload drives the platform.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Closed loop: the next access issues when the previous one completes.
    Closed {
        persist: PersistMode,
        spec: &'static str,
    },
    /// Open loop on `hams-TE`: an `rndRd` victim and an `update` antagonist,
    /// each Poisson at its fixed rate, share one bounded Drop queue.
    Open,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Accesses per closed-loop session, or victim arrivals per open-loop
    /// session (the antagonist offers ten times as many, so both tenants
    /// span the same simulated interval).
    pub accesses: usize,
    /// Independent sessions per run, each on a fresh platform with its own
    /// derived seed; the simulated metrics pool them. A traced session must
    /// stay small enough to hold every span, so runs that need more samples
    /// to repeat across seeds pool more sessions: `hit-update`'s pages/s
    /// and energy, and the open loop's victim p999 (600k samples).
    pub sessions: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // 64 MiB of uniformly random 4 KiB accesses against the 32 MiB cache:
    // about half miss, so the NVMe engine, MSI, the archive and the SSD do
    // most of the work.
    Workload {
        name: "miss-rndrd",
        shape: Shape::Closed {
            persist: PersistMode::Extend,
            spec: "rndRd",
        },
        accesses: 80_000,
        sessions: 1,
    },
    // 64 B accesses, 85% of them to a hot 20% that fits in the cache: the
    // tag directory, the NVDIMM hit path and the persist gate do the work
    // while the archive is nearly idle.
    Workload {
        name: "hit-update",
        shape: Shape::Closed {
            persist: PersistMode::Persist,
            spec: "update",
        },
        accesses: 250_000,
        sessions: 4,
    },
    // Arrival generation, the tenant merge, admission and the sojourn
    // histogram only work here; reads and writes interleave on one
    // controller, so lengthened queueing shows in the victim's tail.
    Workload {
        name: "mixed-openloop",
        shape: Shape::Open,
        accesses: 30_000,
        sessions: 20,
    },
];

/// The outcome of one session, exactly as the library returns it.
#[derive(Debug, Clone)]
pub enum Outcome {
    Closed(RunMetrics),
    Open(MultiTenantMetrics),
}

/// Inputs built before the first access is served: the platform, and for
/// the open loop the tenant set.
pub struct Prepared {
    pub platform: HamsPlatform,
    set: Option<TenantSet>,
}

/// What one session reports on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// FNV-1a hash of the session's `Debug` output (per-request records
    /// left out): equal hashes mean byte-identical simulated results.
    pub fingerprint: u64,
    pub arrivals: u64,
    pub served: u64,
    pub dropped: u64,
    /// Simulated duration, and pages and energy over it.
    pub seconds: f64,
    pub pages: f64,
    pub energy_j: f64,
    /// Whether per-tenant arrivals, served and dropped sum to the merged
    /// totals (trivially true for a closed loop).
    pub tenant_sums_hold: bool,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scale profile of session `session`: session 0 runs on `seed`
    /// itself, later sessions on seeds split off it.
    pub fn scale(&self, seed: u64, session: usize) -> ScaleProfile {
        ScaleProfile {
            capacity_divisor: CAPACITY_DIVISOR,
            accesses: self.accesses,
            seed: seed.wrapping_add((session as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Requests offered per session: accesses, or arrivals of both tenants.
    pub fn offered(&self) -> u64 {
        match self.shape {
            Shape::Closed { .. } => self.accesses as u64,
            Shape::Open => self.tenant_set().total_accesses(self.accesses) as u64,
        }
    }

    fn persist(&self) -> PersistMode {
        match self.shape {
            Shape::Closed { persist, .. } => persist,
            Shape::Open => PersistMode::Extend,
        }
    }

    /// The closed-loop workload spec; `None` for the open loop.
    pub fn spec(&self) -> Option<WorkloadSpec> {
        match self.shape {
            Shape::Closed { spec, .. } => Some(table3(spec)),
            Shape::Open => None,
        }
    }

    pub fn tenant_set(&self) -> TenantSet {
        let tenant = |name: &str, spec: &str, rate_per_sec: f64, accesses: usize| {
            TenantSpec::new(name, table3(spec), ArrivalProcess::Poisson { rate_per_sec })
                .with_accesses(accesses)
        };
        TenantSet::new(vec![
            tenant("victim", "rndRd", VICTIM_RATE_PER_SEC, self.accesses),
            tenant(
                "antagonist",
                "update",
                ANTAGONIST_RATE_PER_SEC,
                10 * self.accesses,
            ),
        ])
    }

    /// The shared admission boundary: a 4096-deep Drop queue and a
    /// 256 ns x 65 536-bucket sojourn histogram (the per-tenant arrival
    /// processes override the config's own).
    pub fn open_config(keep_records: bool) -> OpenLoopConfig {
        OpenLoopConfig::poisson(VICTIM_RATE_PER_SEC).with_records(keep_records)
    }

    /// Builds everything a session needs before its first access; the host
    /// time this takes is the benchmark's set-up time.
    pub fn prepare(&self, scale: &ScaleProfile) -> Prepared {
        Prepared {
            platform: HamsPlatform::scaled(AttachMode::Tight, self.persist(), scale.cache_bytes()),
            set: matches!(self.shape, Shape::Open).then(|| self.tenant_set()),
        }
    }

    /// The untraced session: `run_workload` or `run_tenant_set_open_loop`.
    pub fn run(&self, p: &mut Prepared, scale: &ScaleProfile) -> Outcome {
        self.run_with(p, scale, false)
    }

    fn run_with(&self, p: &mut Prepared, scale: &ScaleProfile, keep_records: bool) -> Outcome {
        match (self.spec(), &p.set) {
            (Some(spec), _) => Outcome::Closed(run_workload(&mut p.platform, spec, scale)),
            (None, Some(set)) => Outcome::Open(run_tenant_set_open_loop(
                &mut p.platform,
                set,
                scale,
                &Self::open_config(keep_records),
            )),
            (None, None) => unreachable!("open-loop inputs are prepared with their tenant set"),
        }
    }

    /// The traced session: `run_workload_traced` or
    /// `run_tenant_set_open_loop_traced`.
    pub fn run_traced(
        &self,
        p: &mut Prepared,
        scale: &ScaleProfile,
        telemetry: &mut RunTelemetry,
    ) -> Outcome {
        match (self.spec(), &p.set) {
            (Some(spec), _) => {
                Outcome::Closed(run_workload_traced(&mut p.platform, spec, scale, telemetry))
            }
            (None, Some(set)) => Outcome::Open(run_tenant_set_open_loop_traced(
                &mut p.platform,
                set,
                scale,
                &Self::open_config(false),
                telemetry,
            )),
            (None, None) => unreachable!("open-loop inputs are prepared with their tenant set"),
        }
    }

    /// The untimed warm-up session. It also records into `sojourn` the
    /// simulated sojourn of every request the percentiles are taken over:
    /// the victim's arrival → finish time in the open loop, and each
    /// access's issue → finish latency in a closed loop (there is no queue,
    /// so that is its sojourn).
    pub fn run_observed(
        &self,
        p: &mut Prepared,
        scale: &ScaleProfile,
        sojourn: &mut Histogram,
    ) -> Outcome {
        match self.spec() {
            Some(spec) => {
                let mut observed = Observed {
                    inner: &mut p.platform,
                    latencies: sojourn,
                };
                Outcome::Closed(run_workload(&mut observed, spec, scale))
            }
            None => {
                let outcome = self.run_with(p, scale, true);
                if let Outcome::Open(m) = &outcome {
                    for r in m.merged.records.iter().filter(|r| r.tenant == 0) {
                        sojourn.record(r.sojourn());
                    }
                }
                outcome
            }
        }
    }

    /// An empty histogram binned like the open loop's sojourn histograms.
    pub fn sojourn_histogram() -> Histogram {
        let config = Self::open_config(false);
        Histogram::new(config.sojourn_bucket, config.sojourn_buckets)
    }
}

fn table3(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).expect("benchmark workloads use Table III specs")
}

impl Outcome {
    pub fn sim(&self) -> Sim {
        let (run, fingerprint, arrivals, dropped, tenant_sums_hold) = match self {
            Outcome::Closed(m) => (m, fnv1a(format!("{m:?}").as_bytes()), m.accesses, 0, true),
            Outcome::Open(m) => {
                let merged = &m.merged;
                let sum = |f: fn(&hams::platforms::TenantMetrics) -> u64| -> u64 {
                    m.tenants.iter().map(f).sum()
                };
                let mut without_records = m.clone();
                without_records.merged.records.clear();
                (
                    &merged.run,
                    fnv1a(format!("{without_records:?}").as_bytes()),
                    merged.arrivals,
                    merged.dropped,
                    sum(|t| t.arrivals) == merged.arrivals
                        && sum(|t| t.served) == merged.served
                        && sum(|t| t.dropped) == merged.dropped,
                )
            }
        };
        let seconds = run.total_time.as_secs_f64();
        Sim {
            fingerprint,
            arrivals,
            served: run.accesses,
            dropped,
            seconds,
            pages: run.pages_per_sec * seconds,
            energy_j: run.energy.total_joules(),
            tenant_sums_hold,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A transparent platform wrapper that records each access's issue →
/// finish latency. Used only on the untimed warm-up session, so the timed
/// sessions measure the bare platform.
struct Observed<'a> {
    inner: &'a mut HamsPlatform,
    latencies: &'a mut Histogram,
}

impl Platform for Observed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let outcome = self.inner.access(access, now);
        self.latencies.record(outcome.latency(now));
        outcome
    }

    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        self.inner.serve_batch_into(batch, start, out);
        let mut t = start;
        for (request, outcome) in batch.iter().zip(&out.outcomes) {
            self.latencies.record(outcome.latency(t + request.compute));
            t = outcome.finished_at;
        }
    }

    fn memory_delay(&self) -> LatencyVector {
        self.inner.memory_delay()
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        self.inner.device_energy(elapsed)
    }

    fn hit_rate(&self) -> Option<f64> {
        self.inner.hit_rate()
    }

    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }
}
