//! The [`Platform`] abstraction: a complete system that serves memory
//! accesses from a workload trace.
//!
//! Every evaluated system of §VI-A — `mmap`, `flatflash-P/-M`, `nvdimm-C`,
//! `optane-P/-M`, the four HAMS variants and the `oracle` — implements this
//! trait, so the runner and every figure harness are platform-agnostic.

use hams_energy::{EnergyAccount, PowerParams};
use hams_flash::SsdStats;
use hams_sim::{LatencyVector, Nanos};
use hams_telemetry::TelemetrySink;
use hams_workloads::Access;
use serde::{Deserialize, Serialize};

/// The outcome of serving one access on a platform.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Simulated time at which the access (and any blocking work it caused)
    /// completed.
    pub finished_at: Nanos,
    /// Time the CPU was stalled inside the OS / software stack ("OS" in
    /// Fig. 17). Zero for hardware-automated platforms.
    pub os_time: Nanos,
    /// Time the CPU was stalled waiting for the storage device ("SSD" in
    /// Fig. 17) when that wait is visible to software.
    pub ssd_time: Nanos,
    /// Time spent in the memory system itself (DRAM/NVDIMM plus, for HAMS,
    /// hardware-managed fills and evictions) — charged to the application as
    /// load/store latency.
    pub memory_time: Nanos,
}

impl AccessOutcome {
    /// Total stall latency relative to the issue time.
    #[must_use]
    pub fn latency(&self, issued_at: Nanos) -> Nanos {
        self.finished_at - issued_at
    }
}

/// One entry of a serving batch: a memory access plus the compute phase the
/// CPU spends before issuing it.
///
/// The runner owns the CPU model, so platforms never see instruction counts —
/// they receive the already-priced compute gap and only have to respect it
/// when scheduling the access (see [`Platform::serve_batch_into`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The memory access to serve.
    pub access: Access,
    /// CPU compute time between the previous access completing and this one
    /// issuing.
    pub compute: Nanos,
}

impl BatchRequest {
    /// A request with no preceding compute phase (back-to-back issue).
    #[must_use]
    pub fn immediate(access: Access) -> Self {
        BatchRequest {
            access,
            compute: Nanos::ZERO,
        }
    }
}

/// The outcome of serving one batch: one [`AccessOutcome`] per request, in
/// request order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// Per-access outcomes, index-aligned with the request batch.
    pub outcomes: Vec<AccessOutcome>,
}

impl BatchOutcome {
    /// An empty outcome with room for `capacity` accesses.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BatchOutcome {
            outcomes: Vec::with_capacity(capacity),
        }
    }

    /// Completion time of the batch: when its last access finished, or
    /// `start` for an empty batch.
    #[must_use]
    pub fn finished_at(&self, start: Nanos) -> Nanos {
        self.outcomes.last().map_or(start, |o| o.finished_at)
    }
}

/// Joules the Z-NAND array spent on the page reads and programs in `flash`,
/// the `znand` component of every flash-backed platform's device energy.
pub(crate) fn znand_energy(power: &PowerParams, flash: &SsdStats) -> f64 {
    (flash.page_reads as f64 * power.znand_read_page_nj
        + flash.page_programs as f64 * power.znand_program_page_nj)
        / 1e9
}

/// A complete system under test.
pub trait Platform {
    /// Platform name as used in the paper's figure legends (e.g. `"hams-TE"`).
    fn name(&self) -> &str;

    /// Serves one memory access issued at `now`.
    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome;

    /// Serves a batch of accesses into a caller-owned outcome buffer, the
    /// first one issuing at `start + batch[0].compute` and each subsequent
    /// access at the previous access's completion plus its own compute gap.
    /// The runners reuse one buffer across every batch of a replay.
    ///
    /// The contract is strict: the outcomes must be exactly those the
    /// equivalent [`Platform::access`] loop would produce, so runner metrics
    /// are byte-identical on either path. What a platform may change is
    /// *how fast the host computes them*: `HamsPlatform` overrides this to
    /// establish per-call setup (the capacity lookup, the delay scratch)
    /// once per batch instead of once per access. Every other platform
    /// keeps this per-access default.
    ///
    /// The scratch-reuse contract for implementors: clear `out.outcomes`
    /// first, then push exactly one [`AccessOutcome`] per request in request
    /// order (never inherit entries from the previous batch). Do not shrink
    /// the buffer — its retained capacity is the point.
    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        let mut t = start;
        for request in batch {
            let outcome = self.access(&request.access, t + request.compute);
            t = outcome.finished_at;
            out.outcomes.push(outcome);
        }
    }

    /// Opts the platform into simulated-time span tracing: installs a
    /// telemetry sink on the platform's internal serving spine.
    ///
    /// Only the HAMS variants carry an instrumentable controller (controller,
    /// tag-array, NVMe, MSI and archive spans) and override this; every
    /// other system ignores the sink. Their request-level spans still come
    /// from the traced runners, which trace *every* platform. Tracing is
    /// observation-only: spans record already-computed simulated
    /// timestamps, so metrics are byte-identical with tracing on or off
    /// (`tests/telemetry_equivalence.rs` pins this on all eleven platforms).
    fn configure_trace(&mut self, _sink: TelemetrySink) {}

    /// Hands back the sink [`Platform::configure_trace`] installed, with
    /// every span it retained and its eviction counters, and leaves tracing
    /// off. Platforms that ignore the sink return
    /// [`TelemetrySink::disabled`].
    fn take_trace_sink(&mut self) -> TelemetrySink {
        TelemetrySink::disabled()
    }

    /// Samples the platform's telemetry gauges (in-flight NVMe commands, MSI
    /// burst sizes, internal-DRAM evictions, journal writes, ...) as
    /// `(metric name, value)` pairs appended to `out`. No-op for platforms
    /// without instrumented internals; the traced runners call this once per
    /// dispatched batch, never on the per-access hot path.
    fn telemetry_gauges(&self, _out: &mut Vec<(&'static str, f64)>) {}

    /// The platform's share of the memory-delay breakdown of Fig. 18
    /// (`nvdimm` / `dma` / `ssd`), if it distinguishes these components.
    fn memory_delay(&self) -> LatencyVector {
        LatencyVector::new()
    }

    /// Device-side energy consumed so far (everything except the CPU, which
    /// the runner accounts from compute/stall time): `nvdimm`,
    /// `internal_dram`, `znand`.
    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount;

    /// Cache hit rate of the platform's fastest tier, if it has a cache.
    fn hit_rate(&self) -> Option<f64> {
        None
    }

    /// Whether acknowledged writes are durable across a power failure on this
    /// platform (Table I's "persistence" property as the paper interprets it).
    fn is_persistent(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hams_energy::EnergyAccount;

    /// A stateful dummy platform: latency grows with every access served, so
    /// batching mistakes (wrong order, wrong issue time) change the outcome.
    struct Ramp {
        served: u64,
    }

    impl Platform for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }

        fn access(&mut self, _access: &Access, now: Nanos) -> AccessOutcome {
            self.served += 1;
            AccessOutcome {
                finished_at: now + Nanos::from_nanos(self.served * 10),
                os_time: Nanos::ZERO,
                ssd_time: Nanos::ZERO,
                memory_time: Nanos::from_nanos(self.served * 10),
            }
        }

        fn device_energy(&self, _elapsed: Nanos) -> EnergyAccount {
            EnergyAccount::new()
        }

        fn is_persistent(&self) -> bool {
            false
        }
    }

    fn batch_of(n: u64) -> Vec<BatchRequest> {
        (0..n)
            .map(|i| BatchRequest {
                access: Access {
                    addr: i * 64,
                    size: 64,
                    is_write: i % 2 == 0,
                    compute_instructions: 0,
                },
                compute: Nanos::from_nanos(i * 3),
            })
            .collect()
    }

    #[test]
    fn default_serve_batch_equals_the_access_loop() {
        let batch = batch_of(16);
        let start = Nanos::from_micros(5);

        let mut looped = Ramp { served: 0 };
        let mut expected = Vec::new();
        let mut t = start;
        for request in &batch {
            let o = looped.access(&request.access, t + request.compute);
            t = o.finished_at;
            expected.push(o);
        }

        let mut batched = Ramp { served: 0 };
        let mut result = BatchOutcome::with_capacity(batch.len());
        batched.serve_batch_into(&batch, start, &mut result);
        assert_eq!(result.outcomes, expected);
        assert_eq!(result.finished_at(start), t);
    }

    #[test]
    fn empty_batch_finishes_at_start() {
        let mut p = Ramp { served: 0 };
        let mut result = BatchOutcome::with_capacity(0);
        p.serve_batch_into(&[], Nanos::from_micros(3), &mut result);
        assert!(result.outcomes.is_empty());
        assert_eq!(
            result.finished_at(Nanos::from_micros(3)),
            Nanos::from_micros(3)
        );
    }

    #[test]
    fn immediate_requests_carry_no_compute() {
        let access = Access {
            addr: 0,
            size: 64,
            is_write: false,
            compute_instructions: 7,
        };
        assert_eq!(BatchRequest::immediate(access).compute, Nanos::ZERO);
    }

    #[test]
    fn outcome_latency_is_relative() {
        let o = AccessOutcome {
            finished_at: Nanos::from_micros(10),
            os_time: Nanos::ZERO,
            ssd_time: Nanos::ZERO,
            memory_time: Nanos::from_micros(2),
        };
        assert_eq!(o.latency(Nanos::from_micros(4)), Nanos::from_micros(6));
    }
}
