//! The experiment runner: executes a Table III workload on a platform and
//! produces every metric the paper's figures report.

use hams_core::{AttachMode, PersistMode};
use hams_energy::{EnergyAccount, PowerParams};
use hams_flash::SsdConfig;
use hams_host::{CpuConfig, CpuModel};
use hams_sim::{parallel_map, ComponentId, LatencyBreakdown, Nanos};
use hams_telemetry::RunTelemetry;
use hams_workloads::{TraceGenerator, WorkloadClass, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::direct::{FlatFlashPlatform, NvdimmCPlatform, OptanePlatform, OraclePlatform};
use crate::hams::HamsPlatform;
use crate::mmap::MmapPlatform;
use crate::observe::{Observer, Tracer};
use crate::platform::{AccessOutcome, BatchOutcome, BatchRequest, Platform};

/// Number of MoS accesses that constitute one SQLite "operation" when
/// converting access throughput into the ops/s metric of Fig. 16b.
pub const ACCESSES_PER_SQL_OP: u64 = 128;

/// The metrics produced by one (platform, workload) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Platform name (figure legend).
    pub platform: String,
    /// Workload name (figure x-axis).
    pub workload: String,
    /// Memory accesses replayed.
    pub accesses: u64,
    /// Instructions retired (memory plus compute).
    pub instructions: u64,
    /// Total simulated execution time.
    pub total_time: Nanos,
    /// Execution-time breakdown (`app`, `os`, `ssd`) — Fig. 7a and Fig. 17.
    pub exec_breakdown: LatencyBreakdown,
    /// Memory-delay breakdown (`nvdimm`, `dma`, `ssd`) — Fig. 10a and Fig. 18.
    pub memory_delay: LatencyBreakdown,
    /// Whole-system energy (`cpu`, `nvdimm`, `internal_dram`, `znand`) — Fig. 19.
    pub energy: EnergyAccount,
    /// Effective instructions per cycle — Fig. 7b.
    pub ipc: f64,
    /// Application throughput in pages per second — Fig. 16a.
    pub pages_per_sec: f64,
    /// Application throughput in operations per second — Fig. 16b.
    pub ops_per_sec: f64,
    /// Fast-tier (page cache / NVDIMM) hit rate, if the platform has one.
    pub hit_rate: Option<f64>,
}

impl RunMetrics {
    /// Throughput in the unit the paper plots for this workload class:
    /// K pages/s for microbenchmark and Rodinia workloads, ops/s for SQLite.
    #[must_use]
    pub fn paper_throughput(&self, class: WorkloadClass) -> f64 {
        match class {
            WorkloadClass::Sqlite => self.ops_per_sec,
            _ => self.pages_per_sec / 1_000.0,
        }
    }
}

/// How much the full-scale experiment is shrunk so it runs in seconds.
///
/// Capacities (DRAM/NVDIMM caches) and dataset footprints are divided by
/// `capacity_divisor`, which preserves the cache-to-dataset ratio; the
/// number of replayed accesses is capped at `accesses`. Hit rates and the
/// headline ratios still move with the divisor, because the pinned NVDIMM
/// region and the capacity floors do not scale: ROADMAP item 6 measures
/// the converged hit rate and ratios at ÷128, ÷512 and ÷2048.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleProfile {
    /// Factor by which capacities and dataset sizes are divided.
    pub capacity_divisor: u64,
    /// Number of accesses replayed per run.
    pub accesses: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleProfile {
    /// A very small profile for unit and integration tests.
    #[must_use]
    pub fn test_tiny() -> Self {
        ScaleProfile {
            capacity_divisor: 2048,
            accesses: 4_000,
            seed: 7,
        }
    }

    /// The scaled DRAM / NVDIMM cache capacity (8 GB full scale).
    #[must_use]
    pub fn cache_bytes(&self) -> u64 {
        (8u64 * 1024 * 1024 * 1024 / self.capacity_divisor).max(4 * 1024 * 1024)
    }

    /// The scaled SSD-internal DRAM capacity (512 MB full scale).
    #[must_use]
    pub fn ssd_dram_bytes(&self) -> u64 {
        (512u64 * 1024 * 1024 / self.capacity_divisor).max(64 * 4096)
    }

    /// Scales a workload's dataset, keeping at least four cache's worth so
    /// misses still occur for the larger datasets.
    #[must_use]
    pub fn scale_spec(&self, spec: WorkloadSpec) -> WorkloadSpec {
        let scaled = (spec.dataset_bytes / self.capacity_divisor).max(spec.access_bytes * 16);
        spec.with_dataset_bytes(scaled)
    }
}

/// The eleven platforms of §VI-A (Fig. 16's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// MMF baseline over ULL-Flash.
    Mmap,
    /// FlatFlash, persistent (direct MMIO).
    FlatFlashP,
    /// FlatFlash with host-memory caching.
    FlatFlashM,
    /// NVDIMM-C (flash on the memory channel, refresh-window migration).
    NvdimmC,
    /// Optane DC PMM in App Direct mode.
    OptaneP,
    /// Optane DC PMM behind a DRAM cache.
    OptaneM,
    /// Loosely-coupled HAMS, persist mode.
    HamsLP,
    /// Loosely-coupled HAMS, extend mode.
    HamsLE,
    /// Tightly-integrated HAMS, persist mode.
    HamsTP,
    /// Tightly-integrated HAMS, extend mode.
    HamsTE,
    /// 512 GB NVDIMM oracle.
    Oracle,
}

impl PlatformKind {
    /// Every platform, in the order the paper's figures list them.
    #[must_use]
    pub fn all() -> Vec<PlatformKind> {
        vec![
            PlatformKind::Mmap,
            PlatformKind::FlatFlashP,
            PlatformKind::FlatFlashM,
            PlatformKind::HamsLP,
            PlatformKind::HamsLE,
            PlatformKind::NvdimmC,
            PlatformKind::OptaneP,
            PlatformKind::OptaneM,
            PlatformKind::HamsTP,
            PlatformKind::HamsTE,
            PlatformKind::Oracle,
        ]
    }

    /// The subset compared in Fig. 17 and Fig. 19 (mmap plus the HAMS modes).
    #[must_use]
    pub fn breakdown_set() -> Vec<PlatformKind> {
        vec![
            PlatformKind::Mmap,
            PlatformKind::HamsLP,
            PlatformKind::HamsLE,
            PlatformKind::HamsTP,
            PlatformKind::HamsTE,
        ]
    }

    /// The HAMS-only subset of Fig. 18.
    #[must_use]
    pub fn hams_set() -> Vec<PlatformKind> {
        vec![
            PlatformKind::HamsLP,
            PlatformKind::HamsLE,
            PlatformKind::HamsTP,
            PlatformKind::HamsTE,
        ]
    }

    /// The platform's name as used in figure legends.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PlatformKind::Mmap => "mmap",
            PlatformKind::FlatFlashP => "flatflash-P",
            PlatformKind::FlatFlashM => "flatflash-M",
            PlatformKind::NvdimmC => "nvdimm-C",
            PlatformKind::OptaneP => "optane-P",
            PlatformKind::OptaneM => "optane-M",
            PlatformKind::HamsLP => "hams-LP",
            PlatformKind::HamsLE => "hams-LE",
            PlatformKind::HamsTP => "hams-TP",
            PlatformKind::HamsTE => "hams-TE",
            PlatformKind::Oracle => "oracle",
        }
    }

    /// Builds the platform with caches sized by `scale`: every cache gets
    /// [`ScaleProfile::cache_bytes`], every ULL-Flash SSD an internal DRAM
    /// of [`ScaleProfile::ssd_dram_bytes`], and the HAMS modes are
    /// [`HamsPlatform::scaled`].
    #[must_use]
    pub fn build(&self, scale: &ScaleProfile) -> Box<dyn Platform> {
        let cache = scale.cache_bytes();
        let ssd = SsdConfig {
            dram_capacity_bytes: scale.ssd_dram_bytes(),
            ..SsdConfig::ull_flash()
        };
        let hams = |attach, persist| Box::new(HamsPlatform::scaled(attach, persist, cache));
        match self {
            PlatformKind::Mmap => Box::new(MmapPlatform::new("mmap", ssd, cache)),
            PlatformKind::FlatFlashP => Box::new(FlatFlashPlatform::persistent(ssd)),
            PlatformKind::FlatFlashM => Box::new(FlatFlashPlatform::memory_cached(ssd, cache)),
            PlatformKind::NvdimmC => Box::new(NvdimmCPlatform::new(ssd, cache)),
            PlatformKind::OptaneP => Box::new(OptanePlatform::app_direct()),
            PlatformKind::OptaneM => Box::new(OptanePlatform::memory_mode(cache)),
            PlatformKind::HamsLP => hams(AttachMode::Loose, PersistMode::Persist),
            PlatformKind::HamsLE => hams(AttachMode::Loose, PersistMode::Extend),
            PlatformKind::HamsTP => hams(AttachMode::Tight, PersistMode::Persist),
            PlatformKind::HamsTE => hams(AttachMode::Tight, PersistMode::Extend),
            PlatformKind::Oracle => Box::new(OraclePlatform::new()),
        }
    }
}

/// Number of accesses handed to [`Platform::serve_batch_into`] per call by
/// [`run_workload`]. Large enough to amortize per-batch setup, small enough
/// that the request buffer stays cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Shared metric-folding state for the serial, batched and open-loop serving
/// paths.
pub(crate) struct MetricsFold {
    pub(crate) cpu: CpuModel,
    exec: LatencyBreakdown,
    accesses: u64,
    pub(crate) now: Nanos,
}

impl MetricsFold {
    pub(crate) fn new() -> Self {
        MetricsFold {
            cpu: CpuModel::new(CpuConfig::paper_default()),
            exec: LatencyBreakdown::new(),
            accesses: 0,
            now: Nanos::ZERO,
        }
    }

    /// Accounts one served access: the compute phase that preceded it and
    /// the stall its outcome caused. The core was ready at `ready`: the
    /// closed loops resume at `self.now` (the previous access's finish), the
    /// open loop at each request's dispatch instant, which can sit past
    /// `now` while the server idles waiting for an arrival. `outcome` must
    /// come from an access issued at `ready + compute`.
    pub(crate) fn fold(&mut self, ready: Nanos, compute: Nanos, outcome: &AccessOutcome) {
        self.accesses += 1;
        self.exec.add(ComponentId::APP, compute);
        let issued_at = ready + compute;
        let stall = outcome.latency(issued_at);
        self.cpu.stall(stall);
        self.exec.add(ComponentId::OS, outcome.os_time);
        self.exec.add(ComponentId::SSD, outcome.ssd_time);
        self.exec.add(
            ComponentId::APP,
            stall.saturating_sub(outcome.os_time + outcome.ssd_time),
        );
        self.now = outcome.finished_at;
    }

    /// Finalizes the run into the paper's metrics.
    pub(crate) fn finish(
        self,
        platform: &dyn Platform,
        spec: WorkloadSpec,
        scaled: WorkloadSpec,
    ) -> RunMetrics {
        let MetricsFold {
            cpu,
            exec,
            accesses,
            now: t,
        } = self;
        let power = PowerParams::paper_default();
        let mut energy = platform.device_energy(t);
        energy.add_power("cpu", power.cpu_active_watts, cpu.compute_time());
        energy.add_power("cpu", power.cpu_idle_watts, cpu.stall_time());

        let secs = t.as_secs_f64().max(1e-12);
        let bytes_touched = accesses * scaled.access_bytes;
        let pages_per_sec = bytes_touched as f64 / 4096.0 / secs;
        let ops_per_sec = accesses as f64 / ACCESSES_PER_SQL_OP as f64 / secs;

        RunMetrics {
            platform: platform.name().to_owned(),
            workload: spec.name.to_owned(),
            accesses,
            instructions: cpu.instructions(),
            total_time: t,
            exec_breakdown: exec,
            memory_delay: platform.memory_delay(),
            energy,
            ipc: cpu.ipc(),
            pages_per_sec,
            ops_per_sec,
            hit_rate: platform.hit_rate(),
        }
    }
}

/// Runs one workload on one platform and gathers metrics.
///
/// The trace is served through [`Platform::serve_batch_into`] in chunks of
/// [`DEFAULT_BATCH_SIZE`], which produces metrics byte-identical to the
/// per-access reference path ([`run_workload_serial`]) while letting
/// hardware-automated platforms amortize per-access setup.
pub fn run_workload(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
) -> RunMetrics {
    run_workload_batched(platform, spec, scale, DEFAULT_BATCH_SIZE)
}

/// [`run_workload`] with an explicit batch size (`0` is treated as `1`).
pub fn run_workload_batched(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
    batch_size: usize,
) -> RunMetrics {
    run_closed_loop(platform, spec, scale, batch_size, ())
}

/// [`run_workload`] with telemetry collection.
///
/// Installs a recording sink on the platform (HAMS platforms emit
/// controller / tag-array / NVMe / MSI / archive spans; platforms without a
/// hardware controller ignore the sink), emits a request-layer span per
/// served access, and samples the platform's telemetry gauges into
/// `telemetry.registry` once per dispatched batch. Tracing is observation
/// only: the returned metrics are byte-identical to [`run_workload`]
/// (`tests/telemetry_equivalence.rs` pins this on every platform).
pub fn run_workload_traced(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
    telemetry: &mut RunTelemetry,
) -> RunMetrics {
    run_closed_loop(
        platform,
        spec,
        scale,
        DEFAULT_BATCH_SIZE,
        Tracer::new(telemetry),
    )
}

/// The closed loop behind [`run_workload_batched`] and
/// [`run_workload_traced`]: each batch issues when the previous one
/// finishes.
fn run_closed_loop<O: Observer>(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
    batch_size: usize,
    mut observer: O,
) -> RunMetrics {
    let batch_size = batch_size.max(1);
    observer.start(platform);
    let scaled = scale.scale_spec(spec);
    let mut fold = MetricsFold::new();
    let mut trace = TraceGenerator::new(scaled, scale.seed, scale.accesses);
    // A batch can never outgrow the trace, so cap the buffer reservations.
    // Both the request and the outcome buffer are reused across every batch
    // of the replay ([`Platform::serve_batch_into`]'s scratch contract), so
    // the serving loop allocates nothing after warm-up.
    let mut batch: Vec<BatchRequest> = Vec::with_capacity(batch_size.min(scale.accesses));
    let mut result = BatchOutcome::with_capacity(batch_size.min(scale.accesses));

    loop {
        batch.clear();
        while batch.len() < batch_size {
            let Some(access) = trace.next() else { break };
            // Compute phase between memory accesses, priced by the runner's
            // CPU model so platforms never see instruction counts.
            let compute = fold.cpu.retire(access.compute_instructions + 1);
            batch.push(BatchRequest { access, compute });
        }
        if batch.is_empty() {
            break;
        }
        platform.serve_batch_into(&batch, fold.now, &mut result);
        assert_eq!(
            result.outcomes.len(),
            batch.len(),
            "{} returned {} outcomes for a batch of {}",
            platform.name(),
            result.outcomes.len(),
            batch.len()
        );
        for (request, outcome) in batch.iter().zip(&result.outcomes) {
            observer.access(fold.now, request, outcome);
            fold.fold(fold.now, request.compute, outcome);
        }
        observer.batch(platform, fold.now, fold.accesses);
    }

    observer.finish(platform);
    fold.finish(platform, spec, scaled)
}

/// The per-access reference path: one [`Platform::access`] call per trace
/// entry, no batching. [`run_workload`] must match this byte-for-byte.
pub fn run_workload_serial(
    platform: &mut dyn Platform,
    spec: WorkloadSpec,
    scale: &ScaleProfile,
) -> RunMetrics {
    let scaled = scale.scale_spec(spec);
    let mut fold = MetricsFold::new();

    for access in TraceGenerator::new(scaled, scale.seed, scale.accesses) {
        let compute = fold.cpu.retire(access.compute_instructions + 1);
        let outcome = platform.access(&access, fold.now + compute);
        fold.fold(fold.now, compute, &outcome);
    }

    fold.finish(platform, spec, scaled)
}

/// Runs the full platform × workload grid in parallel.
///
/// Every cell is an independent simulation: its own platform instance, CPU
/// model and seeded trace generator, so the results are byte-identical to
/// [`run_grid_serial`] regardless of thread count or scheduling. Results are
/// ordered workload-major — all platforms for `specs[0]`, then `specs[1]`,
/// … — matching how the paper's figures group their bars.
pub fn run_grid(
    kinds: &[PlatformKind],
    specs: &[WorkloadSpec],
    scale: &ScaleProfile,
) -> Vec<RunMetrics> {
    let cells: Vec<(WorkloadSpec, PlatformKind)> = specs
        .iter()
        .flat_map(|spec| kinds.iter().map(move |kind| (*spec, *kind)))
        .collect();
    parallel_map(&cells, |(spec, kind)| {
        let mut platform = kind.build(scale);
        run_workload(platform.as_mut(), *spec, scale)
    })
}

/// The serial reference for [`run_grid`]: same cells, same order, one thread.
pub fn run_grid_serial(
    kinds: &[PlatformKind],
    specs: &[WorkloadSpec],
    scale: &ScaleProfile,
) -> Vec<RunMetrics> {
    specs
        .iter()
        .flat_map(|spec| {
            kinds.iter().map(|kind| {
                let mut platform = kind.build(scale);
                run_workload(platform.as_mut(), *spec, scale)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hams_telemetry::Layer;

    fn quick_scale() -> ScaleProfile {
        ScaleProfile {
            capacity_divisor: 2048,
            accesses: 1_500,
            seed: 3,
        }
    }

    #[test]
    fn built_platforms_report_their_label_as_name() {
        let scale = ScaleProfile::test_tiny();
        for kind in PlatformKind::all() {
            assert_eq!(kind.build(&scale).name(), kind.label());
        }
    }

    #[test]
    fn all_platforms_run_every_workload_class() {
        let scale = quick_scale();
        for name in ["rndWr", "rndSel", "KMN"] {
            let spec = WorkloadSpec::by_name(name).unwrap();
            for kind in PlatformKind::all() {
                let mut platform = kind.build(&scale);
                let m = run_workload(platform.as_mut(), spec, &scale);
                assert_eq!(m.accesses, scale.accesses as u64);
                assert!(
                    m.total_time > Nanos::ZERO,
                    "{name} on {} took no time",
                    kind.label()
                );
                assert!(m.pages_per_sec > 0.0);
                assert!(m.energy.total_joules() > 0.0);
            }
        }
    }

    #[test]
    fn hams_te_outperforms_mmap() {
        let scale = ScaleProfile {
            capacity_divisor: 1024,
            accesses: 6_000,
            seed: 11,
        };
        let spec = WorkloadSpec::by_name("rndWr").unwrap();
        let mut mmap = PlatformKind::Mmap.build(&scale);
        let mut te = PlatformKind::HamsTE.build(&scale);
        let m = run_workload(mmap.as_mut(), spec, &scale);
        let h = run_workload(te.as_mut(), spec, &scale);
        assert!(
            h.pages_per_sec > m.pages_per_sec,
            "hams-TE ({:.0}) should beat mmap ({:.0}) pages/s",
            h.pages_per_sec,
            m.pages_per_sec
        );
        assert!(h.ipc > m.ipc);
    }

    #[test]
    fn oracle_is_the_upper_bound_among_hams_and_mmap() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("seqRd").unwrap();
        let results = run_grid(
            &[
                PlatformKind::Mmap,
                PlatformKind::HamsTE,
                PlatformKind::Oracle,
            ],
            &[spec],
            &scale,
        );
        let oracle = results.iter().find(|r| r.platform == "oracle").unwrap();
        for r in &results {
            assert!(
                oracle.pages_per_sec >= r.pages_per_sec * 0.99,
                "{} ({:.0}) beat the oracle ({:.0})",
                r.platform,
                r.pages_per_sec,
                oracle.pages_per_sec
            );
        }
    }

    #[test]
    fn mmap_execution_is_dominated_by_software_overhead() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("rndRd").unwrap();
        let mut mmap = PlatformKind::Mmap.build(&scale);
        let m = run_workload(mmap.as_mut(), spec, &scale);
        let os_fraction = m.exec_breakdown.fraction("os");
        assert!(
            os_fraction > 0.3,
            "mmap OS fraction was only {os_fraction:.2}; the paper reports ~69%"
        );
    }

    #[test]
    fn persist_mode_is_slower_than_extend_mode() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("update").unwrap();
        let results = run_grid(
            &[PlatformKind::HamsTP, PlatformKind::HamsTE],
            &[spec],
            &scale,
        );
        assert!(results[1].ops_per_sec >= results[0].ops_per_sec);
    }

    #[test]
    fn scale_profile_preserves_ratios() {
        let scale = ScaleProfile {
            capacity_divisor: 256,
            accesses: 60_000,
            seed: 42,
        };
        let spec = WorkloadSpec::by_name("seqRd").unwrap();
        let scaled = scale.scale_spec(spec);
        let full_ratio = spec.dataset_bytes as f64 / (8.0 * 1024.0 * 1024.0 * 1024.0);
        let scaled_ratio = scaled.dataset_bytes as f64 / scale.cache_bytes() as f64;
        assert!((full_ratio - scaled_ratio).abs() < 0.05 * full_ratio.max(scaled_ratio));
    }

    #[test]
    fn batched_serving_is_byte_identical_to_serial_for_every_platform() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("rndWr").unwrap();
        for kind in PlatformKind::all() {
            let mut serial = kind.build(&scale);
            let mut batched = kind.build(&scale);
            let s = run_workload_serial(serial.as_mut(), spec, &scale);
            let b = run_workload(batched.as_mut(), spec, &scale);
            assert_eq!(s, b, "{} diverged between serial and batched", kind.label());
        }
    }

    #[test]
    fn batch_size_does_not_change_metrics() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("KMN").unwrap();
        let reference = {
            let mut p = PlatformKind::HamsTE.build(&scale);
            run_workload_batched(p.as_mut(), spec, &scale, 1)
        };
        for batch_size in [0, 7, 64, 100_000] {
            let mut p = PlatformKind::HamsTE.build(&scale);
            let m = run_workload_batched(p.as_mut(), spec, &scale, batch_size);
            assert_eq!(reference, m, "batch size {batch_size} diverged");
        }
    }

    #[test]
    fn parallel_grid_is_byte_identical_to_serial_grid() {
        let scale = quick_scale();
        let kinds = PlatformKind::all();
        let specs: Vec<WorkloadSpec> = ["rndRd", "seqIns"]
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect();
        let parallel = run_grid(&kinds, &specs, &scale);
        let serial = run_grid_serial(&kinds, &specs, &scale);
        assert_eq!(parallel.len(), kinds.len() * specs.len());
        assert_eq!(parallel, serial);
    }

    #[test]
    fn grid_results_are_workload_major_in_figure_order() {
        let scale = quick_scale();
        let kinds = [PlatformKind::Mmap, PlatformKind::Oracle];
        let specs: Vec<WorkloadSpec> = ["rndRd", "rndWr"]
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect();
        let grid = run_grid(&kinds, &specs, &scale);
        let labels: Vec<(&str, &str)> = grid
            .iter()
            .map(|m| (m.workload.as_str(), m.platform.as_str()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("rndRd", "mmap"),
                ("rndRd", "oracle"),
                ("rndWr", "mmap"),
                ("rndWr", "oracle"),
            ]
        );
    }

    #[test]
    fn traced_run_is_byte_identical_and_collects_spans() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("rndRd").unwrap();
        let mut plain = PlatformKind::HamsTE.build(&scale);
        let mut traced = PlatformKind::HamsTE.build(&scale);
        let reference = run_workload(plain.as_mut(), spec, &scale);
        let mut telemetry = RunTelemetry::new();
        let m = run_workload_traced(traced.as_mut(), spec, &scale, &mut telemetry);
        assert_eq!(reference, m, "tracing changed the simulated metrics");
        let counts = telemetry.layer_counts();
        assert_eq!(counts[Layer::Request.index()], scale.accesses as u64);
        assert!(
            counts[Layer::Controller.index()] > 0,
            "HAMS runs should emit controller spans"
        );
        assert!(counts[Layer::TagArray.index()] > 0);
        assert!(!telemetry.registry.is_empty());
        assert!(telemetry.registry.get("accesses_served").is_some());
        assert!(telemetry.registry.get("nvme_inflight").is_some());
    }

    #[test]
    fn traced_run_on_a_software_platform_still_gets_request_spans() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("seqRd").unwrap();
        let mut platform = PlatformKind::Mmap.build(&scale);
        let mut telemetry = RunTelemetry::new();
        let m = run_workload_traced(platform.as_mut(), spec, &scale, &mut telemetry);
        assert_eq!(m.accesses, scale.accesses as u64);
        let counts = telemetry.layer_counts();
        assert_eq!(counts[Layer::Request.index()], scale.accesses as u64);
        assert_eq!(counts[Layer::Controller.index()], 0);
    }

    #[test]
    fn paper_throughput_selects_the_right_unit() {
        let scale = quick_scale();
        let spec = WorkloadSpec::by_name("seqSel").unwrap();
        let mut oracle = PlatformKind::Oracle.build(&scale);
        let m = run_workload(oracle.as_mut(), spec, &scale);
        assert!((m.paper_throughput(WorkloadClass::Sqlite) - m.ops_per_sec).abs() < 1e-9);
        assert!(
            (m.paper_throughput(WorkloadClass::Microbench) - m.pages_per_sec / 1000.0).abs() < 1e-9
        );
    }
}
