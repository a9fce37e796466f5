//! The four HAMS platforms (`hams-LP`, `hams-LE`, `hams-TP`, `hams-TE`),
//! and the CXL attach's `hams-CP` / `hams-CE`, wrapped behind the
//! [`Platform`] trait.

use hams_core::{AttachMode, HamsConfig, HamsController, PersistMode};
use hams_energy::{EnergyAccount, PowerParams};
use hams_nvdimm::{NvdimmConfig, PinnedRegionLayout};
use hams_nvme::QueueConfig;
use hams_sim::{LatencyVector, Nanos};
use hams_telemetry::TelemetrySink;
use hams_workloads::Access;

use crate::platform::{znand_energy, AccessOutcome, BatchOutcome, BatchRequest, Platform};

/// MoS page size of [`HamsPlatform::scaled_config`], and so of the scaled
/// `hams-LP/LE/TP/TE` platforms and the shard sweep: 8 KB — two LBAs, so
/// striped fills no longer degenerate to a single stripe on the standard
/// scaled profiles (the queue and device sweeps replace it with their
/// larger 32 KB page). Chosen as the largest multi-LBA page that preserves
/// the paper's headline orderings at scaled-down capacity: the 4 KB-access
/// random workloads pay whole-page clones and fills on every conflict miss,
/// so page size trades fill striping against eviction traffic exactly as
/// Fig. 20a describes — at 16 KB and above, loosely-coupled HAMS already
/// loses its rndWr margin over `mmap` to PCIe eviction traffic.
pub const SCALED_MOS_PAGE_BYTES: u64 = 8 * 1024;

/// NVMe queue pairs of [`HamsPlatform::scaled_config`]: one per LBA of the
/// [`SCALED_MOS_PAGE_BYTES`] page, so extend-mode fills stripe the whole
/// page across pairs (persist mode keeps its single outstanding command
/// regardless). Multi-LBA pages without striped queues would serialize each
/// fill into one multi-LBA command and hand the scaled profiles a page-size
/// penalty the full-scale system does not pay.
pub const SCALED_QUEUE_PAIRS: u16 = 2;

/// A HAMS system under test.
///
/// # Example
///
/// ```
/// use hams_core::{AttachMode, PersistMode};
/// use hams_platforms::{HamsPlatform, Platform};
/// use hams_sim::Nanos;
/// use hams_workloads::Access;
///
/// let mut te = HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, 8 << 20);
/// let access = Access { addr: 0, size: 64, is_write: true, compute_instructions: 0 };
/// let outcome = te.access(&access, Nanos::ZERO);
/// assert_eq!(outcome.os_time, Nanos::ZERO); // no OS involvement, ever
/// ```
#[derive(Debug)]
pub struct HamsPlatform {
    name: String,
    controller: HamsController,
    power: PowerParams,
}

impl HamsPlatform {
    /// Builds a platform from an explicit HAMS configuration.
    #[must_use]
    pub fn from_config(config: HamsConfig) -> Self {
        let name = Self::paper_name(config.attach, config.persist);
        HamsPlatform {
            name,
            controller: HamsController::new(config),
            power: PowerParams::paper_default(),
        }
    }

    /// A capacity-scaled HAMS platform: [`Self::scaled_config`] built.
    #[must_use]
    pub fn scaled(attach: AttachMode, persist: PersistMode, nvdimm_bytes: u64) -> Self {
        Self::from_config(Self::scaled_config(attach, persist, nvdimm_bytes))
    }

    /// The one scaled HAMS shape. Every scaled platform is built from it;
    /// the sensitivity sweeps replace the fields they sweep. It holds:
    ///
    /// * `nvdimm_bytes` of NVDIMM cache in front of the paper's archive;
    /// * the fixed [`PinnedRegionLayout::tiny_for_tests`] pinned region;
    /// * SSD-internal DRAM at `nvdimm_bytes / 16` (the paper's 512 MB : 8 GB
    ///   ratio, at least 64 pages) when the mode's base configuration has
    ///   any, so loose modes see [`ScaleProfile::ssd_dram_bytes`] at
    ///   `scale.cache_bytes()`, and none in the tight modes;
    /// * [`SCALED_MOS_PAGE_BYTES`] MoS pages on [`SCALED_QUEUE_PAIRS`]
    ///   striped queue pairs, so scaled-down datasets exhibit the full-scale
    ///   hit/miss behaviour and striped fills have stripes to split;
    /// * a single archive device.
    ///
    /// The CXL attach starts from the tight configuration: the same
    /// DRAM-less SSD, attached over CXL.
    ///
    /// [`ScaleProfile::ssd_dram_bytes`]: crate::ScaleProfile::ssd_dram_bytes
    #[must_use]
    pub fn scaled_config(
        attach: AttachMode,
        persist: PersistMode,
        nvdimm_bytes: u64,
    ) -> HamsConfig {
        let base = match attach {
            AttachMode::Loose => HamsConfig::loose(persist),
            AttachMode::Tight | AttachMode::Cxl => HamsConfig {
                attach,
                ..HamsConfig::tight(persist)
            },
        };
        let mut ssd = base.ssd;
        if ssd.dram_capacity_bytes > 0 {
            ssd.dram_capacity_bytes = (nvdimm_bytes / 16).max(64 * 4096);
        }
        HamsConfig {
            nvdimm: NvdimmConfig {
                capacity_bytes: nvdimm_bytes,
                ..NvdimmConfig::hpe_8gb()
            },
            pinned: PinnedRegionLayout::tiny_for_tests(),
            ssd,
            ..base
        }
        .with_mos_page_size(SCALED_MOS_PAGE_BYTES)
        .with_queues(QueueConfig::striped(SCALED_QUEUE_PAIRS))
    }

    fn paper_name(attach: AttachMode, persist: PersistMode) -> String {
        let a = match attach {
            AttachMode::Loose => "L",
            AttachMode::Tight => "T",
            AttachMode::Cxl => "C",
        };
        let p = match persist {
            PersistMode::Persist => "P",
            PersistMode::Extend => "E",
        };
        format!("hams-{a}{p}")
    }

    /// Read access to the wrapped controller.
    #[must_use]
    pub fn controller(&self) -> &HamsController {
        &self.controller
    }

    /// Mutable access to the wrapped controller (power-failure experiments).
    pub fn controller_mut(&mut self) -> &mut HamsController {
        &mut self.controller
    }
}

/// `addr % capacity`, without the division for an address already in range,
/// which every generated address is. The capacity is the archive's, above
/// 2^32 unscaled, so the division would be a full 64-bit one per access.
#[inline]
fn wrap_address(addr: u64, capacity: u64) -> u64 {
    if addr < capacity {
        addr
    } else {
        addr % capacity.max(1)
    }
}

impl Platform for HamsPlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let addr = wrap_address(access.addr, self.controller.mos_capacity_bytes());
        let result = self
            .controller
            .access(addr, access.is_write, access.size, now);
        AccessOutcome {
            finished_at: result.finished_at,
            os_time: Nanos::ZERO,
            ssd_time: Nanos::ZERO,
            memory_time: result.finished_at - now,
        }
    }

    /// Hardware-automated batch path: the MoS capacity lookup and the
    /// delay-accumulator scratch are established once per batch, the caller
    /// reuses one outcome buffer across every batch, and the per-access
    /// breakdowns of [`HamsController::access`] (plus their per-access merge
    /// into the aggregate stats) collapse into a single batch-end merge.
    /// Nothing on the per-access path touches the heap: the scratch
    /// [`LatencyVector`] is a fixed slot array the controller adds into by
    /// pre-interned component id. Simulated timing is identical to the
    /// per-access path by the [`Platform::serve_batch_into`] contract.
    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        let capacity = self.controller.mos_capacity_bytes();
        let mut scratch = LatencyVector::new();
        let mut t = start;
        for request in batch {
            let issued_at = t + request.compute;
            let addr = wrap_address(request.access.addr, capacity);
            let (finished_at, _hit) = self.controller.access_into(
                addr,
                request.access.is_write,
                request.access.size,
                issued_at,
                &mut scratch,
            );
            out.outcomes.push(AccessOutcome {
                finished_at,
                os_time: Nanos::ZERO,
                ssd_time: Nanos::ZERO,
                memory_time: finished_at - issued_at,
            });
            t = finished_at;
        }
        self.controller.merge_delay(&scratch);
    }

    /// HAMS owns the instrumented controller, so every variant honours the
    /// trace sink: controller access, tag-array, NVMe submit, MSI
    /// delivery and archive service spans all come from inside the spine.
    /// Observation-only — enabling the sink can never change metrics.
    fn configure_trace(&mut self, sink: TelemetrySink) {
        self.controller.set_trace_sink(sink);
    }

    fn take_trace_sink(&mut self) -> TelemetrySink {
        self.controller.take_trace_sink()
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        let stats = self.controller.stats();
        let engine = self.controller.engine();
        let msi = engine.coalescer_stats();
        let archive = self.controller.archive();
        out.push(("nvme_inflight", engine.outstanding() as f64));
        out.push(("journal_writes", engine.stats().writes_issued as f64));
        out.push(("msi_interrupts", msi.interrupts as f64));
        out.push(("msi_max_burst", msi.max_burst as f64));
        out.push(("msi_mean_burst", msi.mean_burst()));
        out.push((
            "dram_dirty_evictions",
            archive.dram_stats().dirty_evictions as f64,
        ));
        out.push(("archive_commands", archive.stats().total_commands() as f64));
        out.push(("evictions", stats.evictions as f64));
        out.push(("wait_stalls", stats.wait_stalls as f64));
        // Fault gauges appear only once a plan is installed, so fault-free
        // telemetry output is byte-identical to the pre-fault-injection
        // layer.
        if let Some(fault) = archive.fault() {
            out.push(("array_state", fault.state().as_gauge()));
            out.push(("rebuild_progress", fault.rebuild_progress()));
            let stats = fault.stats();
            out.push(("degraded_reads", stats.degraded_reads as f64));
            out.push(("reconstruction_reads", stats.reconstruction_reads as f64));
            out.push((
                "parity_absorbed_writes",
                stats.parity_absorbed_writes as f64,
            ));
            out.push(("rebuild_rows_done", stats.rebuild_rows_done as f64));
            out.push(("rebuild_rows_total", stats.rebuild_rows_total as f64));
        }
    }

    fn memory_delay(&self) -> LatencyVector {
        self.controller.stats().delay.clone()
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        let mut e = EnergyAccount::new();
        let nv = self.controller.nvdimm().stats();
        e.add_power("nvdimm", self.power.nvdimm_background_watts, elapsed);
        e.add(
            "nvdimm",
            (nv.bytes_read + nv.bytes_written) as f64 * self.power.nvdimm_access_nj_per_byte / 1e9,
        );
        // Device-side energy aggregates across the whole archive set: every
        // device pays its background power, and the access energy follows
        // the summed per-device counters. A single-device backend reduces to
        // the original accounting exactly.
        let archive = self.controller.archive();
        let devices = f64::from(archive.num_devices());
        if archive.has_internal_dram() {
            e.add_power(
                "internal_dram",
                self.power.ssd_dram_background_watts * devices,
                elapsed,
            );
            e.add(
                "internal_dram",
                (archive.dram_stats().accesses() * 4096) as f64
                    * self.power.ssd_dram_access_nj_per_byte
                    / 1e9,
            );
        }
        e.add("znand", znand_energy(&self.power, &archive.stats()));
        e
    }

    fn hit_rate(&self) -> Option<f64> {
        Some(self.controller.stats().hit_rate())
    }

    fn is_persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hams_core::{BackendTopology, ShardConfig};

    fn acc(addr: u64, is_write: bool) -> Access {
        Access {
            addr,
            size: 64,
            is_write,
            compute_instructions: 0,
        }
    }

    /// Scaled hams-TE at a 4 MiB cache with `edit` applied to its config.
    fn te_with(edit: impl FnOnce(HamsConfig) -> HamsConfig) -> HamsPlatform {
        HamsPlatform::from_config(edit(HamsPlatform::scaled_config(
            AttachMode::Tight,
            PersistMode::Extend,
            4 << 20,
        )))
    }

    #[test]
    fn scaled_config_is_one_shape_at_every_divisor() {
        for capacity_divisor in [1, 3, 128, 256, 512, 2048, 4096, 65536] {
            let scale = crate::ScaleProfile {
                capacity_divisor,
                accesses: 0,
                seed: 0,
            };
            let cache = scale.cache_bytes();
            for persist in [PersistMode::Persist, PersistMode::Extend] {
                let loose = HamsPlatform::scaled_config(AttachMode::Loose, persist, cache);
                let tight = HamsPlatform::scaled_config(AttachMode::Tight, persist, cache);
                // mmap, FlatFlash and NVDIMM-C get `ssd_dram_bytes` of SSD
                // DRAM, so HAMS-L must see exactly the same.
                assert_eq!(
                    loose.ssd.dram_capacity_bytes,
                    scale.ssd_dram_bytes(),
                    "divisor {capacity_divisor}"
                );
                assert_eq!(tight.ssd.dram_capacity_bytes, 0);
                for config in [loose, tight] {
                    assert_eq!(config.persist, persist);
                    assert_eq!(config.nvdimm.capacity_bytes, cache);
                    assert_eq!(config.mos_page_size, SCALED_MOS_PAGE_BYTES);
                    assert_eq!(config.queues, QueueConfig::striped(SCALED_QUEUE_PAIRS));
                    assert_eq!(config.shards, ShardConfig::single());
                    assert_eq!(config.pinned, PinnedRegionLayout::tiny_for_tests());
                }
            }
        }
    }

    #[test]
    fn the_cxl_attach_is_the_tight_config_on_another_link() {
        for persist in [PersistMode::Persist, PersistMode::Extend] {
            let cxl = HamsPlatform::scaled_config(AttachMode::Cxl, persist, 8 << 20);
            let tight = HamsPlatform::scaled_config(AttachMode::Tight, persist, 8 << 20);
            assert_eq!(cxl.attach, AttachMode::Cxl);
            assert_eq!(
                HamsConfig {
                    attach: AttachMode::Tight,
                    ..cxl
                },
                tight
            );
            assert_eq!(cxl.backend, BackendTopology::Single);
        }
    }

    #[test]
    fn names_follow_the_papers_convention() {
        assert_eq!(
            HamsPlatform::scaled(AttachMode::Loose, PersistMode::Persist, 8 << 20).name(),
            "hams-LP"
        );
        assert_eq!(
            HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, 8 << 20).name(),
            "hams-TE"
        );
        assert_eq!(
            HamsPlatform::scaled(AttachMode::Cxl, PersistMode::Extend, 8 << 20).name(),
            "hams-CE"
        );
    }

    #[test]
    fn hams_never_reports_os_time() {
        let mut p = HamsPlatform::scaled(AttachMode::Loose, PersistMode::Extend, 8 << 20);
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            let o = p.access(&acc(i * 8192, i % 2 == 0), t);
            assert_eq!(o.os_time, Nanos::ZERO);
            assert_eq!(o.ssd_time, Nanos::ZERO);
            t = o.finished_at;
        }
        assert!(p.hit_rate().is_some());
        assert!(p.is_persistent());
    }

    #[test]
    fn memory_delay_breakdown_is_populated_after_misses() {
        let mut p = HamsPlatform::scaled(AttachMode::Loose, PersistMode::Extend, 4 << 20);
        let mut t = Nanos::ZERO;
        for i in 0..512u64 {
            t = p.access(&acc(i * 4096, false), t).finished_at;
        }
        let d = p.memory_delay();
        assert!(d.component("nvdimm") > Nanos::ZERO);
        assert!(d.component("ssd") > Nanos::ZERO);
    }

    #[test]
    fn batch_override_matches_per_access_path_including_delay_stats() {
        let batch: Vec<BatchRequest> = (0..256u64)
            .map(|i| BatchRequest {
                access: acc(i * 4096 % (64 * 4096), i % 3 == 0),
                compute: Nanos::from_nanos(i % 11 * 7),
            })
            .collect();
        let start = Nanos::from_micros(1);

        let mut reference = HamsPlatform::scaled(AttachMode::Loose, PersistMode::Persist, 4 << 20);
        let mut expected = Vec::new();
        let mut t = start;
        for request in &batch {
            let o = reference.access(&request.access, t + request.compute);
            t = o.finished_at;
            expected.push(o);
        }

        let mut batched = HamsPlatform::scaled(AttachMode::Loose, PersistMode::Persist, 4 << 20);
        let mut result = BatchOutcome::with_capacity(batch.len());
        batched.serve_batch_into(&batch, start, &mut result);

        assert_eq!(result.outcomes, expected);
        assert_eq!(batched.memory_delay(), reference.memory_delay());
        assert_eq!(
            batched.controller().stats().hits,
            reference.controller().stats().hits
        );
        assert_eq!(
            batched.controller().stats().misses,
            reference.controller().stats().misses
        );
    }

    #[test]
    fn multi_queue_batch_override_matches_the_per_access_path() {
        let batch: Vec<BatchRequest> = (0..256u64)
            .map(|i| BatchRequest {
                access: acc(i * 32 * 1024 % (96 * 32 * 1024), i % 3 == 0),
                compute: Nanos::from_nanos(i % 13 * 5),
            })
            .collect();
        let start = Nanos::from_micros(1);
        let build = || {
            te_with(|c| {
                c.with_mos_page_size(32 * 1024)
                    .with_queues(QueueConfig::striped(4))
            })
        };

        let mut reference = build();
        let mut expected = Vec::new();
        let mut t = start;
        for request in &batch {
            let o = reference.access(&request.access, t + request.compute);
            t = o.finished_at;
            expected.push(o);
        }

        let mut batched = build();
        let mut result = BatchOutcome::with_capacity(batch.len());
        batched.serve_batch_into(&batch, start, &mut result);
        assert_eq!(result.outcomes, expected);
        assert_eq!(batched.memory_delay(), reference.memory_delay());
    }

    #[test]
    fn queue_shape_is_honoured_and_speeds_up_cold_reads() {
        let build = |queues| te_with(|c| c.with_mos_page_size(32 * 1024).with_queues(queues));
        let mut single = build(QueueConfig::single());
        let mut striped = build(QueueConfig::striped(4));
        assert_eq!(striped.controller().engine().num_queues(), 4);
        let mut t_s = Nanos::ZERO;
        let mut t_m = Nanos::ZERO;
        for i in 0..128u64 {
            let a = acc(i * 32 * 1024, true);
            t_s = single.access(&a, t_s).finished_at;
            t_m = striped.access(&a, t_m).finished_at;
        }
        for i in 0..256u64 {
            let a = acc(i % 160 * 32 * 1024, false);
            t_s = single.access(&a, t_s).finished_at;
            t_m = striped.access(&a, t_m).finished_at;
        }
        assert!(
            t_m < t_s,
            "multi-queue ({t_m}) must finish the miss stream before single queue ({t_s})"
        );
    }

    #[test]
    fn shard_shape_is_honoured_and_metrics_neutral() {
        let mut single = HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, 4 << 20);
        let mut sharded = te_with(|c| c.with_shards(ShardConfig::interleaved(8)));
        assert_eq!(sharded.controller().num_shards(), 8);
        let mut t_s = Nanos::ZERO;
        let mut t_m = Nanos::ZERO;
        for i in 0..512u64 {
            let a = acc(i * 7 % 1600 * 4096, i % 3 == 0);
            let s = single.access(&a, t_s);
            let m = sharded.access(&a, t_m);
            assert_eq!(s, m, "shard shape changed an access outcome");
            t_s = s.finished_at;
            t_m = m.finished_at;
        }
        assert_eq!(single.memory_delay(), sharded.memory_delay());
        assert_eq!(single.hit_rate(), sharded.hit_rate());
    }

    #[test]
    fn raid_backend_is_honoured_and_speeds_up_cold_reads() {
        use hams_flash::LBA_SIZE;
        let build = |backend| {
            te_with(|c| {
                c.with_mos_page_size(32 * 1024)
                    .with_queues(QueueConfig::striped(8))
                    .with_backend(backend)
            })
        };
        let mut single = build(BackendTopology::single());
        let mut raid = build(BackendTopology::raid0_striped(4, LBA_SIZE));
        assert_eq!(raid.controller().num_devices(), 4);
        let mut t_s = Nanos::ZERO;
        let mut t_r = Nanos::ZERO;
        for i in 0..96u64 {
            let a = acc(i * 32 * 1024, true);
            t_s = single.access(&a, t_s).finished_at;
            t_r = raid.access(&a, t_r).finished_at;
        }
        for i in 0..256u64 {
            let a = acc(i % 160 * 32 * 1024, false);
            t_s = single.access(&a, t_s).finished_at;
            t_r = raid.access(&a, t_r).finished_at;
        }
        assert!(
            t_r < t_s,
            "4-device RAID-0 ({t_r}) must finish the miss stream before one device ({t_s})"
        );
    }

    #[test]
    fn with_shards_pins_the_directory_shape() {
        let p = te_with(|c| c.with_shards(ShardConfig::blocked(3)));
        assert_eq!(p.controller().shard_config(), ShardConfig::blocked(3));
        assert_eq!(p.controller().num_shards(), 3);
    }

    #[test]
    fn tight_platform_without_ssd_dram_reports_no_dram_energy() {
        let mut p = HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, 4 << 20);
        let mut t = Nanos::ZERO;
        for i in 0..256u64 {
            t = p.access(&acc(i * 4096, true), t).finished_at;
        }
        let e = p.device_energy(t);
        assert_eq!(e.component_joules("internal_dram"), 0.0);
        assert!(e.component_joules("nvdimm") > 0.0);
    }
}
