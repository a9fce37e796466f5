//! The HAMS controller: the memory-controller-hub logic that aggregates
//! NVDIMM and ULL-Flash into one Memory-over-Storage address space.
//!
//! [`HamsController::access`] is the single entry point the MMU-facing
//! platform uses: given a MoS byte address, a read/write flag and the current
//! simulated time it returns when the access completes and how the latency
//! splits across NVDIMM, the DMA interface and the SSD — the decomposition of
//! Fig. 18. The controller implements:
//!
//! * the direct-mapped NVDIMM cache with tag/valid/dirty/busy bits (Fig. 11)
//!   in one flat directory ([`ShardedTagArray`]): each access decodes its
//!   address once, a shift for the page and one division for the set and
//!   tag, and every directory call of the access uses that set. The bank
//!   label of a set is only stamped on journal tags and spans,
//! * fill and eviction via the in-controller NVMe engine with journal tags,
//! * hazard avoidance through PRP-pool cloning, the busy bit and the wait
//!   queue (Fig. 13–14),
//! * loose (PCIe) and tight (DDR4 register interface + lock register) attach,
//! * persist (`FUA`, single outstanding command) and extend modes,
//! * power-failure handling and journal-tag recovery (Fig. 15),
//! * the multi-device archive backend ([`hams_flash::ArchiveSet`]): fills
//!   and evictions route to the device owning their stripe, journal tags
//!   carry `(shard, device)`, and the CXL-attached topology moves pages
//!   across the CXL link instead of the attach-mode interface.

use hams_flash::{
    ArchiveSet, ArrayState, BackendTopology, FaultPlan, FaultStats, PowerLossReport, SsdDevice,
    LBA_SIZE,
};
use hams_interconnect::{
    BusMaster, CxlConfig, CxlLink, Ddr4Channel, Ddr4Config, LockRegister, PcieConfig, PcieLink,
    RegisterInterface, RegisterInterfaceConfig,
};
use hams_nvdimm::{Nvdimm, PinnedRegion};
use hams_nvme::NvmeCommand;
use hams_sim::{ComponentId, LatencyVector, Nanos};
use hams_telemetry::{Layer, Span, TelemetrySink};
use serde::{Deserialize, Serialize};

use crate::config::{assert_mos_page_size, AttachMode, HamsConfig, PersistMode};
use crate::engine::NvmeEngine;
use crate::prp_pool::PrpPool;
use crate::tag_array::{SetRef, ShardConfig, ShardedTagArray, TagProbe};

/// Tag lookup: a tCL plus a few tBURSTs out of the NVDIMM (<20 ns).
const TAG_READ: Nanos = Nanos::from_nanos(15);

/// The result of one MoS access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MosAccessResult {
    /// Simulated time at which the access completed and the MMU can retry the
    /// stalled instruction.
    pub finished_at: Nanos,
    /// Whether the access hit in the NVDIMM cache.
    pub hit: bool,
    /// Latency components of this access: `nvdimm`, `dma`, `ssd`, `hams`.
    pub breakdown: LatencyVector,
}

impl MosAccessResult {
    /// Latency relative to the request time.
    #[must_use]
    pub fn latency(&self, issued_at: Nanos) -> Nanos {
        self.finished_at - issued_at
    }
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HamsStats {
    /// Total MoS accesses served.
    pub accesses: u64,
    /// NVDIMM cache hits.
    pub hits: u64,
    /// NVDIMM cache misses.
    pub misses: u64,
    /// Dirty evictions written to ULL-Flash.
    pub evictions: u64,
    /// Clean replacements (no write-back needed).
    pub clean_replacements: u64,
    /// Accesses that stalled in the wait queue behind a busy entry.
    pub wait_stalls: u64,
    /// Bytes moved from ULL-Flash into NVDIMM (fills).
    pub fill_bytes: u64,
    /// Bytes moved from NVDIMM to ULL-Flash (evictions).
    pub eviction_bytes: u64,
    /// Dirty evictions that found every PRP-pool clone slot still held by
    /// an in-flight eviction. The model parks the new clone over slot 0
    /// without waiting for it to free, so this counts the clones that may
    /// overwrite data an earlier eviction is still reading.
    pub prp_pool_full: u64,
    /// Accumulated memory-delay components across all accesses
    /// (`nvdimm`, `dma`, `ssd`, `hams`) — the series of Fig. 18.
    pub delay: LatencyVector,
}

impl HamsStats {
    /// NVDIMM cache hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// What a power failure found in flight.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerFailureEvent {
    /// Time the NVDIMM supercapacitor backup takes.
    pub nvdimm_backup: Nanos,
    /// What happened inside the SSD (super-capacitor flush or data loss).
    pub ssd: PowerLossReport,
    /// Number of journal-tagged NVMe commands that had not completed.
    pub incomplete_commands: usize,
}

/// The outcome of the recovery procedure after power returns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// MoS pages whose in-flight commands were re-issued and completed.
    pub reissued_pages: Vec<u64>,
    /// Time at which recovery (NVDIMM restore plus re-issued I/O) finished.
    pub completed_at: Nanos,
}

/// The HAMS controller.
///
/// # Example
///
/// ```
/// use hams_core::{AttachMode, HamsConfig, HamsController, PersistMode};
/// use hams_sim::Nanos;
///
/// let cfg = HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Extend);
/// let mut hams = HamsController::new(cfg);
/// let miss = hams.access(0, false, 64, Nanos::ZERO);
/// let hit = hams.access(64, false, 64, miss.finished_at);
/// assert!(!miss.hit);
/// assert!(hit.hit);
/// assert_eq!(hams.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct HamsController {
    config: HamsConfig,
    tags: ShardedTagArray,
    nvdimm: Nvdimm,
    pinned: PinnedRegion,
    archive: ArchiveSet,
    /// The archive set's exported capacity, fixed when the controller is
    /// built: every access range-checks against it.
    mos_capacity: u64,
    /// log2 of the MoS page size, fixed when the controller is built: a
    /// byte address's page number is one shift.
    page_shift: u32,
    ddr: Ddr4Channel,
    pcie: PcieLink,
    cxl: CxlLink,
    reg_iface: RegisterInterface,
    lock: LockRegister,
    engine: NvmeEngine,
    prp_pool: PrpPool,
    /// Completion time of the most recent SSD command; persist mode forbids a
    /// new command before this.
    persist_gate: Nanos,
    stats: HamsStats,
    /// Reused drain buffer for [`NvmeEngine::retire_due_into`]: the retire
    /// scan runs once or twice per access, so the hot path never allocates
    /// a fresh page list.
    retire_scratch: Vec<u64>,
    /// Reused buffers for the multi-stripe fill path (one fill per miss):
    /// stripe LBA ranges, issued segment descriptors, per-stripe completion
    /// times, and coalesced MSI delivery times.
    fill_ranges: Vec<(u64, u64)>,
    fill_segments: Vec<(u16, u64, u64)>,
    fill_completions: Vec<Nanos>,
    fill_delivered: Vec<Nanos>,
    /// Telemetry sink for simulated-time spans. [`TelemetrySink::Noop`] by
    /// default: the hot path pays one tag test and never builds a span.
    /// Tracing is observation-only — spans record already-computed
    /// timestamps, so enabling the sink cannot change simulated metrics
    /// (`tests/telemetry_equivalence.rs`).
    trace: TelemetrySink,
}

impl HamsController {
    /// Builds a controller from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the MoS page size is not a power-of-two multiple of 4 KB,
    /// or if the NVDIMM is too small to host the pinned region plus at least
    /// one MoS page.
    #[must_use]
    pub fn new(config: HamsConfig) -> Self {
        assert_mos_page_size(config.mos_page_size);
        let nvdimm = Nvdimm::new(config.nvdimm);
        let pinned = PinnedRegion::at_top_of(nvdimm.capacity_bytes(), config.pinned);
        let num_sets = (pinned.cacheable_bytes() / config.mos_page_size) as usize;
        assert!(num_sets > 0, "NVDIMM too small for even one MoS page");
        let prp_slots = (pinned.layout().prp_pool_slots(config.mos_page_size) as usize).max(1);
        let archive = ArchiveSet::new(config.ssd, config.backend, config.mos_page_size);
        let engine = NvmeEngine::with_backend(
            config.queues,
            config.shards,
            num_sets as u64,
            archive.num_devices(),
            archive.stripe_lbas(),
        );
        HamsController {
            tags: ShardedTagArray::with_config(num_sets, config.shards),
            mos_capacity: archive.capacity_bytes(),
            page_shift: config.mos_page_size.trailing_zeros(),
            archive,
            ddr: Ddr4Channel::new(Ddr4Config::ddr4_2666()),
            pcie: PcieLink::new(PcieConfig::gen3_x4()),
            cxl: CxlLink::new(CxlConfig::cxl_x4()),
            reg_iface: RegisterInterface::new(RegisterInterfaceConfig::ddr4_2666()),
            lock: LockRegister::new(),
            engine,
            prp_pool: PrpPool::new(prp_slots),
            persist_gate: Nanos::ZERO,
            stats: HamsStats::default(),
            retire_scratch: Vec::new(),
            fill_ranges: Vec::new(),
            fill_segments: Vec::new(),
            fill_completions: Vec::new(),
            fill_delivered: Vec::new(),
            trace: TelemetrySink::disabled(),
            nvdimm,
            pinned,
            config,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &HamsConfig {
        &self.config
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &HamsStats {
        &self.stats
    }

    /// Total byte-addressable MoS capacity exposed to the MMU (the exported
    /// capacity of the archive set's unified address space).
    #[must_use]
    pub fn mos_capacity_bytes(&self) -> u64 {
        self.mos_capacity
    }

    /// Number of NVDIMM cache sets (MoS pages resident simultaneously).
    #[must_use]
    pub fn cache_sets(&self) -> usize {
        self.tags.num_sets()
    }

    /// Number of tag-directory bank labels.
    #[must_use]
    pub fn num_shards(&self) -> u16 {
        self.tags.num_shards()
    }

    /// The tag-directory shard shape in force.
    #[must_use]
    pub fn shard_config(&self) -> ShardConfig {
        self.tags.shard_config()
    }

    /// The tag-directory bank labelling the set that MoS page `page` maps to.
    #[must_use]
    pub fn shard_of_page(&self, page: u64) -> u16 {
        self.tags.shard_of_page(page)
    }

    /// The MoS page number containing a byte address.
    #[must_use]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Read access to the primary SSD model — the whole backend under
    /// [`BackendTopology::single`]. Multi-device accounting goes through
    /// [`Self::archive`].
    #[must_use]
    pub fn ssd(&self) -> &SsdDevice {
        self.archive.primary()
    }

    /// Read access to the archive set backing the MoS address space.
    #[must_use]
    pub fn archive(&self) -> &ArchiveSet {
        &self.archive
    }

    /// The archive backend topology in force (stripe unit resolved).
    #[must_use]
    pub fn backend_topology(&self) -> BackendTopology {
        self.archive.topology()
    }

    /// Number of devices in the archive set.
    #[must_use]
    pub fn num_devices(&self) -> u16 {
        self.archive.num_devices()
    }

    /// The archive-set device owning MoS page `page`'s first stripe. With
    /// the default MoS-page stripe granularity the whole page lives there,
    /// as its directory state lives in one set.
    #[must_use]
    pub fn device_of_page(&self, page: u64) -> u16 {
        self.archive.device_of_slba(self.slba_of(page))
    }

    /// Read access to the NVDIMM model.
    #[must_use]
    pub fn nvdimm(&self) -> &Nvdimm {
        &self.nvdimm
    }

    /// Serves one MoS access of `size` bytes at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies beyond the MoS capacity.
    pub fn access(&mut self, addr: u64, is_write: bool, size: u64, now: Nanos) -> MosAccessResult {
        let mut breakdown = LatencyVector::new();
        let (finished_at, hit) = self.access_into(addr, is_write, size, now, &mut breakdown);
        self.stats.delay.merge(&breakdown);
        MosAccessResult {
            finished_at,
            hit,
            breakdown,
        }
    }

    /// [`Self::access`] for batch serving: the critical-path delay breakdown
    /// accumulates into the caller-owned `breakdown` instead of a fresh
    /// per-access map, and the caller folds it into the controller's
    /// aggregate stats once per batch via [`Self::merge_delay`]. Simulated
    /// timing is identical to [`Self::access`]; only the host-side
    /// bookkeeping (one breakdown map per batch rather than two per access)
    /// is amortized. Returns `(finished_at, hit)`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies beyond the MoS capacity.
    pub fn access_into(
        &mut self,
        addr: u64,
        is_write: bool,
        size: u64,
        now: Nanos,
        breakdown: &mut LatencyVector,
    ) -> (Nanos, bool) {
        assert!(
            addr < self.mos_capacity,
            "MoS address {addr:#x} beyond capacity"
        );
        let page = self.page_of(addr);
        // The one set/tag division of the access.
        let at = self.tags.locate(page);
        let traced = self.trace.is_enabled();
        let mut t = now + self.config.controller_overhead;
        breakdown.add(ComponentId::HAMS, self.config.controller_overhead);

        // Retire anything whose device service has completed.
        self.engine.retire_due_into(t, &mut self.retire_scratch);

        breakdown.add(ComponentId::NVDIMM, TAG_READ);
        let tag_read_at = t;
        t += TAG_READ;

        // Wait-queue: if the target set has an in-flight fill or eviction,
        // the request parks until the busy bit clears (§V-B, Fig. 14).
        let mut waited: Option<(Nanos, Nanos)> = None;
        if let Some(free_at) = self.tags.busy_until_at(at, t) {
            self.stats.wait_stalls += 1;
            breakdown.add(ComponentId::HAMS, free_at - t);
            if traced {
                waited = Some((t, free_at));
            }
            t = free_at;
            self.engine.retire_due_into(t, &mut self.retire_scratch);
        }

        let probe = self.tags.probe_at(at);
        self.stats.accesses += 1;
        let hit = matches!(probe, TagProbe::Hit);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }

        match probe {
            TagProbe::Hit => {}
            TagProbe::MissEmpty => {
                t = self.fill(page, at, is_write, t, breakdown);
            }
            TagProbe::MissClean { .. } => {
                self.stats.clean_replacements += 1;
                t = self.fill(page, at, is_write, t, breakdown);
            }
            TagProbe::MissDirty { victim_page } => {
                let (slot_free_at, eviction_done) = self.evict(victim_page, t, breakdown);
                let fill_start = match self.config.persist {
                    // Persist mode: only one command in flight, so the fill
                    // waits for the eviction to reach the flash.
                    PersistMode::Persist => eviction_done,
                    // Extend mode: the fill may start as soon as the victim's
                    // data is safe in the PRP-pool clone.
                    PersistMode::Extend => slot_free_at,
                };
                t = self.fill(page, at, is_write, fill_start, breakdown);
            }
        }

        // Serve the CPU-visible access from NVDIMM.
        let ddr_t = self.ddr.transfer(size, t);
        let array = if is_write {
            self.nvdimm.write(size)
        } else {
            self.nvdimm.read(size)
        };
        breakdown.add(ComponentId::NVDIMM, ddr_t.latency() + array);
        t = ddr_t.finished_at + array;

        if is_write {
            self.tags.mark_dirty_at(at);
        }

        if traced {
            self.trace_access_spans(page, hit, now, t, tag_read_at, waited);
        }

        (t, hit)
    }

    /// Emits the controller-level spans of one access: the enclosing
    /// controller span, the tag-directory probe and any wait-queue stall.
    /// Called only when tracing is on; every argument is a value the access
    /// already computed. Cold and out of line, like [`Self::evict`], so the
    /// untraced hit path through `access_into` stays small.
    #[cold]
    fn trace_access_spans(
        &mut self,
        page: u64,
        hit: bool,
        started: Nanos,
        finished: Nanos,
        tag_read_at: Nanos,
        waited: Option<(Nanos, Nanos)>,
    ) {
        let shard = self.tags.shard_of_page(page);
        self.trace.record(
            Span::new(Layer::Controller, "access", started, finished)
                .with_shard(shard)
                .with_request(page),
        );
        self.trace.record(
            Span::new(
                Layer::TagArray,
                if hit { "tag_hit" } else { "tag_miss" },
                tag_read_at,
                tag_read_at + TAG_READ,
            )
            .with_shard(shard)
            .with_request(page),
        );
        if let Some((from, until)) = waited {
            self.trace.record(
                Span::new(Layer::TagArray, "wait_stall", from, until)
                    .with_shard(shard)
                    .with_request(page),
            );
        }
    }

    /// Folds a batch-accumulated delay breakdown into the controller's
    /// aggregate [`HamsStats::delay`]; the batch-serving counterpart of the
    /// per-access merge [`Self::access`] performs.
    pub fn merge_delay(&mut self, breakdown: &LatencyVector) {
        self.stats.delay.merge(breakdown);
    }

    /// Read access to the in-controller NVMe engine (queue shape, journal
    /// and MSI-coalescing counters).
    #[must_use]
    pub fn engine(&self) -> &NvmeEngine {
        &self.engine
    }

    /// Installs a fault plan on the archive set (see
    /// [`hams_flash::fault`]). The plan's state machine advances on the
    /// simulated clock of the serial archive command stream, so fault
    /// timing is deterministic for a given workload whatever the host
    /// thread count. Requires the parity backend
    /// ([`BackendTopology::Raid5`]), fixed when the controller is built.
    /// Arming the injector does not change the archive's shape.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.archive.set_fault_plan(plan);
    }

    /// Current degraded-state-machine state of the archive set
    /// (`Healthy` when no fault plan is installed).
    #[must_use]
    pub fn array_state(&self) -> ArrayState {
        self.archive.array_state()
    }

    /// Fault / reconstruction / rebuild accounting, if a fault plan is
    /// installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.archive.fault_stats()
    }

    /// Advances the fault state machine to `now` without serving traffic —
    /// how a harness lets a pending rebuild finish after the last
    /// foreground access — and exports any completed rebuild rows as
    /// archive-layer trace spans. A no-op without a plan.
    pub fn advance_faults(&mut self, now: Nanos) {
        self.archive.advance_faults(now);
        self.flush_rebuild_trace();
    }

    /// Moves completed rebuild rows out of the archive set and into the
    /// trace sink as `Layer::Archive` "rebuild_row" spans (tagged with the
    /// rebuilt device and row). Rebuild is archive-internal background
    /// traffic, so its spans surface at drain points rather than inline on
    /// the foreground hot path; with tracing off the rows are discarded.
    fn flush_rebuild_trace(&mut self) {
        if self.archive.fault().is_none() {
            return;
        }
        let spans = self.archive.drain_rebuild_spans();
        if !self.trace.is_enabled() {
            return;
        }
        for row in spans {
            self.trace.record(
                Span::new(Layer::Archive, "rebuild_row", row.start, row.end)
                    .with_device(row.device)
                    .with_request(row.row),
            );
        }
    }

    /// Installs a telemetry sink. [`TelemetrySink::disabled`] restores the
    /// default no-op sink. Tracing is observation-only: spans record
    /// already-computed simulated timestamps and never feed back into
    /// timing, so metrics are byte-identical with any sink installed.
    pub fn set_trace_sink(&mut self, sink: TelemetrySink) {
        self.trace = sink;
    }

    /// Hands back the installed sink, with any pending rebuild-row spans
    /// flushed into it, and leaves tracing off. The default sink comes back
    /// as [`TelemetrySink::Noop`].
    pub fn take_trace_sink(&mut self) -> TelemetrySink {
        self.flush_rebuild_trace();
        std::mem::take(&mut self.trace)
    }

    /// First LBA of a MoS page.
    fn slba_of(&self, page: u64) -> u64 {
        page * self.config.mos_page_size / LBA_SIZE
    }

    /// Moves a MoS page between the archive and NVDIMM over the configured
    /// interface. Returns `(finished_at, dma_time)`.
    fn transfer_page(&mut self, start: Nanos) -> (Nanos, Nanos) {
        let page_bytes = self.config.mos_page_size;
        if self.archive.topology().uses_cxl() {
            // CXL-attached backend: the page crosses the CXL link, then the
            // DDR4 channel into/out of the NVDIMM — the loose-attach shape
            // with the faster, flit-framed link in place of PCIe.
            let t = self.cxl.transfer(page_bytes, start);
            let d = self.ddr.transfer(page_bytes, t.finished_at);
            return (d.finished_at, t.latency() + d.latency());
        }
        match self.config.attach {
            AttachMode::Loose => {
                let t = self.pcie.transfer(page_bytes, start);
                // The page also crosses the DDR4 channel into/out of NVDIMM.
                let d = self.ddr.transfer(page_bytes, t.finished_at);
                (d.finished_at, t.latency() + d.latency())
            }
            AttachMode::Tight => {
                // The NVMe controller takes the bus via the lock register and
                // DMAs directly against the NVDIMM over DDR4.
                let _ = self.lock.acquire(BusMaster::NvmeController);
                let d = self.ddr.transfer(page_bytes, start);
                let _ = self.lock.release(BusMaster::NvmeController);
                (d.finished_at, d.latency())
            }
        }
    }

    /// Submits one NVMe command over the configured interface. Returns
    /// `(finished_at, dma_time)`.
    fn submit_command(&mut self, start: Nanos) -> (Nanos, Nanos) {
        if self.archive.topology().uses_cxl() {
            // Doorbell and command fetch over CXL.io: cheaper than a PCIe
            // BAR write, dearer than the DDR4 register interface.
            let overhead = self.cxl.config().command_overhead;
            return (start + overhead, overhead);
        }
        match self.config.attach {
            AttachMode::Loose => {
                let overhead = self.config.pcie_command_overhead;
                (start + overhead, overhead)
            }
            AttachMode::Tight => {
                let t = self.reg_iface.send_command(&mut self.ddr, start);
                (t.finished_at, t.latency())
            }
        }
    }

    /// Evicts a dirty victim page. Returns `(slot_free_at, eviction_done)`:
    /// the cache slot becomes reusable once the clone is in the PRP pool;
    /// the data is durable on flash at `eviction_done`.
    ///
    /// Out of line on purpose: inlined into its only caller it would roughly
    /// triple the code of `access_into`, whose hit path never evicts.
    #[inline(never)]
    fn evict(
        &mut self,
        victim_page: u64,
        now: Nanos,
        breakdown: &mut LatencyVector,
    ) -> (Nanos, Nanos) {
        self.stats.evictions += 1;
        let page_bytes = self.config.mos_page_size;
        self.stats.eviction_bytes += page_bytes;

        // 1. Clone the victim into the PRP pool (read + write inside NVDIMM).
        //    This always blocks the access: the cache slot cannot be reused
        //    before the clone exists.
        let read = self.ddr.transfer(page_bytes, now);
        let write = self.ddr.transfer(page_bytes, read.finished_at);
        let array = self.nvdimm.read(page_bytes) + self.nvdimm.write(page_bytes);
        breakdown.add(
            ComponentId::NVDIMM,
            read.latency() + write.latency() + array,
        );
        let clone_done = write.finished_at + array;

        // The command submission, data transfer and flash program block the
        // access only in persist mode; in extend mode they proceed in the
        // background, off the access's breakdown.
        let blocking = matches!(self.config.persist, PersistMode::Persist);

        // 2. Compose and submit the eviction command.
        let persist_start = match self.config.persist {
            PersistMode::Persist => clone_done.max(self.persist_gate),
            PersistMode::Extend => clone_done,
        };
        let (submitted, submit_dma) = self.submit_command(persist_start);

        // 3. Data moves from the clone to the device, then the device programs
        //    it (FUA in persist mode forces it to the Z-NAND immediately).
        let (transferred, transfer_dma) = self.transfer_page(submitted);
        let fua = blocking;
        let cmd = NvmeCommand::write(
            1,
            self.slba_of(victim_page),
            page_bytes,
            hams_nvme::PrpList::for_transfer(0, page_bytes, 4096),
        )
        .with_fua(fua);
        let completion = self
            .archive
            .service(&cmd, transferred)
            .expect("eviction write within device capacity");
        let eviction_done = completion.finished_at;
        if blocking {
            breakdown.add(ComponentId::DMA, submit_dma + transfer_dma);
            breakdown.add(ComponentId::SSD, eviction_done - transferred);
        }

        if self.trace.is_enabled() {
            let queue = self.engine.queue_for_page(victim_page);
            let device = self.archive.device_of_slba(self.slba_of(victim_page));
            self.trace.record(
                Span::new(Layer::Nvme, "evict_submit", persist_start, submitted)
                    .with_queue(queue)
                    .with_device(device)
                    .with_request(victim_page),
            );
            self.trace.record(
                Span::new(Layer::Archive, "evict_write", transferred, eviction_done)
                    .with_queue(queue)
                    .with_device(device)
                    .with_request(victim_page),
            );
        }

        // 4. Track the command for journal-tag recovery, park the clone.
        //    A full pool parks it over slot 0 without waiting (counted).
        let slot = self
            .prp_pool
            .allocate(victim_page, eviction_done, now)
            .unwrap_or_else(|| {
                self.stats.prp_pool_full += 1;
                0
            });
        let nvdimm_clone_addr = self.pinned.prp_slot_address(slot as u64, page_bytes);
        let _ = self.engine.issue_write(
            victim_page,
            self.slba_of(victim_page),
            page_bytes,
            nvdimm_clone_addr,
            fua,
            eviction_done,
        );

        if matches!(self.config.persist, PersistMode::Persist) {
            self.persist_gate = self.persist_gate.max(eviction_done);
        }

        (clone_done, eviction_done)
    }

    /// Number of stripe commands a fill is split into: one per queue pair,
    /// bounded by the page's LBA count. Persist mode keeps at most one NVMe
    /// command outstanding (§IV-B), so it never stripes.
    fn fill_stripes(&self, page_bytes: u64) -> u64 {
        match self.config.persist {
            PersistMode::Persist => 1,
            PersistMode::Extend => u64::from(self.config.queues.num_queues)
                .min(page_bytes / LBA_SIZE)
                .max(1),
        }
    }

    /// Fills `page`, resolved to `at`, into its NVDIMM set. A write to a
    /// page that has never reached flash skips the fetch (write-allocate
    /// without fetch). Returns the time the data is available in NVDIMM.
    ///
    /// With a multi-queue [`hams_nvme::QueueConfig`], the fill is striped
    /// into one read command per queue pair: the device services the stripes
    /// concurrently (its firmware walks each command's sub-requests
    /// independently) and the completion interrupts coalesce through the
    /// engine's MSI model, so the page is ready when the interrupt covering
    /// the last stripe arrives. [`hams_nvme::QueueConfig::single`] takes the
    /// original single-command path, byte for byte.
    fn fill(
        &mut self,
        page: u64,
        at: SetRef,
        is_write: bool,
        now: Nanos,
        breakdown: &mut LatencyVector,
    ) -> Nanos {
        let page_bytes = self.config.mos_page_size;
        // NVDIMM byte address of the cache set the page fills.
        let base_addr = at.set as u64 * page_bytes;
        let start = match self.config.persist {
            PersistMode::Persist => now.max(self.persist_gate),
            PersistMode::Extend => now,
        };

        let data_ready = if is_write && !self.page_durable_on_flash(page) {
            // Nothing to fetch: the page has never been written to flash, or
            // the access overwrites it entirely; claim the slot directly.
            start
        } else if self.fill_stripes(page_bytes) <= 1 {
            // The degenerate single-stripe path (single-LBA pages, a single
            // queue pair, or persist mode): no stripe bookkeeping at all —
            // the one command is composed once and journalled verbatim
            // ([`NvmeEngine::issue_read_tracked`]) instead of being
            // re-derived, PRP list and all, a second time for tracking.
            self.stats.fill_bytes += page_bytes;
            let (submitted, submit_dma) = self.submit_command(start);
            breakdown.add(ComponentId::DMA, submit_dma);
            let cmd = NvmeCommand::read(
                1,
                self.slba_of(page),
                page_bytes,
                hams_nvme::PrpList::for_transfer(base_addr, page_bytes, 4096),
            );
            let completion = self
                .archive
                .service(&cmd, submitted)
                .expect("fill read within device capacity");
            breakdown.add(ComponentId::SSD, completion.finished_at - submitted);
            if self.trace.is_enabled() {
                let queue = self.engine.queue_for_page(page);
                let device = self.archive.device_of_slba(self.slba_of(page));
                self.trace.record(
                    Span::new(Layer::Nvme, "fill_submit", start, submitted)
                        .with_queue(queue)
                        .with_device(device)
                        .with_request(page),
                );
                self.trace.record(
                    Span::new(
                        Layer::Archive,
                        "fill_read",
                        submitted,
                        completion.finished_at,
                    )
                    .with_queue(queue)
                    .with_device(device)
                    .with_request(page),
                );
            }
            let (transferred, transfer_dma) = self.transfer_page(completion.finished_at);
            breakdown.add(ComponentId::DMA, transfer_dma);
            // Landing the page in the NVDIMM array.
            let array = self.nvdimm.write(page_bytes);
            breakdown.add(ComponentId::NVDIMM, array);
            let _ = self
                .engine
                .issue_read_tracked(page, cmd, transferred + array);
            transferred + array
        } else {
            self.stats.fill_bytes += page_bytes;
            let stripes = self.fill_stripes(page_bytes);
            let base_slba = self.slba_of(page);
            // One stripe command per queue pair over the page's LBA range.
            // The stripe bookkeeping runs in controller-owned scratch buffers
            // (one fill per miss makes this the hottest allocation site); the
            // buffers are taken out of `self` for the duration of the loop so
            // the iteration can borrow them alongside `&mut self` calls.
            let mut ranges = std::mem::take(&mut self.fill_ranges);
            let mut segments = std::mem::take(&mut self.fill_segments);
            let mut completions = std::mem::take(&mut self.fill_completions);
            let mut delivered = std::mem::take(&mut self.fill_delivered);
            hams_nvme::stripe_ranges_into(page_bytes / LBA_SIZE, stripes, &mut ranges);
            segments.clear();
            completions.clear();
            let mut submit_t = start;
            for (s, &(lba_offset, count)) in ranges.iter().enumerate() {
                let slba = base_slba + lba_offset;
                let length = count * LBA_SIZE;
                // Doorbell writes serialize over the command interface; each
                // stripe's service starts as soon as its own doorbell lands.
                let doorbell_at = submit_t;
                let (submitted, submit_dma) = self.submit_command(submit_t);
                breakdown.add(ComponentId::DMA, submit_dma);
                submit_t = submitted;
                let cmd = NvmeCommand::read(
                    1,
                    slba,
                    length,
                    hams_nvme::PrpList::for_transfer(
                        base_addr + lba_offset * LBA_SIZE,
                        length,
                        4096,
                    ),
                );
                let completion = self
                    .archive
                    .service(&cmd, submit_t)
                    .expect("fill stripe within device capacity");
                completions.push(completion.finished_at);
                segments.push((s as u16, slba, length));
                if self.trace.is_enabled() {
                    let device = self.archive.device_of_slba(slba);
                    self.trace.record(
                        Span::new(Layer::Nvme, "fill_submit", doorbell_at, submit_t)
                            .with_queue(s as u16)
                            .with_device(device)
                            .with_request(page),
                    );
                    self.trace.record(
                        Span::new(
                            Layer::Archive,
                            "fill_read",
                            submit_t,
                            completion.finished_at,
                        )
                        .with_queue(s as u16)
                        .with_device(device)
                        .with_request(page),
                    );
                }
            }
            // The cache logic learns of the fill through the coalesced MSI
            // covering the last stripe completion.
            self.engine.deliver_times_into(&completions, &mut delivered);
            if self.trace.is_enabled() {
                // `delivered` is index-aligned with the *sorted* completion
                // times; sort a copy to pair each completion with its
                // coalesced interrupt (cold path, tracing only).
                let mut sorted = completions.clone();
                sorted.sort_unstable();
                for (&completed, &fired) in sorted.iter().zip(delivered.iter()) {
                    self.trace.record(
                        Span::new(Layer::Msi, "msi_delivery", completed, fired).with_request(page),
                    );
                }
            }
            let flash_ready = delivered.last().copied().unwrap_or(submit_t).max(submit_t);
            breakdown.add(ComponentId::SSD, flash_ready - submit_t);
            let (transferred, transfer_dma) = self.transfer_page(flash_ready);
            breakdown.add(ComponentId::DMA, transfer_dma);
            let array = self.nvdimm.write(page_bytes);
            breakdown.add(ComponentId::NVDIMM, array);
            for &(queue, slba, length) in &segments {
                let _ = self.engine.issue_read_on(
                    queue,
                    page,
                    slba,
                    length,
                    base_addr + (slba - base_slba) * LBA_SIZE,
                    transferred + array,
                );
            }
            self.fill_ranges = ranges;
            self.fill_segments = segments;
            self.fill_completions = completions;
            self.fill_delivered = delivered;
            transferred + array
        };

        if matches!(self.config.persist, PersistMode::Persist) {
            self.persist_gate = self.persist_gate.max(data_ready);
        }
        self.tags.fill_at(at);
        self.tags.set_busy_at(at, data_ready);
        data_ready
    }

    /// Whether every flash page backing MoS page `page` is durably mapped on
    /// the device owning its stripe.
    #[must_use]
    pub fn page_durable_on_flash(&self, page: u64) -> bool {
        let flash_page = u64::from(self.config.ssd.geometry.page_size);
        let start = page * self.config.mos_page_size / flash_page;
        let count = (self.config.mos_page_size / flash_page).max(1);
        (start..start + count).all(|lpn| self.archive.is_durable(lpn))
    }

    /// Whether the latest data of MoS page `page` would survive a power
    /// failure right now: cached in the (non-volatile) NVDIMM, durable on
    /// flash, parked in the PRP pool, or recoverable through a journal-tagged
    /// in-flight command.
    #[must_use]
    pub fn is_page_recoverable(&self, page: u64, now: Nanos) -> bool {
        let cached = self
            .tags
            .resident_page(self.tags.index_of(page))
            .is_some_and(|p| p == page);
        cached
            || self.page_durable_on_flash(page)
            || self.prp_pool.holds_page(page)
            || self
                .engine
                .journaled_incomplete(now)
                .iter()
                .any(|t| t.mos_page == page)
    }

    /// Injects a power failure at `now`.
    pub fn power_fail(&mut self, now: Nanos) -> PowerFailureEvent {
        self.engine.retire_due_into(now, &mut self.retire_scratch);
        let incomplete = self.engine.journaled_incomplete(now).len();
        // Completions scheduled for after the failure died with the power;
        // without this, a later retire_due would post success CQ entries
        // (and count completions) for commands recovery re-issues.
        self.engine.drop_in_flight_completions();
        PowerFailureEvent {
            nvdimm_backup: self.nvdimm.power_fail(),
            ssd: self.archive.power_fail(now),
            incomplete_commands: incomplete,
        }
    }

    /// Runs the power-restoration procedure of §V-C: restore the NVDIMM, scan
    /// the pinned SQ region for journal-tagged commands, re-create a queue
    /// pair for them and re-issue them to ULL-Flash. Each journal tag
    /// carries the directory bank labelling its page's set
    /// ([`crate::TrackedCommand::shard`]); the replay clears the stale busy
    /// bit the dead operation left on that set, so post-recovery accesses
    /// do not park behind a wait window that no completion will ever close.
    ///
    /// In a multi-device backend, each re-issued command routes through the
    /// archive set to the device owning its stripe — the same device the
    /// dead command was in flight to, which the journal tag records
    /// ([`crate::TrackedCommand::device`]).
    ///
    /// # Panics
    ///
    /// Panics if a journal tag's recorded bank does not match the
    /// directory's labelling of its page, or its recorded device does not
    /// match the archive's routing of its stripe. The shapes are fixed when
    /// the controller is built, so a mismatch means a corrupted journal tag;
    /// the asserts guard journal-tag integrity.
    pub fn recover(&mut self, now: Nanos) -> RecoveryReport {
        let restore_done = now + self.nvdimm.power_restore();
        let pending = self.engine.journaled_incomplete(now);
        let mut completed_at = restore_done;
        let mut reissued_pages = Vec::with_capacity(pending.len());
        let mut ids = Vec::with_capacity(pending.len());
        for tracked in &pending {
            // Recovery forces the re-issued request onto the flash medium so
            // the recovered data is durable even if the device has a volatile
            // buffer; the FUA override rides on the borrowed journal command
            // instead of cloning it (PRP list and all) to flip one bit.
            let command = &tracked.command;
            assert_eq!(
                tracked.device,
                self.archive.device_of_slba(command.slba),
                "journal tag for page {} recorded device {} but the archive \
                 routes its stripe to device {}",
                tracked.mos_page,
                tracked.device,
                self.archive.device_of_slba(command.slba)
            );
            let completion = self
                .archive
                .service_fua(command, restore_done)
                .expect("re-issued command must fit the device");
            completed_at = completed_at.max(completion.finished_at);
            // The in-flight operation died with the power; drop the busy
            // window it left on the set, after checking the journal's
            // recorded bank against the directory's labelling.
            assert_eq!(
                tracked.shard,
                self.tags.shard_of_page(tracked.mos_page),
                "journal tag for page {} recorded bank {} but the directory \
                 routes it to bank {}",
                tracked.mos_page,
                tracked.shard,
                self.tags.shard_of_page(tracked.mos_page)
            );
            self.tags.clear_busy(tracked.mos_page);
            reissued_pages.push(tracked.mos_page);
            ids.push(tracked.id);
        }
        self.engine.mark_recovered(&ids);
        reissued_pages.sort_unstable();
        reissued_pages.dedup();
        RecoveryReport {
            reissued_pages,
            completed_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(attach: AttachMode, persist: PersistMode) -> HamsController {
        HamsController::new(HamsConfig::tiny_for_tests(attach, persist))
    }

    #[test]
    fn hit_after_miss_and_hit_is_fast() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let miss = h.access(0, false, 64, Nanos::ZERO);
        assert!(!miss.hit);
        let hit = h.access(64, false, 64, miss.finished_at);
        assert!(hit.hit);
        assert!(hit.latency(miss.finished_at) < Nanos::from_micros(1));
        assert_eq!(h.stats().hits, 1);
        assert_eq!(h.stats().misses, 1);
    }

    #[test]
    fn writes_mark_pages_dirty_and_cause_evictions_on_conflict() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let sets = h.cache_sets() as u64;
        let page_size = h.config().mos_page_size;
        let mut t = Nanos::ZERO;
        // Dirty a page, then touch the page that maps to the same set.
        let r = h.access(0, true, 64, t);
        t = r.finished_at;
        let conflicting_addr = sets * page_size; // same set, different tag
        let r = h.access(conflicting_addr, true, 64, t);
        assert!(!r.hit);
        assert_eq!(h.stats().evictions, 1);
        assert!(h.stats().eviction_bytes >= page_size);
    }

    #[test]
    fn clean_conflicts_do_not_write_back() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let sets = h.cache_sets() as u64;
        let page_size = h.config().mos_page_size;
        let r = h.access(0, false, 64, Nanos::ZERO);
        let r2 = h.access(sets * page_size, false, 64, r.finished_at);
        assert!(!r2.hit);
        assert_eq!(h.stats().evictions, 0);
        assert_eq!(h.stats().clean_replacements, 1);
    }

    #[test]
    fn tight_attach_outruns_loose_attach_on_a_miss_heavy_sweep() {
        let mut loose = controller(AttachMode::Loose, PersistMode::Extend);
        let mut tight = controller(AttachMode::Tight, PersistMode::Extend);
        let finish = |h: &mut HamsController| {
            let page_size = h.config().mos_page_size;
            let span = h.cache_sets() as u64 + 64; // always misses after warm-up
            let mut t = Nanos::ZERO;
            for i in 0..300u64 {
                let addr = (i % span) * page_size;
                let r = h.access(addr, false, 64, t);
                t = r.finished_at;
            }
            t
        };
        let loose_finish = finish(&mut loose);
        let tight_finish = finish(&mut tight);
        assert!(
            tight_finish < loose_finish,
            "tight ({tight_finish}) should beat loose ({loose_finish}) when misses dominate"
        );
    }

    #[test]
    fn persist_mode_is_slower_than_extend_under_eviction_pressure() {
        let mut extend = controller(AttachMode::Loose, PersistMode::Extend);
        let mut persist = controller(AttachMode::Loose, PersistMode::Persist);
        let mut t_e = Nanos::ZERO;
        let mut t_p = Nanos::ZERO;
        let stride = extend.config().mos_page_size;
        let span = extend.cache_sets() as u64 * 2;
        for i in 0..span {
            let r = extend.access(i % span * stride, true, 64, t_e);
            t_e = r.finished_at;
            let r = persist.access(i % span * stride, true, 64, t_p);
            t_p = r.finished_at;
        }
        assert!(
            t_p > t_e,
            "persist ({t_p}) must be slower than extend ({t_e})"
        );
    }

    #[test]
    fn delay_breakdown_accumulates_expected_components() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let r = h.access(0, true, 64, Nanos::ZERO);
        let conflict = h.cache_sets() as u64 * h.config().mos_page_size;
        h.access(conflict, false, 64, r.finished_at);
        let d = &h.stats().delay;
        assert!(d.component("nvdimm") > Nanos::ZERO);
        assert!(d.component("dma") > Nanos::ZERO);
        assert!(d.component("ssd") > Nanos::ZERO);
    }

    #[test]
    fn wait_queue_stalls_on_busy_entry() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        // Force a fill that leaves the entry busy, then immediately touch the
        // same page *before* the fill completes.
        let miss = h.access(0, true, 64, Nanos::ZERO);
        // Evict + refill to give the entry a long busy window.
        let conflict = h.cache_sets() as u64 * h.config().mos_page_size;
        let r = h.access(conflict, true, 64, miss.finished_at);
        // Touch the conflicting page again at a time before its fill is done.
        let early = r.finished_at - Nanos::from_nanos(1);
        let _ = h.access(conflict + 64, false, 64, early);
        // Either it hit (fill already visible) or it waited; both are legal,
        // but the wait-stall counter must never exceed total accesses.
        assert!(h.stats().wait_stalls <= h.stats().accesses);
    }

    #[test]
    fn acknowledged_writes_survive_power_failure_and_recovery() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let page_size = h.config().mos_page_size;
        let mut t = Nanos::ZERO;
        let mut written_pages = Vec::new();
        // Dirty more pages than the cache holds so evictions are in flight.
        for i in 0..(h.cache_sets() as u64 * 2) {
            let addr = i * page_size;
            let r = h.access(addr, true, 64, t);
            t = r.finished_at;
            written_pages.push(h.page_of(addr));
        }
        // Power fails "now" — possibly with eviction commands outstanding.
        let event = h.power_fail(t);
        assert!(event.nvdimm_backup > Nanos::ZERO);
        let report = h.recover(t);
        for page in written_pages {
            assert!(
                h.is_page_recoverable(page, report.completed_at),
                "page {page} lost across power failure"
            );
        }
    }

    #[test]
    fn recovery_reissues_journaled_commands() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let page_size = h.config().mos_page_size;
        let mut t = Nanos::ZERO;
        for i in 0..(h.cache_sets() as u64 + 4) {
            let r = h.access(i * page_size, true, 64, t);
            t = r.finished_at;
        }
        // Fail immediately after the last access: its eviction (if any) is in
        // flight. Recovery must re-issue exactly the journal-tagged commands.
        let before = h.engine_outstanding_for_tests();
        let event = h.power_fail(t);
        assert!(event.incomplete_commands <= before);
        let report = h.recover(t);
        assert!(report.reissued_pages.len() <= before);
        assert!(report.completed_at >= t);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_access_panics() {
        let mut h = controller(AttachMode::Loose, PersistMode::Extend);
        let far = h.mos_capacity_bytes();
        let _ = h.access(far, false, 64, Nanos::ZERO);
    }

    #[test]
    fn striped_fills_beat_the_single_queue_on_multi_lba_pages() {
        use hams_nvme::QueueConfig;
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
            .with_mos_page_size(64 * 1024);
        let mut single = HamsController::new(base);
        let mut striped = HamsController::new(base.with_queues(QueueConfig::striped(4)));
        assert_eq!(striped.engine().num_queues(), 4);
        let page = base.mos_page_size;
        let mut t_single = Nanos::ZERO;
        let mut t_striped = Nanos::ZERO;
        // A cold read stream: every access misses and pays a full page fill.
        // First write the pages so the fills actually touch flash.
        for i in 0..64u64 {
            t_single = single.access(i * page, true, 64, t_single).finished_at;
            t_striped = striped.access(i * page, true, 64, t_striped).finished_at;
        }
        let span = single.cache_sets() as u64 + 8;
        for i in 0..200u64 {
            let addr = (i % span) * page;
            t_single = single.access(addr, false, 64, t_single).finished_at;
            t_striped = striped.access(addr, false, 64, t_striped).finished_at;
        }
        assert!(
            t_striped < t_single,
            "4-queue striped fills ({t_striped}) must beat single queue ({t_single})"
        );
        assert!(
            striped.engine().coalescer_stats().interrupts
                < striped.engine().coalescer_stats().completions,
            "stripe completions should coalesce into fewer interrupts"
        );
    }

    #[test]
    fn persist_mode_never_stripes_fills() {
        use hams_nvme::QueueConfig;
        let config = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Persist)
            .with_mos_page_size(64 * 1024)
            .with_queues(QueueConfig::striped(4));
        let h = HamsController::new(config);
        assert_eq!(
            h.fill_stripes(config.mos_page_size),
            1,
            "persist mode keeps at most one command outstanding"
        );
    }

    #[test]
    fn single_queue_stripe_count_is_one_regardless_of_page_size() {
        let h = controller(AttachMode::Tight, PersistMode::Extend);
        assert_eq!(h.fill_stripes(4096), 1);
        assert_eq!(h.fill_stripes(128 * 1024), 1);
    }

    #[test]
    fn access_streams_are_byte_identical_across_shard_shapes() {
        use crate::tag_array::ShardConfig;
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend);
        let stream = |h: &mut HamsController| {
            let page = h.config().mos_page_size;
            let span = h.cache_sets() as u64 + 16;
            let mut t = Nanos::ZERO;
            let mut results = Vec::new();
            for i in 0..400u64 {
                let addr = (i * 7 % span) * page + (i % 3) * 64;
                let r = h.access(addr, i % 4 == 0, 64, t);
                t = r.finished_at;
                results.push(r);
            }
            results
        };
        let mut reference = HamsController::new(base);
        let expected = stream(&mut reference);
        for shards in [
            ShardConfig::interleaved(2),
            ShardConfig::interleaved(8),
            ShardConfig::blocked(3),
        ] {
            let mut sharded = HamsController::new(base.with_shards(shards));
            assert_eq!(sharded.num_shards(), shards.count);
            let got = stream(&mut sharded);
            assert_eq!(got, expected, "{shards:?} diverged from single shard");
            assert_eq!(
                sharded.stats(),
                reference.stats(),
                "{shards:?} stats drifted"
            );
        }
    }

    #[test]
    fn shard_of_page_routes_through_the_directory() {
        use crate::tag_array::ShardConfig;
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
            .with_shards(ShardConfig::interleaved(4));
        let h = HamsController::new(base);
        let sets = h.cache_sets() as u64;
        assert_eq!(h.shard_of_page(0), 0);
        assert_eq!(h.shard_of_page(1), 1);
        assert_eq!(h.shard_of_page(sets), 0, "aliases share the set's bank");
        // The engine stamps the same routing onto journal tags.
        assert_eq!(h.engine().shard_for_page(5), h.shard_of_page(5));
    }

    #[test]
    fn single_backend_is_byte_identical_across_the_topology_enum() {
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend);
        let stream = |h: &mut HamsController| {
            let page = h.config().mos_page_size;
            let span = h.cache_sets() as u64 + 24;
            let mut t = Nanos::ZERO;
            let mut results = Vec::new();
            for i in 0..300u64 {
                let r = h.access((i * 11 % span) * page, i % 3 == 0, 64, t);
                t = r.finished_at;
                results.push(r);
            }
            results
        };
        let mut single = HamsController::new(base);
        let mut raid1 = HamsController::new(base.with_backend(BackendTopology::raid0(1)));
        assert_eq!(raid1.num_devices(), 1);
        assert_eq!(stream(&mut single), stream(&mut raid1));
        assert_eq!(single.stats(), raid1.stats());
    }

    #[test]
    fn raid0_fans_striped_fills_across_devices_and_per_device_bytes_sum() {
        use hams_nvme::QueueConfig;
        // 64 KB pages, 4 queue stripes of 16 KB each, 16 KB RAID stripes:
        // every stripe command lands wholly on one of the four devices.
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
            .with_mos_page_size(64 * 1024)
            .with_queues(QueueConfig::striped(4));
        let mut single = HamsController::new(base);
        let mut raid =
            HamsController::new(base.with_backend(BackendTopology::raid0_striped(4, 16 * 1024)));
        assert_eq!(raid.num_devices(), 4);
        assert_eq!(
            raid.mos_capacity_bytes(),
            single.mos_capacity_bytes(),
            "the unified address space is capacity-invariant"
        );
        let page = base.mos_page_size;
        let mut t_single = Nanos::ZERO;
        let mut t_raid = Nanos::ZERO;
        for i in 0..48u64 {
            t_single = single.access(i * page, true, 64, t_single).finished_at;
            t_raid = raid.access(i * page, true, 64, t_raid).finished_at;
        }
        let span = single.cache_sets() as u64 + 8;
        for i in 0..200u64 {
            let addr = (i % span) * page;
            t_single = single.access(addr, false, 64, t_single).finished_at;
            t_raid = raid.access(addr, false, 64, t_raid).finished_at;
        }
        assert!(
            t_raid < t_single,
            "4-device RAID-0 ({t_raid}) must beat the single archive ({t_single})"
        );
        // Same command stream, partitioned: per-device byte totals sum to
        // exactly what the single archive served.
        let raid_total = raid.archive().stats();
        let single_total = single.archive().stats();
        assert_eq!(raid_total.bytes_read, single_total.bytes_read);
        assert_eq!(raid_total.bytes_written, single_total.bytes_written);
        assert!(
            raid.archive()
                .device_stats()
                .iter()
                .filter(|s| s.bytes_read > 0)
                .count()
                > 1,
            "the fills should actually fan out across devices"
        );
        assert_eq!(single.stats().fill_bytes, raid.stats().fill_bytes);
        assert_eq!(single.stats().hits, raid.stats().hits);
    }

    #[test]
    fn cxl_attached_sits_between_loose_pcie_and_tight_ddr4() {
        let finish = |h: &mut HamsController| {
            let page_size = h.config().mos_page_size;
            let span = h.cache_sets() as u64 + 64;
            let mut t = Nanos::ZERO;
            for i in 0..300u64 {
                let r = h.access((i % span) * page_size, false, 64, t);
                t = r.finished_at;
            }
            t
        };
        let mut tight = controller(AttachMode::Tight, PersistMode::Extend);
        let mut loose = controller(AttachMode::Loose, PersistMode::Extend);
        let mut cxl = HamsController::new(
            HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Extend)
                .with_backend(BackendTopology::cxl(1, 0)),
        );
        assert!(cxl.backend_topology().uses_cxl());
        let t_tight = finish(&mut tight);
        let t_cxl = finish(&mut cxl);
        let t_loose = finish(&mut loose);
        assert!(
            t_tight < t_cxl && t_cxl < t_loose,
            "miss-heavy sweep must order tight ({t_tight}) < cxl ({t_cxl}) < loose ({t_loose})"
        );
    }

    #[test]
    fn device_routing_matches_between_controller_engine_and_archive() {
        let base = HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
            .with_backend(BackendTopology::raid0(4));
        let h = HamsController::new(base);
        // Page-granularity stripes (4 KB pages): page n → device n % 4.
        for page in 0..16u64 {
            assert_eq!(h.device_of_page(page), (page % 4) as u16);
            assert_eq!(
                h.engine().device_for_slba(h.slba_of(page)),
                h.device_of_page(page),
                "engine journal routing must mirror the archive"
            );
        }
    }

    #[test]
    fn hit_rate_reaches_high_values_for_small_working_sets() {
        let mut h = controller(AttachMode::Tight, PersistMode::Extend);
        let mut t = Nanos::ZERO;
        for i in 0..2_000u64 {
            let addr = (i % 8) * 64; // tiny working set inside one page
            let r = h.access(addr, i % 4 == 0, 64, t);
            t = r.finished_at;
        }
        assert!(h.stats().hit_rate() > 0.99);
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple of 4 KB, got 12288")]
    fn non_power_of_two_page_size_is_refused_when_the_controller_is_built() {
        // Set through the public field, past the builder's check.
        let config = HamsConfig {
            mos_page_size: 12 * 1024,
            ..HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
        };
        let _ = HamsController::new(config);
    }

    #[test]
    fn page_of_is_a_shift_by_the_page_size() {
        for page_size in [4096u64, 8192, 128 * 1024, 1024 * 1024] {
            let h = HamsController::new(
                HamsConfig::tiny_for_tests(AttachMode::Loose, PersistMode::Extend)
                    .with_mos_page_size(page_size),
            );
            for addr in [0, 1, page_size - 1, page_size, 3 * page_size + 17, 1 << 30] {
                assert_eq!(h.page_of(addr), addr / page_size);
            }
        }
    }

    /// Writes `sets + 64` fresh pages back to back: the last 64 each evict a
    /// dirty page, and none waits for a fetch, so evictions are issued
    /// faster than the archive completes them.
    fn fresh_write_sweep(h: &mut HamsController) {
        let page = h.config().mos_page_size;
        let mut t = Nanos::ZERO;
        for i in 0..h.cache_sets() as u64 + 64 {
            t = h.access(i * page, true, 64, t).finished_at;
        }
    }

    #[test]
    fn a_full_prp_pool_is_counted() {
        // 1 MiB pages: the 1 MiB pool holds one clone, so a second eviction
        // in flight finds it full.
        let mut one_slot = HamsController::new(
            HamsConfig::tiny_for_tests(AttachMode::Tight, PersistMode::Extend)
                .with_mos_page_size(1024 * 1024),
        );
        fresh_write_sweep(&mut one_slot);
        let stats = one_slot.stats();
        assert_eq!(stats.evictions, 64);
        assert!(
            stats.prp_pool_full > 0 && stats.prp_pool_full <= stats.evictions,
            "{} full-pool evictions out of {}",
            stats.prp_pool_full,
            stats.evictions
        );
        // 4 KiB pages: 256 slots hold all 64 clones of the same sweep.
        let mut default = controller(AttachMode::Tight, PersistMode::Extend);
        fresh_write_sweep(&mut default);
        assert_eq!(default.stats().evictions, 64);
        assert_eq!(default.stats().prp_pool_full, 0);
    }

    impl HamsController {
        fn engine_outstanding_for_tests(&self) -> usize {
            self.engine.outstanding()
        }
    }
}
