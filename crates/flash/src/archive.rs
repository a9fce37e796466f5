//! Multi-device archive backends: the [`ArchiveSet`] topology layer.
//!
//! The paper models HAMS with a single ULL-Flash archive behind the NVDIMM
//! cache. Production-scale serving wants more: a RAID-0 fan-out of several
//! archives so independent fills land on independent flash arrays, or a
//! RAID-5 one that survives a device failure. [`ArchiveSet`] owns N
//! [`SsdDevice`]s behind one capacity-unified address space and routes every
//! NVMe command to the device owning its stripe; [`BackendTopology`] selects
//! the shape. How the set is wired to the controller (PCIe, DDR4 or CXL) is
//! the controller's attach mode, not part of the shape.
//!
//! Two contracts shape the design (both pinned by
//! `tests/shape_equivalence.rs`):
//!
//! * **One device is a bare device, byte for byte.** A one-device set
//!   ([`BackendTopology::single`]) delegates every call straight to its
//!   [`SsdDevice`] — no stripe arithmetic on the path — so it is
//!   indistinguishable from the device alone.
//! * **Striping is a partition of one address space.** The set exposes the
//!   exported capacity of *one* archive and stripes that fixed LBA space
//!   across the devices with identity local addressing (device `d` serves
//!   global LBA `l` as its own LBA `l`). Every command therefore lands on
//!   exactly the device its stripe owns, and the per-device *byte* totals
//!   of a RAID-0 run sum to what a single device would have served for the
//!   same command stream — what RAID-0 buys is device-level parallelism
//!   (independent channels, dies and firmware), not a different workload.
//!   (Command *counts* are per-segment: a command crossing stripe
//!   boundaries counts once per device it touches.)
//!
//! Stripe granularity is configurable. At MoS-page granularity a page's
//! fills and evictions land wholly on its owning device — mirroring how the
//! page's directory state lives in one tag-array set — while LBA
//! granularity fans a multi-queue striped fill out across devices for
//! intra-fill parallelism (the device sweep of `figures fig23` does this).

use hams_nvme::{NvmeCommand, NvmeOpcode};
use hams_sim::{LruStats, Nanos};
use serde::{Deserialize, Serialize};

use crate::device::{
    IoCompletion, PowerLossReport, SsdConfig, SsdDevice, SsdError, SsdStats, LBA_SIZE,
};
use crate::fault::{ArrayState, FaultInjector, FaultPlan, FaultStats, RebuildSpan};

/// Shape of the archive backend behind the HAMS controller: how many
/// archives, the stripe unit that spreads the exported LBA space across
/// them round-robin (stripe `s` on device `s % N`), and whether the set
/// keeps rotating parity. A single archive, the paper's configuration, is
/// the one-device set ([`BackendTopology::single`]).
///
/// A stripe unit of `0` means "resolve to the controller's MoS page size"
/// (see [`BackendTopology::resolved`]), which aligns device ownership with
/// the tag directory: one page, one set, one device.
///
/// Parity (RAID-5 style, [`BackendTopology::raid5_striped`]) does not move
/// data placement, which is what keeps a fault-free parity array
/// metrics-byte-identical to plain striping: parity lives in the devices'
/// reserved over-provisioned region (mirrored into a supercap-backed parity
/// log) and is destaged in idle time, never through the serviced command
/// stream. It only materialises as device traffic when a fault plan is
/// installed: degraded reads reconstruct from the `N − 1` survivors plus
/// XOR, and rebuild regenerates the lost device row by row (see
/// [`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BackendTopology {
    /// Number of archives in the set (at least 1, and at least 2 with
    /// parity, which needs a survivor).
    devices: u16,
    /// Stripe unit in bytes (a multiple of 4 KB); `0` resolves to the MoS
    /// page size.
    stripe_bytes: u64,
    /// Whether the set keeps rotating parity.
    parity: bool,
}

impl BackendTopology {
    /// One ULL-Flash archive: the paper's configuration.
    #[must_use]
    pub fn single() -> Self {
        Self::raid0(1)
    }

    /// RAID-0 over `devices` archives with MoS-page stripe granularity.
    #[must_use]
    pub fn raid0(devices: u16) -> Self {
        Self::raid0_striped(devices, 0)
    }

    /// RAID-0 over `devices` archives with an explicit stripe unit.
    #[must_use]
    pub fn raid0_striped(devices: u16, stripe_bytes: u64) -> Self {
        BackendTopology {
            devices: devices.max(1),
            stripe_bytes,
            parity: false,
        }
    }

    /// Rotating-parity RAID-5 over `devices` archives with an explicit
    /// stripe unit.
    #[must_use]
    pub fn raid5_striped(devices: u16, stripe_bytes: u64) -> Self {
        BackendTopology {
            devices: devices.max(2),
            stripe_bytes,
            parity: true,
        }
    }

    /// Number of devices in the set.
    #[must_use]
    pub fn device_count(&self) -> u16 {
        self.devices
    }

    /// The configured stripe unit (`0` = resolve to the MoS page size).
    #[must_use]
    pub fn stripe_bytes(&self) -> u64 {
        self.stripe_bytes
    }

    /// Whether the topology keeps rotating parity, making degraded reads
    /// reconstructible — the prerequisite for installing a fault plan.
    #[must_use]
    pub fn has_parity(&self) -> bool {
        self.parity
    }

    /// The topology with a zero stripe unit resolved to `mos_page_size`.
    #[must_use]
    pub fn resolved(&self, mos_page_size: u64) -> Self {
        let mut resolved = *self;
        if resolved.stripe_bytes == 0 {
            resolved.stripe_bytes = mos_page_size;
        }
        resolved
    }
}

impl Default for BackendTopology {
    fn default() -> Self {
        Self::single()
    }
}

/// N archives behind one capacity-unified LBA space.
///
/// # Example
///
/// ```
/// use hams_flash::{ArchiveSet, BackendTopology, SsdConfig, LBA_SIZE};
/// use hams_nvme::{NvmeCommand, PrpList};
/// use hams_sim::Nanos;
///
/// let topology = BackendTopology::raid0_striped(2, LBA_SIZE);
/// let mut set = ArchiveSet::new(SsdConfig::tiny_for_tests(), topology, 4096);
/// assert_eq!(set.num_devices(), 2);
/// // LBA 0 lives on device 0, LBA 1 on device 1.
/// assert_eq!(set.device_of_slba(0), 0);
/// assert_eq!(set.device_of_slba(1), 1);
/// let write = NvmeCommand::write(1, 1, 4096, PrpList::single(0)).with_fua(true);
/// set.service(&write, Nanos::ZERO).unwrap();
/// assert_eq!(set.device(1).stats().write_commands, 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchiveSet {
    topology: BackendTopology,
    stripe_lbas: u64,
    devices: Vec<SsdDevice>,
    /// Installed by [`Self::set_fault_plan`]; `None` (the default) keeps
    /// every service path byte-identical to the pre-fault-injection layer.
    fault: Option<FaultInjector>,
}

impl ArchiveSet {
    /// Builds the set described by `topology`, every device from the same
    /// `config`; a zero stripe unit resolves to `mos_page_size`.
    ///
    /// # Panics
    ///
    /// Panics if the resolved stripe unit is not a positive multiple of the
    /// 4 KB LBA size — a finer stripe cannot be addressed, and a misaligned
    /// one would split flash pages across devices.
    #[must_use]
    pub fn new(config: SsdConfig, topology: BackendTopology, mos_page_size: u64) -> Self {
        let topology = topology.resolved(mos_page_size.max(LBA_SIZE));
        let stripe_bytes = topology.stripe_bytes();
        assert!(
            stripe_bytes >= LBA_SIZE && stripe_bytes.is_multiple_of(LBA_SIZE),
            "stripe unit must be a positive multiple of the {LBA_SIZE}-byte LBA, \
             got {stripe_bytes}"
        );
        ArchiveSet {
            topology,
            stripe_lbas: stripe_bytes / LBA_SIZE,
            devices: (0..topology.device_count())
                .map(|_| SsdDevice::new(config))
                .collect(),
            fault: None,
        }
    }

    /// A single-archive set: every call goes straight to its one device.
    #[must_use]
    pub fn single(config: SsdConfig) -> Self {
        Self::new(config, BackendTopology::single(), LBA_SIZE)
    }

    /// The topology in force (stripe unit resolved).
    #[must_use]
    pub fn topology(&self) -> BackendTopology {
        self.topology
    }

    /// Number of devices in the set.
    #[must_use]
    pub fn num_devices(&self) -> u16 {
        self.devices.len() as u16
    }

    /// Stripe unit in LBAs.
    #[must_use]
    pub fn stripe_lbas(&self) -> u64 {
        self.stripe_lbas
    }

    /// The shared per-device configuration.
    #[must_use]
    pub fn config(&self) -> &SsdConfig {
        self.devices[0].config()
    }

    /// Exported capacity of the unified address space: the capacity of one
    /// archive. RAID-0/5 trade the extra devices' capacity for parallelism
    /// (or parity) at a fixed address space, which is what keeps a
    /// multi-device run's command stream identical to the single-device one
    /// and lets per-device stats sum to the single-device totals.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.devices[0].capacity_bytes()
    }

    /// Device `index` of the set.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn device(&self, index: u16) -> &SsdDevice {
        &self.devices[usize::from(index)]
    }

    /// Every device in the set, in device order.
    #[must_use]
    pub fn devices(&self) -> &[SsdDevice] {
        &self.devices
    }

    /// The first device — the whole set when it has one device.
    #[must_use]
    pub fn primary(&self) -> &SsdDevice {
        &self.devices[0]
    }

    /// The device owning the stripe that starts at LBA `slba`.
    #[must_use]
    pub fn device_of_slba(&self, slba: u64) -> u16 {
        if self.devices.len() <= 1 {
            0
        } else {
            ((slba / self.stripe_lbas) % self.devices.len() as u64) as u16
        }
    }

    /// Whether the devices carry an internal DRAM buffer.
    #[must_use]
    pub fn has_internal_dram(&self) -> bool {
        self.devices[0].has_internal_dram()
    }

    /// Aggregate device accounting across the set. Byte totals sum exactly
    /// over [`Self::device_stats`] to what one device would have served;
    /// command counts are per-segment (a command split at a stripe boundary
    /// counts once per device touched).
    #[must_use]
    pub fn stats(&self) -> SsdStats {
        let mut total = SsdStats::default();
        for device in &self.devices {
            let s = device.stats();
            total.read_commands += s.read_commands;
            total.write_commands += s.write_commands;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.page_programs += s.page_programs;
            total.page_reads += s.page_reads;
        }
        total
    }

    /// Per-device accounting, in device order.
    #[must_use]
    pub fn device_stats(&self) -> Vec<SsdStats> {
        self.devices.iter().map(|d| *d.stats()).collect()
    }

    /// Aggregate internal-DRAM accounting across the set.
    #[must_use]
    pub fn dram_stats(&self) -> LruStats {
        let mut total = LruStats::default();
        for device in &self.devices {
            let s = device.dram_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.dirty_evictions += s.dirty_evictions;
        }
        total
    }

    /// Services an NVMe command issued at `now`, routing it to the device
    /// owning its stripe. A command that crosses stripe boundaries is split
    /// into per-device segments (the HAMS controller never issues one when
    /// the stripe unit is the MoS page size or a striped fill's command
    /// length). The command's own FUA bit decides whether a write may be
    /// acknowledged from a device's volatile buffer; a caller that must
    /// force it serves `cmd.with_fua(true)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SsdError`] from the owning device(s).
    pub fn service(&mut self, cmd: &NvmeCommand, now: Nanos) -> Result<IoCompletion, SsdError> {
        if self.fault.is_some() {
            return self.service_faulted(cmd, now);
        }
        if self.devices.len() == 1 {
            return self.devices[0].service(cmd, now);
        }
        self.serve_by_stripe(cmd, |set, segment| {
            let device = usize::from(set.device_of_slba(segment.slba));
            set.devices[device].service(&segment, now)
        })
    }

    /// Splits a command at stripe boundaries, serves each segment
    /// through `serve_segment` and merges the completions. Devices address
    /// their LBAs by identity, so each segment keeps its global `slba`.
    fn serve_by_stripe(
        &mut self,
        cmd: &NvmeCommand,
        mut serve_segment: impl FnMut(&mut Self, NvmeCommand) -> Result<IoCompletion, SsdError>,
    ) -> Result<IoCompletion, SsdError> {
        let stripe_bytes = self.stripe_lbas * LBA_SIZE;
        let start = cmd.slba * LBA_SIZE;
        let end = start + cmd.length;
        let mut merged: Option<IoCompletion> = None;
        let mut offset = start;
        while offset < end {
            let stripe_end = (offset / stripe_bytes + 1) * stripe_bytes;
            let segment_end = end.min(stripe_end);
            let mut segment = *cmd;
            segment.slba = offset / LBA_SIZE;
            segment.length = segment_end - offset;
            let completion = serve_segment(self, segment)?;
            merged = Some(merge_completion(merged, completion));
            offset = segment_end;
        }
        Ok(merged.expect("a command has at least one byte, so one segment"))
    }

    /// The service path with a fault plan installed: every command first
    /// advances the injector's state machine (injecting due faults and
    /// catching up paced rebuild rows), then routes — degraded reads of the
    /// down device reconstruct from the survivors, degraded writes are
    /// absorbed by parity, everything else serves exactly as the healthy
    /// path would. Only parity topologies reach here.
    fn service_faulted(&mut self, cmd: &NvmeCommand, now: Nanos) -> Result<IoCompletion, SsdError> {
        if let Some(injector) = self.fault.as_mut() {
            injector.poll(now, &mut self.devices);
        }
        self.serve_by_stripe(cmd, |set, segment| set.serve_segment_faulted(segment, now))
    }

    fn serve_segment_faulted(
        &mut self,
        segment: NvmeCommand,
        now: Nanos,
    ) -> Result<IoCompletion, SsdError> {
        let device = self.device_of_slba(segment.slba);
        let injector = self.fault.as_mut().expect("faulted path has an injector");
        match segment.opcode {
            NvmeOpcode::Read if injector.read_is_degraded(device, segment.slba) => {
                Ok(injector.reconstruct_read(&mut self.devices, &segment, now))
            }
            NvmeOpcode::Write if injector.write_is_degraded(device) => {
                injector.absorb_write(&mut self.devices, &segment, now)
            }
            _ => self.devices[usize::from(device)].service(&segment, now),
        }
    }

    /// Whether logical flash page `lpn` is durably stored on the device
    /// owning its stripe (every device addresses its pages by identity).
    /// While the owning device is out, durability falls back to parity
    /// coverage: the retained pre-failure mapping plus whichever absorbed
    /// writes the row's parity buddy holds.
    #[must_use]
    pub fn is_durable(&self, lpn: u64) -> bool {
        let page = u64::from(self.config().geometry.page_size);
        let slba = lpn * page / LBA_SIZE;
        let device = usize::from(self.device_of_slba(slba));
        if let Some(injector) = &self.fault {
            if injector.down_device() == Some(device as u16) {
                let layout = injector.layout();
                let absorber = layout.absorbing_device(layout.row_of_slba(slba), device as u16);
                return self.devices[device].is_durable(lpn)
                    || self.devices[usize::from(absorber)].is_durable(lpn);
            }
        }
        self.devices[device].is_durable(lpn)
    }

    /// Injects a power failure at `now` into every device and merges the
    /// reports: the page lists merge in ascending order, the flush time is
    /// the slowest device's. A single-device set delegates, byte for byte.
    /// With a fault plan installed the injector's clock advances first, and
    /// while the array is degraded the failed device is skipped — a dead
    /// controller flushes nothing. Once its replacement is online
    /// (rebuilding) it power-fails like every other device, so the writes it
    /// buffered are reported as flushed or lost.
    pub fn power_fail(&mut self, now: Nanos) -> PowerLossReport {
        if let Some(injector) = self.fault.as_mut() {
            injector.poll(now, &mut self.devices);
        }
        if self.devices.len() == 1 {
            return self.devices[0].power_fail(now);
        }
        let injector = self.fault.as_ref();
        let mut merged = PowerLossReport {
            flushed_pages: Vec::new(),
            lost_pages: Vec::new(),
            flush_time: Nanos::ZERO,
        };
        for (index, device) in self.devices.iter_mut().enumerate() {
            if injector.is_some_and(|injector| injector.flush_skips(index as u16)) {
                continue;
            }
            let report = device.power_fail(now);
            merged.flushed_pages.extend(report.flushed_pages);
            merged.lost_pages.extend(report.lost_pages);
            merged.flush_time = merged.flush_time.max(report.flush_time);
        }
        merged.flushed_pages.sort_unstable();
        merged.lost_pages.sort_unstable();
        merged
    }

    /// Installs a fault plan, arming the injector's state machine. The plan
    /// is consulted on every subsequent service call; until then (and with
    /// no plan at all) the service paths are byte-identical to the
    /// pre-fault-injection layer.
    ///
    /// # Panics
    ///
    /// Panics unless the topology keeps parity
    /// ([`BackendTopology::has_parity`]) — without it a lost device is data
    /// loss, not degraded service — or
    /// if the plan itself is invalid (see [`FaultInjector::new`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.topology.has_parity(),
            "fault injection needs a parity topology; {:?} cannot \
             reconstruct a lost device",
            self.topology
        );
        self.fault = Some(FaultInjector::new(
            plan,
            self.num_devices(),
            self.stripe_lbas,
        ));
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn fault(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Current degraded-state-machine state: `Healthy` when no plan is
    /// installed.
    #[must_use]
    pub fn array_state(&self) -> ArrayState {
        self.fault
            .as_ref()
            .map_or(ArrayState::Healthy, FaultInjector::state)
    }

    /// Fault / reconstruction / rebuild accounting, if a plan is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(FaultInjector::stats)
    }

    /// Advances the fault state machine to `now` without serving a command
    /// — how a harness lets a rebuild finish after the last foreground
    /// access. A no-op without a plan.
    pub fn advance_faults(&mut self, now: Nanos) {
        if let Some(injector) = self.fault.as_mut() {
            injector.poll(now, &mut self.devices);
        }
    }

    /// Drains the rebuild rows completed since the last drain, for
    /// telemetry span export. Empty without a plan.
    pub fn drain_rebuild_spans(&mut self) -> Vec<RebuildSpan> {
        self.fault
            .as_mut()
            .map_or_else(Vec::new, FaultInjector::drain_rebuild_spans)
    }
}

/// Folds one more per-device completion into a command-level aggregate:
/// the command finishes when its slowest segment does, sub-request counts
/// add, and it is buffer-served only if every segment was.
pub(crate) fn merge_completion(acc: Option<IoCompletion>, next: IoCompletion) -> IoCompletion {
    match acc {
        None => next,
        Some(mut acc) => {
            acc.finished_at = acc.finished_at.max(next.finished_at);
            acc.sub_requests += next.sub_requests;
            acc.served_from_dram &= next.served_from_dram;
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hams_nvme::PrpList;

    fn read_cmd(slba: u64, length: u64) -> NvmeCommand {
        NvmeCommand::read(1, slba, length, PrpList::single(0x1000))
    }

    fn write_cmd(slba: u64, length: u64) -> NvmeCommand {
        NvmeCommand::write(1, slba, length, PrpList::single(0x1000))
    }

    #[test]
    fn single_topology_is_byte_identical_to_a_bare_device() {
        let config = SsdConfig::tiny_for_tests();
        let mut bare = SsdDevice::new(config);
        let mut set = ArchiveSet::single(config);
        let mut now = Nanos::ZERO;
        for i in 0..48u64 {
            let cmd = if i % 3 == 0 {
                write_cmd(i % 16, 4096).with_fua(i % 6 == 0)
            } else {
                read_cmd(i % 16, 4096)
            };
            let a = bare.service(&cmd, now).unwrap();
            let b = set.service(&cmd, now).unwrap();
            assert_eq!(a, b, "the one-device set diverged from the bare device");
            now = a.finished_at;
        }
        assert_eq!(bare.stats(), &set.stats());
        assert_eq!(set.capacity_bytes(), bare.capacity_bytes());
    }

    #[test]
    fn raid0_routes_whole_stripes_to_their_owning_device() {
        let topology = BackendTopology::raid0_striped(4, LBA_SIZE);
        let mut set = ArchiveSet::new(SsdConfig::tiny_for_tests(), topology, 4096);
        for slba in 0..8u64 {
            set.service(&write_cmd(slba, 4096).with_fua(true), Nanos::ZERO)
                .unwrap();
            assert_eq!(set.device_of_slba(slba), (slba % 4) as u16);
        }
        for d in 0..4u16 {
            assert_eq!(
                set.device(d).stats().write_commands,
                2,
                "device {d} should own exactly two of the eight stripes"
            );
        }
        // Per-device stats sum to the totals one device would have served.
        let total = set.stats();
        assert_eq!(total.write_commands, 8);
        assert_eq!(total.bytes_written, 8 * 4096);
    }

    #[test]
    fn commands_crossing_stripe_boundaries_split_and_sum() {
        let topology = BackendTopology::raid0_striped(2, LBA_SIZE);
        let mut set = ArchiveSet::new(SsdConfig::tiny_for_tests(), topology, 4096);
        // 16 KB starting at LBA 0 covers stripes 0..4 → devices 0,1,0,1.
        let done = set
            .service(&write_cmd(0, 16 * 1024).with_fua(true), Nanos::ZERO)
            .unwrap();
        assert_eq!(done.sub_requests, 4);
        assert_eq!(set.device(0).stats().bytes_written, 8192);
        assert_eq!(set.device(1).stats().bytes_written, 8192);
        assert_eq!(set.stats().bytes_written, 16 * 1024);
        assert!(set.is_durable(0) && set.is_durable(1) && set.is_durable(3));
    }

    #[test]
    fn page_granularity_stripes_keep_a_mos_page_on_one_device() {
        // 32 KB MoS pages: stripe 0 resolves to the page size.
        let mut set = ArchiveSet::new(
            SsdConfig::tiny_for_tests(),
            BackendTopology::raid0(2),
            32 * 1024,
        );
        assert_eq!(set.stripe_lbas(), 8);
        let done = set
            .service(&write_cmd(0, 32 * 1024).with_fua(true), Nanos::ZERO)
            .unwrap();
        assert_eq!(done.sub_requests, 8, "one device served the whole page");
        assert_eq!(set.device(0).stats().write_commands, 1);
        assert_eq!(set.device(1).stats().write_commands, 0);
        // The next page lands on the other device.
        set.service(&write_cmd(8, 32 * 1024).with_fua(true), Nanos::ZERO)
            .unwrap();
        assert_eq!(set.device(1).stats().write_commands, 1);
    }

    #[test]
    fn concurrent_reads_on_different_devices_do_not_contend() {
        let config = SsdConfig::tiny_for_tests();
        let mut single = ArchiveSet::single(config);
        let mut raid = ArchiveSet::new(config, BackendTopology::raid0_striped(4, LBA_SIZE), 4096);
        for set in [&mut single, &mut raid] {
            for slba in 0..8u64 {
                set.service(&write_cmd(slba, 4096).with_fua(true), Nanos::ZERO)
                    .unwrap();
            }
        }
        // Issue 8 reads at the same instant: the RAID set spreads them over
        // four devices' channels, so its slowest completion beats the single
        // device's.
        let t0 = Nanos::from_millis(10);
        let worst = |set: &mut ArchiveSet| {
            let mut worst = Nanos::ZERO;
            for slba in 0..8u64 {
                let done = set.service(&read_cmd(slba, 4096), t0).unwrap();
                worst = worst.max(done.finished_at);
            }
            worst
        };
        let single_worst = worst(&mut single);
        let raid_worst = worst(&mut raid);
        assert!(
            raid_worst < single_worst,
            "RAID-0 burst ({raid_worst}) must beat the single device ({single_worst})"
        );
    }

    #[test]
    fn power_fail_merges_per_device_reports() {
        let mut config = SsdConfig::tiny_for_tests();
        config.supercap_backed = true;
        let topology = BackendTopology::raid0_striped(2, LBA_SIZE);
        let mut set = ArchiveSet::new(config, topology, 4096);
        set.service(&write_cmd(0, 4096), Nanos::ZERO).unwrap();
        set.service(&write_cmd(1, 4096), Nanos::ZERO).unwrap();
        let report = set.power_fail(Nanos::from_micros(50));
        assert_eq!(report.flushed_pages, vec![0, 1]);
        assert!(report.lost_pages.is_empty());
        assert!(report.flush_time > Nanos::ZERO);
        assert!(set.is_durable(0) && set.is_durable(1));
    }

    #[test]
    fn topology_helpers_normalise_and_resolve() {
        assert_eq!(BackendTopology::raid0(0).device_count(), 1);
        assert_eq!(BackendTopology::single().device_count(), 1);
        let resolved = BackendTopology::raid0(4).resolved(32 * 1024);
        assert_eq!(resolved.stripe_bytes(), 32 * 1024);
        let pinned = BackendTopology::raid0_striped(4, LBA_SIZE).resolved(32 * 1024);
        assert_eq!(pinned.stripe_bytes(), LBA_SIZE);
        assert_eq!(BackendTopology::default(), BackendTopology::single());
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn misaligned_stripe_units_panic() {
        let _ = ArchiveSet::new(
            SsdConfig::tiny_for_tests(),
            BackendTopology::raid0_striped(2, 1000),
            4096,
        );
    }

    #[test]
    fn raid5_with_no_faults_is_byte_identical_to_raid0() {
        let config = SsdConfig::tiny_for_tests();
        let mut raid0 = ArchiveSet::new(config, BackendTopology::raid0_striped(4, LBA_SIZE), 4096);
        let mut raid5 = ArchiveSet::new(config, BackendTopology::raid5_striped(4, LBA_SIZE), 4096);
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            let cmd = if i % 3 == 0 {
                write_cmd(i % 32, 4096).with_fua(i % 6 == 0)
            } else {
                read_cmd(i % 32, 4096)
            };
            let a = raid0.service(&cmd, now).unwrap();
            let b = raid5.service(&cmd, now).unwrap();
            assert_eq!(a, b, "healthy Raid5 diverged from Raid0 at command {i}");
            now = a.finished_at;
        }
        assert_eq!(raid0.stats(), raid5.stats());
        assert_eq!(raid0.device_stats(), raid5.device_stats());
        assert_eq!(raid0.capacity_bytes(), raid5.capacity_bytes());
        assert_eq!(raid5.array_state(), ArrayState::Healthy);
        assert!(raid5.fault_stats().is_none());
    }

    fn raid5_set() -> ArchiveSet {
        let mut config = SsdConfig::tiny_for_tests();
        config.supercap_backed = true;
        ArchiveSet::new(config, BackendTopology::raid5_striped(4, LBA_SIZE), 4096)
    }

    #[test]
    fn fail_stop_walks_degraded_then_rebuilds_to_healthy() {
        let mut set = raid5_set();
        // Populate every device before the fault.
        for slba in 0..16u64 {
            set.service(&write_cmd(slba, 4096).with_fua(true), Nanos::ZERO)
                .unwrap();
        }
        let fail_at = Nanos::from_micros(100);
        let spare_at = Nanos::from_micros(300);
        let plan = FaultPlan::new()
            .with_fail_stop(1, fail_at, spare_at)
            .with_rebuild_interval(Nanos::from_micros(10));
        set.set_fault_plan(plan);
        assert_eq!(set.array_state(), ArrayState::Healthy);

        // A read of the dead device while degraded reconstructs from the
        // three survivors.
        let before = [0u16, 2, 3].map(|d| set.device(d).stats().read_commands);
        let done = set
            .service(&read_cmd(1, 4096), Nanos::from_micros(150))
            .unwrap();
        assert_eq!(set.array_state(), ArrayState::Degraded);
        let after = [0u16, 2, 3].map(|d| set.device(d).stats().read_commands);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a - b, 1, "each survivor serves one reconstruction read");
        }
        assert!(done.finished_at > Nanos::from_micros(150));
        let stats = *set.fault_stats().unwrap();
        assert_eq!(stats.degraded_reads, 1);
        assert_eq!(stats.reconstruction_reads, 3);

        // A degraded write is absorbed by the row's parity buddy and stays
        // durable through the outage.
        set.service(&write_cmd(5, 4096).with_fua(true), Nanos::from_micros(160))
            .unwrap();
        assert!(set.is_durable(5));
        assert_eq!(set.fault_stats().unwrap().parity_absorbed_writes, 1);

        // Drive simulated time past the spare arrival and let rebuild run
        // dry: the array returns to healthy and every page is durable again.
        set.advance_faults(Nanos::from_millis(50));
        assert_eq!(set.array_state(), ArrayState::Healthy);
        let stats = *set.fault_stats().unwrap();
        assert_eq!(stats.repairs_completed, 1);
        assert!(stats.rebuild_rows_done > 0);
        assert_eq!(stats.rebuild_rows_done, stats.rebuild_rows_total);
        assert!(stats.rebuild_writes >= stats.rebuild_rows_done);
        for slba in 0..16u64 {
            assert!(set.is_durable(slba), "page {slba} lost across the rebuild");
        }
        let spans = set.drain_rebuild_spans();
        assert_eq!(spans.len() as u64, stats.rebuild_rows_done);
        assert!(spans.iter().all(|s| s.device == 1 && s.end > s.start));
        assert!(set.fault().unwrap().recovered_at().unwrap() >= spare_at);
    }

    #[test]
    fn a_fail_stop_loses_the_failed_devices_buffered_writes() {
        let mut set = raid5_set();
        set.set_fault_plan(FaultPlan::new().with_fail_stop(
            1,
            Nanos::from_millis(1),
            Nanos::from_millis(2),
        ));
        // A plain write of LBA 17 (device 1) is acknowledged from the
        // device's DRAM and not programmed before the device fails.
        set.service(&write_cmd(17, 4096), Nanos::from_micros(10))
            .unwrap();
        assert!(!set.is_durable(17));
        // The failed device's buffer died with it: the rebuild finds
        // nothing to regenerate.
        set.advance_faults(Nanos::from_millis(60));
        assert_eq!(set.array_state(), ArrayState::Healthy);
        assert!(
            !set.is_durable(17),
            "a write buffered in a failed device survived its failure"
        );
        assert_eq!(set.fault_stats().unwrap().lost_buffered_pages, 1);
    }

    #[test]
    fn fault_timing_is_deterministic_across_runs() {
        let run = || {
            let mut set = raid5_set();
            for slba in 0..24u64 {
                set.service(&write_cmd(slba, 4096).with_fua(true), Nanos::ZERO)
                    .unwrap();
            }
            set.set_fault_plan(
                FaultPlan::new()
                    .with_fail_stop(3, Nanos::from_micros(50), Nanos::from_micros(200))
                    .with_rebuild_interval(Nanos::from_micros(5)),
            );
            let mut now = Nanos::from_micros(60);
            let mut finishes = Vec::new();
            for i in 0..32u64 {
                let cmd = if i % 2 == 0 {
                    read_cmd(i % 24, 4096)
                } else {
                    write_cmd(i % 24, 4096).with_fua(true)
                };
                let done = set.service(&cmd, now).unwrap();
                finishes.push(done.finished_at);
                now += Nanos::from_micros(20);
            }
            set.advance_faults(Nanos::from_millis(20));
            (finishes, *set.fault_stats().unwrap(), set.stats())
        };
        assert_eq!(run(), run(), "same plan must replay byte-identically");
    }

    #[test]
    #[should_panic(expected = "parity")]
    fn fault_plans_require_the_parity_topology() {
        let mut set = ArchiveSet::new(
            SsdConfig::tiny_for_tests(),
            BackendTopology::raid0_striped(4, LBA_SIZE),
            4096,
        );
        set.set_fault_plan(FaultPlan::new().with_fail_stop(0, Nanos::ZERO, Nanos::ZERO));
    }
}
