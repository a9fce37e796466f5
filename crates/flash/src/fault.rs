//! Fault injection and degraded-mode serving for the
//! [`ArchiveSet`](crate::ArchiveSet).
//!
//! HAMS's headline claim is crash-consistent persistent memory over commodity
//! SSDs; this module extends the reproduction past the happy path and
//! whole-array power loss to *device* failure. A [`FaultPlan`] names a device,
//! a simulated instant and a spare's arrival; the [`FaultInjector`]
//! fail-stops that device at that instant, losing its contents, and walks the
//! array through the degraded state machine
//!
//! ```text
//! Healthy ──fault──▶ Degraded ──spare──▶ Rebuilding ──last row──▶ Healthy
//! ```
//!
//! Degraded reads of the lost device are *reconstructed*: the parity rotation
//! of [`Raid5Layout`] makes every stripe recoverable from the `N − 1`
//! survivors plus an XOR pass, so a degraded read costs `N − 1` survivor
//! reads (serviced on the survivors' real channel/die models, so they contend
//! with foreground traffic) plus a per-LBA XOR charge. Degraded writes are
//! absorbed by a parity update on the row's surviving parity buddy. Rebuild
//! is background traffic: one stripe row per [`FaultPlan::rebuild_interval`],
//! each row serviced as `N − 1` survivor reads plus a forced-unit-access
//! program of the replacement — through the *same* device queues foreground
//! commands use, which is what makes rebuild contend with serving.
//!
//! Two contracts are pinned by `tests/fault_equivalence.rs`:
//!
//! * **Zero faults means zero bytes of difference.** An injector is only
//!   consulted when a plan is installed, and a healthy parity array routes
//!   data exactly like plain striping (parity is destaged from the
//!   supercap-backed parity log in idle time, never through the serviced
//!   command stream), so a fault-free run is metrics-byte-identical to its
//!   healthy twin.
//! * **Fault timing is deterministic.** The injector advances only on the
//!   simulated clock carried by the (serial) archive command stream, so the
//!   same plan yields byte-identical metrics across runs and thread counts.

use hams_nvme::{NvmeCommand, PrpList};
use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

use crate::archive::merge_completion;
use crate::device::{IoCompletion, SsdDevice, LBA_SIZE};

/// One injected fault: `device` fail-stops at simulated instant `at`,
/// losing its contents, and a spare arrives at `spare_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Index of the device to fail.
    pub device: u16,
    /// Simulated instant of the failure.
    pub at: Nanos,
    /// Simulated instant the replacement device comes online and rebuild
    /// starts (must not precede the fault instant).
    pub spare_at: Nanos,
}

/// XOR cost charged per 4 KB LBA reconstructed or rebuilt.
const XOR_PER_LBA: Nanos = Nanos::from_nanos(250);

/// A deterministic schedule of device faults for one run.
///
/// Events must be sorted by fault instant and must not overlap: the next
/// device may only fail once the array is healthy again. (One failure at a
/// time is what single-parity RAID-5 survives; overlapping failures would be
/// data loss, which this model treats as a plan error.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injected faults, sorted by instant.
    pub events: Vec<FaultEvent>,
    /// Simulated time between consecutive rebuild rows — the rebuild rate
    /// limiter that trades recovery time against foreground interference.
    /// 20 µs unless [`FaultPlan::with_rebuild_interval`] replaces it.
    pub rebuild_interval: Nanos,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            rebuild_interval: Nanos::from_micros(20),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fail-stop fault: `device` dies at `at`, a spare arrives at
    /// `spare_at`.
    ///
    /// # Panics
    ///
    /// Panics if `spare_at < at`.
    #[must_use]
    pub fn with_fail_stop(mut self, device: u16, at: Nanos, spare_at: Nanos) -> Self {
        assert!(spare_at >= at, "spare cannot arrive before the fault");
        self.events.push(FaultEvent {
            device,
            at,
            spare_at,
        });
        self
    }

    /// Replaces the time between consecutive rebuild rows.
    #[must_use]
    pub fn with_rebuild_interval(mut self, interval: Nanos) -> Self {
        self.rebuild_interval = interval;
        self
    }
}

/// Degraded state machine of the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrayState {
    /// All devices online; reads and writes route exactly as without a plan.
    Healthy,
    /// One device is down and no replacement is online yet: its reads are
    /// reconstructed from the survivors, its writes absorbed by parity.
    Degraded,
    /// The replacement is online and background rebuild is regenerating the
    /// pending rows; reads of not-yet-rebuilt rows still reconstruct.
    Rebuilding,
}

impl ArrayState {
    /// Stable numeric encoding for gauges (0 = healthy, 1 = degraded,
    /// 2 = rebuilding).
    #[must_use]
    pub fn as_gauge(self) -> f64 {
        match self {
            ArrayState::Healthy => 0.0,
            ArrayState::Degraded => 1.0,
            ArrayState::Rebuilding => 2.0,
        }
    }
}

/// Fault, reconstruction and rebuild accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected so far.
    pub faults_injected: u64,
    /// Faults fully recovered from (rebuild complete).
    pub repairs_completed: u64,
    /// Foreground reads of the down device served by reconstruction.
    pub degraded_reads: u64,
    /// Survivor read commands issued for those reconstructions.
    pub reconstruction_reads: u64,
    /// Foreground writes to the down device absorbed by a parity update.
    pub parity_absorbed_writes: u64,
    /// Stripe rows rebuilt so far (across all faults).
    pub rebuild_rows_done: u64,
    /// Stripe rows the current (or last) rebuild set out to regenerate.
    pub rebuild_rows_total: u64,
    /// Survivor read commands issued by rebuild traffic.
    pub rebuild_reads: u64,
    /// Replacement-device program commands issued by rebuild traffic.
    pub rebuild_writes: u64,
    /// Writes the failed devices had acknowledged from their volatile
    /// buffers but not yet programmed, lost when they failed.
    pub lost_buffered_pages: u64,
}

/// One completed rebuild row, for telemetry span export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebuildSpan {
    /// The device being regenerated.
    pub device: u16,
    /// The stripe row rebuilt.
    pub row: u64,
    /// When the row's survivor reads were issued.
    pub start: Nanos,
    /// When the replacement program completed.
    pub end: Nanos,
}

/// Rotating-parity layout math for an `N`-device RAID-5 style array.
///
/// Data placement is identical to RAID-0 (stripe `s` lives on device
/// `s % N`, row `r = s / N`); the parity unit of row `r` rotates as
/// `N − 1 − (r % N)` and lives in the devices' reserved over-provisioned
/// region, mirrored into a supercap-backed parity log so a row whose parity
/// buddy is the failed device itself stays recoverable. Either way a
/// degraded read costs `N − 1` survivor reads plus XOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raid5Layout {
    /// Number of devices in the array (at least 2).
    pub devices: u16,
    /// Stripe unit in LBAs.
    pub stripe_lbas: u64,
}

impl Raid5Layout {
    /// The stripe index owning `slba`.
    #[must_use]
    pub fn stripe_of_slba(&self, slba: u64) -> u64 {
        slba / self.stripe_lbas
    }

    /// The stripe row (one stripe per device) containing `slba`.
    #[must_use]
    pub fn row_of_slba(&self, slba: u64) -> u64 {
        self.stripe_of_slba(slba) / u64::from(self.devices)
    }

    /// The device whose reserved region holds row `row`'s parity.
    #[must_use]
    pub fn parity_device(&self, row: u64) -> u16 {
        let n = u64::from(self.devices);
        (n - 1 - (row % n)) as u16
    }

    /// The surviving device that absorbs a degraded write for `row` when
    /// `down` is out: the row's parity buddy, or its right neighbour when
    /// the buddy is the failed device itself (the supercap parity log's
    /// mirror).
    #[must_use]
    pub fn absorbing_device(&self, row: u64, down: u16) -> u16 {
        let parity = self.parity_device(row);
        if parity == down {
            (parity + 1) % self.devices
        } else {
            parity
        }
    }

    /// The first global LBA of device `device`'s stripe in row `row`.
    #[must_use]
    pub fn stripe_slba(&self, row: u64, device: u16) -> u64 {
        (row * u64::from(self.devices) + u64::from(device)) * self.stripe_lbas
    }
}

/// Per-fault runtime state while a device is out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ActiveFault {
    device: u16,
    spare_at: Nanos,
    /// Rows written while the device was out (degraded writes absorbed by
    /// parity) — always part of the rebuild set.
    dirty_rows: Vec<u64>,
    /// Rows pending rebuild, ascending; filled when rebuild starts.
    rebuild_rows: Vec<u64>,
    /// Rows `rebuild_rows[..rebuilt]` are done.
    rebuilt: usize,
    /// When the next rebuild row is due.
    next_row_at: Nanos,
}

/// Runtime fault state machine driven by the archive's serial command
/// stream. Owned by the [`ArchiveSet`]; `None` when no plan is installed —
/// the zero-overhead, byte-identical default.
///
/// [`ArchiveSet`]: crate::ArchiveSet
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjector {
    plan: FaultPlan,
    layout: Raid5Layout,
    state: ArrayState,
    next_event: usize,
    active: Option<ActiveFault>,
    stats: FaultStats,
    /// When the most recent rebuild finished (the fig26 "recovered" edge).
    recovered_at: Option<Nanos>,
    /// Completed rebuild rows awaiting telemetry export.
    pending_spans: Vec<RebuildSpan>,
    /// (instant, new state) transitions, for scenario inspection.
    transitions: Vec<(Nanos, ArrayState)>,
}

impl FaultInjector {
    /// Builds the injector for an array of `devices` devices striped at
    /// `stripe_lbas`.
    ///
    /// # Panics
    ///
    /// Panics if the array has fewer than two devices, a planned device
    /// index is out of range, events are unsorted, or recovery instants
    /// precede their faults.
    #[must_use]
    pub fn new(plan: FaultPlan, devices: u16, stripe_lbas: u64) -> Self {
        assert!(devices >= 2, "fault injection needs a multi-device array");
        let mut last = Nanos::ZERO;
        for event in &plan.events {
            assert!(
                event.device < devices,
                "fault plan names device {} of {devices}",
                event.device
            );
            assert!(
                event.at >= last,
                "fault events must be sorted and non-overlapping"
            );
            assert!(
                event.spare_at >= event.at,
                "spare cannot arrive before the fault"
            );
            last = event.spare_at;
        }
        assert!(
            plan.rebuild_interval > Nanos::ZERO,
            "rebuild pacing must be positive"
        );
        FaultInjector {
            plan,
            layout: Raid5Layout {
                devices,
                stripe_lbas,
            },
            state: ArrayState::Healthy,
            next_event: 0,
            active: None,
            stats: FaultStats::default(),
            recovered_at: None,
            pending_spans: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Current state of the array.
    #[must_use]
    pub fn state(&self) -> ArrayState {
        self.state
    }

    /// Fault / reconstruction / rebuild accounting.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The parity layout in force.
    #[must_use]
    pub fn layout(&self) -> Raid5Layout {
        self.layout
    }

    /// Rebuild completion fraction of the current (or last) fault: 1.0 when
    /// healthy with nothing pending.
    #[must_use]
    pub fn rebuild_progress(&self) -> f64 {
        match &self.active {
            None => 1.0,
            Some(active) if active.rebuild_rows.is_empty() => match self.state {
                ArrayState::Rebuilding => 1.0,
                _ => 0.0,
            },
            Some(active) => active.rebuilt as f64 / active.rebuild_rows.len() as f64,
        }
    }

    /// The device currently out, if any.
    #[must_use]
    pub fn down_device(&self) -> Option<u16> {
        self.active.as_ref().map(|a| a.device)
    }

    /// When the most recent rebuild completed (the array returned to
    /// `Healthy`), if any has.
    #[must_use]
    pub fn recovered_at(&self) -> Option<Nanos> {
        self.recovered_at
    }

    /// Every state transition observed so far, in order.
    #[must_use]
    pub fn transitions(&self) -> &[(Nanos, ArrayState)] {
        &self.transitions
    }

    /// Drains the completed rebuild rows accumulated since the last drain,
    /// for telemetry span export.
    pub fn drain_rebuild_spans(&mut self) -> Vec<RebuildSpan> {
        std::mem::take(&mut self.pending_spans)
    }

    /// Whether a *read* of `device` at `slba` must be reconstructed.
    #[must_use]
    pub fn read_is_degraded(&self, device: u16, slba: u64) -> bool {
        match (&self.state, &self.active) {
            (ArrayState::Degraded, Some(active)) => active.device == device,
            (ArrayState::Rebuilding, Some(active)) => {
                if active.device != device {
                    return false;
                }
                let row = self.layout.row_of_slba(slba);
                match active.rebuild_rows.binary_search(&row) {
                    Ok(index) => index >= active.rebuilt,
                    // A row never mapped on the lost device reads as
                    // zero-fill from the replacement, exactly like a healthy
                    // never-written page.
                    Err(_) => false,
                }
            }
            _ => false,
        }
    }

    /// Whether a *write* to `device` must be absorbed by parity (only while
    /// degraded — once the replacement is online, writes land on it
    /// directly and rebuild re-programs the row's mapping idempotently).
    #[must_use]
    pub fn write_is_degraded(&self, device: u16) -> bool {
        matches!((&self.state, &self.active), (ArrayState::Degraded, Some(active)) if active.device == device)
    }

    /// Whether `device` must be skipped by a power failure: the failed
    /// device while the array is degraded, when no controller is online to
    /// flush its buffer.
    #[must_use]
    pub fn flush_skips(&self, device: u16) -> bool {
        matches!((&self.state, &self.active), (ArrayState::Degraded, Some(active)) if active.device == device)
    }

    /// Advances the state machine to simulated instant `now`, injecting due
    /// faults and catching up paced rebuild rows on `devices`. Called from
    /// the archive's serial service path, so the observed clock — and with
    /// it every transition — is deterministic for a given command stream.
    pub fn poll(&mut self, now: Nanos, devices: &mut [SsdDevice]) {
        loop {
            match self.state {
                ArrayState::Healthy => {
                    let Some(event) = self.plan.events.get(self.next_event) else {
                        return;
                    };
                    if event.at > now {
                        return;
                    }
                    self.active = Some(ActiveFault {
                        device: event.device,
                        spare_at: event.spare_at,
                        dirty_rows: Vec::new(),
                        rebuild_rows: Vec::new(),
                        rebuilt: 0,
                        next_row_at: Nanos::ZERO,
                    });
                    self.stats.faults_injected += 1;
                    self.stats.lost_buffered_pages +=
                        devices[usize::from(event.device)].fail_stop() as u64;
                    self.state = ArrayState::Degraded;
                    self.transitions.push((event.at, ArrayState::Degraded));
                }
                ArrayState::Degraded => {
                    let active = self
                        .active
                        .as_mut()
                        .expect("degraded array has an active fault");
                    let rebuild_at = active.spare_at;
                    if rebuild_at > now {
                        return;
                    }
                    // The rebuild set: every row the lost device had mapped
                    // plus every row written while it was out.
                    let mut rows = active.dirty_rows.clone();
                    let device = &devices[usize::from(active.device)];
                    let page = u64::from(device.config().geometry.page_size);
                    for lpn in device.durable_lpns() {
                        rows.push(self.layout.row_of_slba(lpn * page / LBA_SIZE));
                    }
                    rows.sort_unstable();
                    rows.dedup();
                    self.stats.rebuild_rows_total = rows.len() as u64;
                    active.rebuild_rows = rows;
                    active.rebuilt = 0;
                    active.next_row_at = rebuild_at;
                    self.state = ArrayState::Rebuilding;
                    self.transitions.push((rebuild_at, ArrayState::Rebuilding));
                }
                ArrayState::Rebuilding => {
                    let active = self
                        .active
                        .as_ref()
                        .expect("rebuilding array has an active fault");
                    if active.rebuilt < active.rebuild_rows.len() {
                        if active.next_row_at > now {
                            return;
                        }
                        let row = active.rebuild_rows[active.rebuilt];
                        let at = active.next_row_at;
                        let down = active.device;
                        let end = self.rebuild_row(devices, down, row, at);
                        let active = self.active.as_mut().expect("still rebuilding");
                        active.rebuilt += 1;
                        active.next_row_at = at + self.plan.rebuild_interval;
                        self.stats.rebuild_rows_done += 1;
                        self.pending_spans.push(RebuildSpan {
                            device: down,
                            row,
                            start: at,
                            end,
                        });
                        if active.rebuilt < active.rebuild_rows.len() {
                            continue;
                        }
                        self.finish_rebuild(end);
                    } else {
                        let done_at = active.next_row_at;
                        self.finish_rebuild(done_at);
                    }
                }
            }
        }
    }

    fn finish_rebuild(&mut self, at: Nanos) {
        self.active = None;
        self.state = ArrayState::Healthy;
        self.recovered_at = Some(at);
        self.stats.repairs_completed += 1;
        self.next_event += 1;
        self.transitions.push((at, ArrayState::Healthy));
    }

    /// Regenerates stripe row `row` of the lost device: reads the row from
    /// every survivor, charges the XOR pass, and programs the replacement
    /// with forced unit access. Returns the completion instant.
    fn rebuild_row(&mut self, devices: &mut [SsdDevice], down: u16, row: u64, at: Nanos) -> Nanos {
        let bytes = self.layout.stripe_lbas * LBA_SIZE;
        let mut finish = at;
        for peer in 0..self.layout.devices {
            if peer == down {
                continue;
            }
            let slba = self.layout.stripe_slba(row, peer);
            let read = NvmeCommand::read(1, slba, bytes, PrpList::single(0));
            if let Ok(done) = devices[usize::from(peer)].service(&read, at) {
                finish = finish.max(done.finished_at);
                self.stats.rebuild_reads += 1;
            }
        }
        finish += self.xor_cost(bytes);
        let slba = self.layout.stripe_slba(row, down);
        let write = NvmeCommand::write(1, slba, bytes, PrpList::single(0)).with_fua(true);
        if let Ok(done) = devices[usize::from(down)].service(&write, finish) {
            finish = finish.max(done.finished_at);
            self.stats.rebuild_writes += 1;
        }
        finish
    }

    /// Serves a foreground read of the down device by reconstruction:
    /// `N − 1` survivor reads (same row offset on every peer stripe) plus
    /// the XOR charge. The completion finishes when the slowest survivor
    /// does, plus XOR.
    pub fn reconstruct_read(
        &mut self,
        devices: &mut [SsdDevice],
        cmd: &NvmeCommand,
        now: Nanos,
    ) -> IoCompletion {
        let down = self
            .active
            .as_ref()
            .map(|a| a.device)
            .expect("reconstruction needs a down device");
        let row = self.layout.row_of_slba(cmd.slba);
        let offset = cmd.slba % self.layout.stripe_lbas;
        let mut merged: Option<IoCompletion> = None;
        for peer in 0..self.layout.devices {
            if peer == down {
                continue;
            }
            let slba = self.layout.stripe_slba(row, peer) + offset;
            let read = NvmeCommand::read(cmd.nsid, slba, cmd.length, cmd.prp);
            if let Ok(done) = devices[usize::from(peer)].service(&read, now) {
                self.stats.reconstruction_reads += 1;
                merged = Some(merge_completion(merged, done));
            }
        }
        let mut done = merged.expect("an array of two or more devices has at least one survivor");
        done.finished_at += self.xor_cost(cmd.length.max(LBA_SIZE));
        self.stats.degraded_reads += 1;
        done
    }

    /// Absorbs a foreground write to the down device with a parity update
    /// on the row's surviving parity buddy, and marks the row dirty so
    /// rebuild resyncs it.
    ///
    /// # Errors
    ///
    /// Propagates the absorbing device's service error.
    pub fn absorb_write(
        &mut self,
        devices: &mut [SsdDevice],
        cmd: &NvmeCommand,
        now: Nanos,
    ) -> Result<IoCompletion, crate::device::SsdError> {
        let down = self
            .active
            .as_ref()
            .map(|a| a.device)
            .expect("absorption needs a down device");
        let row = self.layout.row_of_slba(cmd.slba);
        let target = self.layout.absorbing_device(row, down);
        let device = &mut devices[usize::from(target)];
        let done = device.service(cmd, now)?;
        let active = self
            .active
            .as_mut()
            .expect("absorption needs an active fault");
        if let Err(index) = active.dirty_rows.binary_search(&row) {
            active.dirty_rows.insert(index, row);
        }
        self.stats.parity_absorbed_writes += 1;
        Ok(done)
    }

    fn xor_cost(&self, bytes: u64) -> Nanos {
        Nanos::from_nanos(XOR_PER_LBA.as_nanos() * bytes.div_ceil(LBA_SIZE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_rotation_covers_every_device() {
        let layout = Raid5Layout {
            devices: 4,
            stripe_lbas: 8,
        };
        let owners: Vec<u16> = (0..4).map(|row| layout.parity_device(row)).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3],
            "parity must rotate over all devices"
        );
        assert_eq!(layout.parity_device(4), owners[0], "rotation has period N");
    }

    #[test]
    fn absorbing_device_avoids_the_failed_device() {
        let layout = Raid5Layout {
            devices: 3,
            stripe_lbas: 1,
        };
        for row in 0..9 {
            for down in 0..3 {
                let target = layout.absorbing_device(row, down);
                assert_ne!(
                    target, down,
                    "row {row}: absorbed write landed on the dead device"
                );
                assert!(target < 3);
            }
        }
    }

    #[test]
    fn row_and_stripe_math_round_trip() {
        let layout = Raid5Layout {
            devices: 4,
            stripe_lbas: 8,
        };
        // Stripe 6 → row 1, device 2; its first LBA is 48.
        assert_eq!(layout.row_of_slba(48), 1);
        assert_eq!(layout.stripe_slba(1, 2), 48);
        for slba in 0..256 {
            let row = layout.row_of_slba(slba);
            let device = ((slba / layout.stripe_lbas) % 4) as u16;
            let base = layout.stripe_slba(row, device);
            assert!(base <= slba && slba < base + layout.stripe_lbas);
        }
    }

    #[test]
    fn plan_validation_rejects_bad_schedules() {
        let plan =
            FaultPlan::new().with_fail_stop(1, Nanos::from_micros(10), Nanos::from_micros(30));
        let injector = FaultInjector::new(plan.clone(), 4, 8);
        assert_eq!(injector.state(), ArrayState::Healthy);
        assert!(std::panic::catch_unwind(|| FaultInjector::new(plan.clone(), 1, 8)).is_err());
        let out_of_range = FaultPlan::new().with_fail_stop(9, Nanos::ZERO, Nanos::ZERO);
        assert!(std::panic::catch_unwind(|| FaultInjector::new(out_of_range, 4, 8)).is_err());
        let unsorted = FaultPlan::new()
            .with_fail_stop(1, Nanos::from_micros(50), Nanos::from_micros(60))
            .with_fail_stop(0, Nanos::from_micros(10), Nanos::from_micros(20));
        assert!(std::panic::catch_unwind(|| FaultInjector::new(unsorted, 4, 8)).is_err());
    }
}
