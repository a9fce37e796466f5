//! The HAMS NVMe engine: in-controller management of the submission and
//! completion queues, journal tags and interrupts.
//!
//! The engine replaces the OS NVMe driver. The controller composes each
//! fill and eviction command once, the archive serves it, and the engine
//! journals that same command: it sets the journal tag when the command is
//! issued, retires the command when its completion arrives, and — because
//! the queues live in the pinned NVDIMM region — can be scanned after a
//! power failure to find the commands that never completed (§V-C, Fig. 15).
//!
//! Each in-flight command lives exactly once, in the engine's journal: an
//! unordered list of the journal-tagged SQ entries. Only a handful of
//! commands are ever in flight, so the list is scanned rather than indexed:
//! the engine caches the earliest scheduled completion, a retire with
//! nothing due costs one compare against it, and a due retire is a short
//! scan that swap-removes what completed. The device fetches every
//! command the instant it is submitted, so the model keeps no ring state: a
//! per-queue command-identifier counter is all that remains of each
//! submission/completion pair.
//!
//! Independent fills are striped across the [`QueueConfig`]'s queue pairs
//! (the paper's multi-queue submission) and their completion interrupts
//! coalesce through an [`MsiCoalescer`]; [`QueueConfig::single`] reproduces
//! the original single-queue engine exactly.

use hams_nvme::{
    CommandId, MsiCoalescer, MsiCoalescerStats, NvmeCommand, NvmeOpcode, PrpList, QueueConfig,
};
use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

use crate::tag_array::ShardConfig;

/// One command tracked by the engine, with the HAMS-side metadata the cache
/// logic needs. A plain `Copy` value, like the command it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackedCommand {
    /// Fully-qualified identifier (queue pair + per-queue cid).
    pub id: CommandId,
    /// The command as it sits in the submission queue.
    pub command: NvmeCommand,
    /// MoS page the command fills or evicts.
    pub mos_page: u64,
    /// Tag-directory bank labelling the page's set, recorded at issue time.
    /// Recovery checks it against the directory's labelling of the page (a
    /// journal-tag integrity check) before it clears the stale busy window
    /// the dead operation left on that set.
    pub shard: u16,
    /// Archive-set device owning the command's stripe, recorded at issue
    /// time. Power-failure recovery replays the command through the archive
    /// set, which routes it back to this device; the recorded index is
    /// checked against that routing, exactly as `shard` is for the
    /// directory.
    pub device: u16,
    /// Simulated completion time assigned by the device model.
    pub completes_at: Nanos,
}

/// Accounting counters for the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Read (fill) commands issued.
    pub reads_issued: u64,
    /// Write (eviction / persist) commands issued.
    pub writes_issued: u64,
    /// Completions processed.
    pub completions: u64,
    /// Commands re-issued by power-failure recovery.
    pub recovered: u64,
}

/// One journal entry. Its command's journal tag is set while the command
/// is outstanding; recovery clears it, and may do so while the completion
/// the device model scheduled has yet to fire. Such an entry stays until
/// that completion fires, which still counts as one, and an entry goes once
/// its tag is clear and no completion is scheduled.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    tracked: TrackedCommand,
    /// The scheduled completion has not fired (nor died with the power).
    scheduled: bool,
}

impl InFlight {
    fn outstanding(&self) -> bool {
        self.tracked.command.journal_tag
    }
}

/// The in-controller NVMe engine.
///
/// # Example
///
/// ```
/// use hams_core::{NvmeEngine, ShardConfig};
/// use hams_nvme::QueueConfig;
/// use hams_sim::Nanos;
///
/// // One queue pair, a one-bank directory of 64 sets, one archive device.
/// let mut engine = NvmeEngine::with_backend(QueueConfig::single(), ShardConfig::single(), 64, 1, 1);
/// engine.issue_write(7, 0x1c0, 4096, 0xF000, false, Nanos::from_micros(5));
/// assert_eq!(engine.journaled_incomplete(Nanos::ZERO).len(), 1);
/// let mut retired = Vec::new();
/// engine.retire_due_into(Nanos::from_micros(5), &mut retired);
/// assert_eq!(retired, vec![7]);
/// assert!(engine.journaled_incomplete(Nanos::from_micros(5)).is_empty());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NvmeEngine {
    config: QueueConfig,
    shards: ShardConfig,
    cache_sets: u64,
    devices: u16,
    stripe_lbas: u64,
    /// Next command identifier of each queue pair; wraps like an NVMe cid.
    next_cid: Vec<u16>,
    coalescer: MsiCoalescer,
    /// Every journal entry, in no particular order.
    journal: Vec<InFlight>,
    /// The earliest scheduled completion in `journal`, [`Nanos::MAX`] when
    /// none is scheduled.
    next_due: Nanos,
    stats: EngineStats,
}

impl NvmeEngine {
    /// Creates an engine with the queue shape described by `config` inside a
    /// controller whose tag directory has `cache_sets` sets labelled by
    /// `shards`, in front of `devices` archives striped `stripe_lbas` LBAs
    /// per unit. Each journal tag records its page's bank and the device
    /// owning its command's stripe, so the power-failure scan can check the
    /// page against the directory and the replay against the archive the
    /// dead command was in flight to.
    #[must_use]
    pub fn with_backend(
        config: QueueConfig,
        shards: ShardConfig,
        cache_sets: u64,
        devices: u16,
        stripe_lbas: u64,
    ) -> Self {
        NvmeEngine {
            next_cid: vec![0; usize::from(config.num_queues.max(1))],
            coalescer: MsiCoalescer::new(config.coalescing),
            journal: Vec::new(),
            next_due: Nanos::MAX,
            stats: EngineStats::default(),
            config,
            shards,
            cache_sets: cache_sets.max(1),
            devices: devices.max(1),
            stripe_lbas: stripe_lbas.max(1),
        }
    }

    /// The queue shape in force.
    #[must_use]
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Number of queue pairs managed.
    #[must_use]
    pub fn num_queues(&self) -> u16 {
        self.next_cid.len() as u16
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// MSI coalescing counters (interrupts posted, completions covered).
    #[must_use]
    pub fn coalescer_stats(&self) -> MsiCoalescerStats {
        self.coalescer.stats()
    }

    /// Number of commands issued but not yet retired.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.journal
            .iter()
            .filter(|entry| entry.outstanding())
            .count()
    }

    /// The queue pair a MoS page's commands stripe onto: pages are
    /// distributed round-robin across the pairs.
    #[must_use]
    pub fn queue_for_page(&self, mos_page: u64) -> u16 {
        (mos_page % self.next_cid.len() as u64) as u16
    }

    /// The tag-directory shard shape this engine stamps onto journal tags.
    #[must_use]
    pub fn shard_config(&self) -> ShardConfig {
        self.shards
    }

    /// The tag-directory bank labelling `mos_page`'s set.
    #[must_use]
    pub fn shard_for_page(&self, mos_page: u64) -> u16 {
        self.shards.shard_of_set(
            (mos_page % self.cache_sets) as usize,
            self.cache_sets as usize,
        )
    }

    /// The archive-set device owning the stripe that starts at LBA `slba` —
    /// the routing [`hams_flash::ArchiveSet`] applies, mirrored here so
    /// every journal tag records its command's device.
    #[must_use]
    pub fn device_for_slba(&self, slba: u64) -> u16 {
        if self.devices <= 1 {
            0
        } else {
            ((slba / self.stripe_lbas) % u64::from(self.devices)) as u16
        }
    }

    /// Issues a fill (read) command for `mos_page` on queue pair `queue`,
    /// as a striped fill spreads one MoS page's stripe commands across the
    /// whole set. The data lands at NVDIMM address `nvdimm_addr` and the
    /// device service completes at `completes_at`.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is not one of the engine's queue pairs.
    pub fn issue_read_on(
        &mut self,
        queue: u16,
        mos_page: u64,
        slba: u64,
        length: u64,
        nvdimm_addr: u64,
        completes_at: Nanos,
    ) -> CommandId {
        let cmd = NvmeCommand::read(
            1,
            slba,
            length,
            PrpList::for_transfer(nvdimm_addr, length, 4096),
        );
        self.issue(queue, cmd, mos_page, completes_at)
    }

    /// Issues an already-composed fill command for `mos_page` on the page's
    /// queue pair, journalling it as it is.
    pub fn issue_read_tracked(
        &mut self,
        mos_page: u64,
        cmd: NvmeCommand,
        completes_at: Nanos,
    ) -> CommandId {
        self.issue(self.queue_for_page(mos_page), cmd, mos_page, completes_at)
    }

    /// Issues an eviction (write) command for `mos_page` reading its data from
    /// NVDIMM address `nvdimm_addr` (typically a PRP-pool clone slot).
    pub fn issue_write(
        &mut self,
        mos_page: u64,
        slba: u64,
        length: u64,
        nvdimm_addr: u64,
        fua: bool,
        completes_at: Nanos,
    ) -> CommandId {
        let cmd = NvmeCommand::write(
            1,
            slba,
            length,
            PrpList::for_transfer(nvdimm_addr, length, 4096),
        )
        .with_fua(fua);
        self.issue(self.queue_for_page(mos_page), cmd, mos_page, completes_at)
    }

    /// Journals `cmd` on `queue` with its tag set and schedules its
    /// completion at `completes_at`: the command the controller composed,
    /// and the device served, moves into the journal as it is.
    pub(crate) fn issue(
        &mut self,
        queue: u16,
        mut cmd: NvmeCommand,
        mos_page: u64,
        completes_at: Nanos,
    ) -> CommandId {
        match cmd.opcode {
            NvmeOpcode::Read => self.stats.reads_issued += 1,
            NvmeOpcode::Write => self.stats.writes_issued += 1,
        }
        let next = &mut self.next_cid[usize::from(queue)];
        let id = CommandId::new(queue, *next);
        *next = next.wrapping_add(1);
        cmd.cid = id.cid;
        cmd.journal_tag = true;
        self.next_due = self.next_due.min(completes_at);
        self.journal.push(InFlight {
            tracked: TrackedCommand {
                id,
                shard: self.shard_for_page(mos_page),
                device: self.device_for_slba(cmd.slba),
                command: cmd,
                mos_page,
                completes_at,
            },
            scheduled: true,
        });
        id
    }

    /// Delivery times of one burst of stripe completions under the engine's
    /// MSI coalescing policy, in ascending completion order, into `out`
    /// (cleared first; the fill path reuses one buffer across misses). The
    /// controller uses this to know when the interrupt covering a fill's
    /// last stripe reaches the cache logic.
    pub fn deliver_times_into(&mut self, completions: &[Nanos], out: &mut Vec<Nanos>) {
        self.coalescer.deliver_into(completions, out);
    }

    /// Processes every completion whose device service has finished by `now`:
    /// clears the journal tag and removes the command from the outstanding
    /// set. `pages` is cleared first and then holds the MoS pages whose
    /// commands retired, in ascending order.
    pub fn retire_due_into(&mut self, now: Nanos, pages: &mut Vec<u64>) {
        pages.clear();
        if now >= self.next_due {
            self.drain_due(now, |page| pages.push(page));
            pages.sort_unstable();
        }
    }

    /// [`Self::retire_due_into`] for the controller, which never reads the
    /// retired pages: when nothing is due it costs one compare.
    #[inline]
    pub(crate) fn retire(&mut self, now: Nanos) {
        if now >= self.next_due {
            self.drain_due(now, |_| {});
        }
    }

    /// Removes every entry whose completion is due by `now`, counting each
    /// completion and handing `retired` the page of each command still
    /// outstanding, then recomputes the earliest scheduled completion.
    fn drain_due(&mut self, now: Nanos, mut retired: impl FnMut(u64)) {
        let mut next_due = Nanos::MAX;
        let mut index = 0;
        while let Some(entry) = self.journal.get(index) {
            if entry.scheduled {
                let completes_at = entry.tracked.completes_at;
                if completes_at <= now {
                    self.stats.completions += 1;
                    if entry.outstanding() {
                        retired(entry.tracked.mos_page);
                    }
                    self.journal.swap_remove(index);
                    continue;
                }
                next_due = next_due.min(completes_at);
            }
            index += 1;
        }
        self.next_due = next_due;
    }

    /// Commands whose journal tag is still set at `now` — exactly what the
    /// recovery scan of §V-C finds in the pinned SQ region after a power
    /// failure. Ordered by (queue, cid) so the multi-queue scan is
    /// deterministic.
    #[must_use]
    pub fn journaled_incomplete(&self, now: Nanos) -> Vec<TrackedCommand> {
        let mut v: Vec<TrackedCommand> = self
            .journal
            .iter()
            .map(|entry| &entry.tracked)
            .filter(|t| t.completes_at > now && t.command.journal_tag)
            .copied()
            .collect();
        v.sort_by_key(|t| t.id);
        v
    }

    /// Drops every pending completion event: a power failure kills in-flight
    /// device work, so completions scheduled for after the failure must
    /// never be drained as normal successes. Recovery goes through the
    /// journal-tag scan ([`Self::journaled_incomplete`]), which reads the
    /// tracked commands, not the completion stream.
    pub fn drop_in_flight_completions(&mut self) {
        self.journal.retain_mut(|entry| {
            entry.scheduled = false;
            entry.outstanding()
        });
        self.next_due = Nanos::MAX;
    }

    /// Marks a set of commands as recovered (re-issued after power
    /// restoration) and retires them. A recovered command whose completion
    /// is still scheduled stays in the journal, its tag clear, until that
    /// completion fires.
    pub fn mark_recovered(&mut self, ids: &[CommandId]) {
        let mut index = 0;
        while let Some(entry) = self.journal.get_mut(index) {
            if entry.outstanding() && ids.contains(&entry.tracked.id) {
                entry.tracked.command.journal_tag = false;
                self.stats.recovered += 1;
                if !entry.scheduled {
                    self.journal.swap_remove(index);
                    continue;
                }
            }
            index += 1;
        }
    }

    /// Returns `true` when no command is in flight and no completion is
    /// pending — the paper's quiescence condition, under which the queue
    /// pairs' head and tail pointers coincide.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.journal.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// An engine with the queue shape `config`, a one-bank directory and one
    /// archive device.
    fn engine(config: QueueConfig) -> NvmeEngine {
        NvmeEngine::with_backend(config, ShardConfig::single(), 1, 1, 1)
    }

    /// Issues a fill for `page` on the page's queue pair.
    fn read(e: &mut NvmeEngine, page: u64, slba: u64, completes_at: Nanos) -> CommandId {
        e.issue_read_on(e.queue_for_page(page), page, slba, 4096, 0, completes_at)
    }

    fn retired_pages(e: &mut NvmeEngine, now: Nanos) -> Vec<u64> {
        let mut pages = Vec::new();
        e.retire_due_into(now, &mut pages);
        pages
    }

    #[test]
    fn issue_and_retire_lifecycle() {
        let mut e = engine(QueueConfig::single());
        assert!(e.is_quiescent());
        read(&mut e, 3, 0, Nanos::from_micros(8));
        e.issue_write(5, 8, 4096, 0x2000, false, Nanos::from_micros(4));
        assert_eq!(e.outstanding(), 2);
        assert!(!e.is_quiescent());

        // Only the write has completed by 5 µs.
        let retired = retired_pages(&mut e, Nanos::from_micros(5));
        assert_eq!(retired, vec![5]);
        assert_eq!(e.outstanding(), 1);

        let retired = retired_pages(&mut e, Nanos::from_micros(10));
        assert_eq!(retired, vec![3]);
        assert!(e.is_quiescent());
        assert_eq!(e.stats().completions, 2);
    }

    #[test]
    fn journal_scan_finds_only_incomplete_commands() {
        let mut e = engine(QueueConfig::single());
        e.issue_write(1, 0, 4096, 0x1000, false, Nanos::from_micros(2));
        e.issue_write(2, 8, 4096, 0x2000, false, Nanos::from_micros(50));
        retired_pages(&mut e, Nanos::from_micros(10));
        // Power fails at 10 µs: only the second command is journaled-incomplete.
        let pending = e.journaled_incomplete(Nanos::from_micros(10));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].mos_page, 2);
        assert!(pending[0].command.journal_tag);
    }

    #[test]
    fn mark_recovered_counts_and_clears() {
        let mut e = engine(QueueConfig::single());
        let id = e.issue_write(9, 0, 4096, 0x1000, true, Nanos::from_micros(100));
        let pending = e.journaled_incomplete(Nanos::ZERO);
        assert_eq!(pending.len(), 1);
        e.mark_recovered(&[id]);
        assert_eq!(e.stats().recovered, 1);
        assert_eq!(e.outstanding(), 0);
    }

    #[test]
    fn stats_split_reads_and_writes() {
        let mut e = engine(QueueConfig::single());
        read(&mut e, 1, 0, Nanos::ZERO);
        e.issue_write(2, 0, 4096, 0, false, Nanos::ZERO);
        assert_eq!(e.stats().reads_issued, 1);
        assert_eq!(e.stats().writes_issued, 1);
    }

    #[test]
    fn shallow_queue_still_accepts_back_to_back_commands() {
        let mut e = engine(QueueConfig::single());
        // The device fetches each command as it is submitted, so the ring
        // depth bounds nothing: three commands fit a two-entry queue.
        for page in 0..3 {
            read(&mut e, page, 0, Nanos::from_secs(1));
        }
        assert_eq!(e.outstanding(), 3);
    }

    #[test]
    fn dropped_completions_are_never_drained_as_successes() {
        let mut e = engine(QueueConfig::single());
        e.issue_write(1, 0, 4096, 0x1000, false, Nanos::from_micros(100));
        // Power fails at 50 µs: the in-flight completion dies with it, and
        // recovery re-issues the journaled command.
        let pending = e.journaled_incomplete(Nanos::from_micros(50));
        assert_eq!(pending.len(), 1);
        e.drop_in_flight_completions();
        e.mark_recovered(&[pending[0].id]);
        // Time passing the original completion must not retire anything —
        // the command was recovered, not completed.
        assert!(retired_pages(&mut e, Nanos::from_micros(200)).is_empty());
        assert_eq!(e.stats().completions, 0);
        assert_eq!(e.stats().recovered, 1);
    }

    #[test]
    fn multi_queue_engine_stripes_pages_across_pairs() {
        let mut e = engine(QueueConfig::striped(4));
        assert_eq!(e.num_queues(), 4);
        let a = read(&mut e, 0, 0, Nanos::from_micros(1));
        let b = read(&mut e, 1, 8, Nanos::from_micros(2));
        let c = read(&mut e, 5, 16, Nanos::from_micros(3));
        assert_eq!(a.queue, 0);
        assert_eq!(b.queue, 1);
        assert_eq!(c.queue, 1, "page 5 stripes onto queue 5 % 4");
        assert_eq!(e.outstanding(), 3);
        let retired = retired_pages(&mut e, Nanos::from_micros(3));
        assert_eq!(retired, vec![0, 1, 5]);
        assert!(e.is_quiescent());
    }

    #[test]
    fn explicit_queue_reads_land_where_directed() {
        let mut e = engine(QueueConfig::striped(2));
        let id = e.issue_read_on(1, 0, 0, 4096, 0, Nanos::from_micros(1));
        assert_eq!(id.queue, 1);
        let pending = e.journaled_incomplete(Nanos::ZERO);
        assert_eq!(pending[0].id, id);
    }

    #[test]
    fn journal_tags_record_the_owning_shard() {
        let mut e =
            NvmeEngine::with_backend(QueueConfig::single(), ShardConfig::interleaved(4), 8, 1, 1);
        // Pages 0, 1, 5 map to sets 0, 1, 5 of 8; interleaved over 4 banks
        // that is shards 0, 1, 1.
        e.issue_write(0, 0, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(1, 8, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(5, 16, 4096, 0, false, Nanos::from_secs(1));
        let shards: Vec<u16> = e
            .journaled_incomplete(Nanos::ZERO)
            .iter()
            .map(|t| t.shard)
            .collect();
        assert_eq!(shards, vec![0, 1, 1]);
        assert_eq!(e.shard_for_page(13), 1, "set 5 of 8 lives in bank 1");
        assert_eq!(e.shard_config().count, 4);
    }

    #[test]
    fn single_shard_topology_is_the_default() {
        let e = engine(QueueConfig::single());
        assert_eq!(e.shard_config(), ShardConfig::single());
        assert_eq!(e.shard_for_page(12345), 0);
        assert_eq!(e.device_for_slba(98765), 0, "single backend is device 0");
    }

    #[test]
    fn journal_tags_record_the_owning_device() {
        // 4 devices, 8-LBA (one 32 KB page) stripe units.
        let mut e = NvmeEngine::with_backend(QueueConfig::single(), ShardConfig::single(), 8, 4, 8);
        // slba 0 → stripe 0 → device 0; slba 8 → stripe 1 → device 1;
        // slba 40 → stripe 5 → device 1.
        e.issue_write(0, 0, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(1, 8, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(5, 40, 4096, 0, false, Nanos::from_secs(1));
        let devices: Vec<u16> = e
            .journaled_incomplete(Nanos::ZERO)
            .iter()
            .map(|t| t.device)
            .collect();
        assert_eq!(devices, vec![0, 1, 1]);
        assert_eq!(e.device_for_slba(16), 2);
        assert_eq!(e.device_for_slba(32), 0, "stripe 4 wraps to device 0");
    }

    #[test]
    fn issue_read_tracked_journals_the_composed_command_verbatim() {
        let mut e = engine(QueueConfig::single());
        let cmd = NvmeCommand::read(1, 24, 4096, PrpList::for_transfer(0x3000, 4096, 4096));
        let id = e.issue_read_tracked(3, cmd, Nanos::from_micros(9));
        let pending = e.journaled_incomplete(Nanos::ZERO);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, id);
        assert_eq!(pending[0].mos_page, 3);
        // Identical to what issue_read_on would have journalled for the same
        // geometry: the composed command plus the journal tag.
        assert_eq!(pending[0].command, cmd.with_journal_tag(true));
    }

    #[test]
    fn commands_are_small_plain_values() {
        // An NVMe submission-queue entry is 64 bytes; the modelled command
        // fits in one, and neither it nor its journal entry owns heap data.
        assert!(std::mem::size_of::<NvmeCommand>() <= 64);
        assert!(!std::mem::needs_drop::<NvmeCommand>());
        assert!(!std::mem::needs_drop::<TrackedCommand>());
    }

    #[test]
    fn deliver_times_follow_the_coalescing_policy() {
        let mut e = engine(QueueConfig::striped(2));
        let mut d = Vec::new();
        e.deliver_times_into(&[Nanos::from_micros(3), Nanos::from_micros(1)], &mut d);
        // Threshold 2: one interrupt covers both, posted at the later time.
        assert_eq!(d, vec![Nanos::from_micros(3); 2]);
        assert_eq!(e.coalescer_stats().interrupts, 1);
        assert_eq!(e.coalescer_stats().completions, 2);
    }

    #[test]
    fn multi_queue_journal_scan_orders_by_queue_then_cid() {
        let mut e = engine(QueueConfig::striped(2));
        // Pages 1 and 3 both stripe onto queue 1; page 2 onto queue 0.
        e.issue_write(1, 0, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(2, 8, 4096, 0, false, Nanos::from_secs(1));
        e.issue_write(3, 16, 4096, 0, false, Nanos::from_secs(1));
        let pending = e.journaled_incomplete(Nanos::ZERO);
        let order: Vec<u64> = pending.iter().map(|t| t.mos_page).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    /// The engine's contract without the journal list: commands keyed by
    /// id, and completion events in firing order, each naming its command's
    /// id.
    #[derive(Default)]
    struct Model {
        tracked: BTreeMap<CommandId, (u64, Nanos)>,
        events: BTreeMap<(Nanos, u64), CommandId>,
        next_seq: u64,
        next_cid: [u16; 2],
        stats: EngineStats,
    }

    impl Model {
        fn issue(&mut self, page: u64, is_write: bool, at: Nanos) -> CommandId {
            let queue = (page % 2) as u16;
            let id = CommandId::new(queue, self.next_cid[usize::from(queue)]);
            self.next_cid[usize::from(queue)] += 1;
            if is_write {
                self.stats.writes_issued += 1;
            } else {
                self.stats.reads_issued += 1;
            }
            self.tracked.insert(id, (page, at));
            self.events.insert((at, self.next_seq), id);
            self.next_seq += 1;
            id
        }

        fn retire(&mut self, now: Nanos) -> Vec<u64> {
            let mut pages = Vec::new();
            while let Some(entry) = self.events.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                let id = entry.remove();
                self.stats.completions += 1;
                pages.extend(self.tracked.remove(&id).map(|(page, _)| page));
            }
            pages.sort_unstable();
            pages
        }

        fn journaled(&self, now: Nanos) -> Vec<(CommandId, u64, Nanos)> {
            self.tracked
                .iter()
                .filter(|(_, &(_, at))| at > now)
                .map(|(&id, &(page, at))| (id, page, at))
                .collect()
        }

        fn recover(&mut self, ids: &[CommandId]) {
            for id in ids {
                if self.tracked.remove(id).is_some() {
                    self.stats.recovered += 1;
                }
            }
        }
    }

    fn journaled(e: &NvmeEngine, now: Nanos) -> Vec<(CommandId, u64, Nanos)> {
        let pending = e.journaled_incomplete(now);
        assert!(
            pending.windows(2).all(|w| w[0].id < w[1].id),
            "journal scan must be sorted by (queue, cid)"
        );
        pending
            .iter()
            .map(|t| (t.id, t.mos_page, t.completes_at))
            .collect()
    }

    proptest! {
        /// Issue / retire / power-fail / recover / re-issue sequences agree
        /// with the keyed model, through the public issue and retire calls
        /// and through the controller's: a composed command journalled
        /// verbatim, and the retire that collects no pages. Recovery may
        /// clear a command whose completion is still scheduled (no power
        /// failure dropped it): that completion must still count when it
        /// fires and retire nothing, exactly as it finds no command under
        /// its id.
        #[test]
        fn flat_journal_matches_the_keyed_model(
            ops in proptest::collection::vec((0u8..8, 0u64..64, 0u64..64), 1..200),
        ) {
            let mut e = engine(QueueConfig::striped(2));
            let mut m = Model::default();
            let mut now = Nanos::ZERO;
            for (op, a, b) in ops {
                match op {
                    0 | 1 => {
                        let page = a % 16;
                        let at = now + Nanos::from_micros(b % 40);
                        let id = if op == 0 {
                            e.issue_write(page, page * 8, 4096, 0, false, at)
                        } else {
                            read(&mut e, page, page * 8, at)
                        };
                        prop_assert_eq!(id, m.issue(page, op == 0, at));
                    }
                    2 => {
                        now += Nanos::from_micros(a % 16);
                        prop_assert_eq!(retired_pages(&mut e, now), m.retire(now));
                    }
                    3 => {
                        // Power failure: drain what finished, then every
                        // later completion dies with the power.
                        now += Nanos::from_micros(a % 16);
                        prop_assert_eq!(retired_pages(&mut e, now), m.retire(now));
                        e.drop_in_flight_completions();
                        m.events.clear();
                    }
                    4 => {
                        let ids: Vec<CommandId> =
                            journaled(&e, now).iter().map(|t| t.0).collect();
                        e.mark_recovered(&ids);
                        m.recover(&ids);
                    }
                    5 => {
                        let page = a % 16;
                        let at = now + Nanos::from_micros(b % 40);
                        let prp = PrpList::for_transfer(page * 4096, 4096, 4096);
                        let is_write = b % 2 == 0;
                        let cmd = if is_write {
                            NvmeCommand::write(1, page * 8, 4096, prp).with_fua(a % 3 == 0)
                        } else {
                            NvmeCommand::read(1, page * 8, 4096, prp)
                        };
                        let id = e.issue(e.queue_for_page(page), cmd, page, at);
                        prop_assert_eq!(id, m.issue(page, is_write, at));
                        let journalled = e
                            .journal
                            .iter()
                            .find(|entry| entry.tracked.id == id)
                            .map(|entry| entry.tracked.command);
                        let mut expected = cmd.with_journal_tag(true);
                        expected.cid = id.cid;
                        prop_assert_eq!(journalled, Some(expected));
                    }
                    6 => {
                        now += Nanos::from_micros(a % 16);
                        e.retire(now);
                        m.retire(now);
                    }
                    _ => {
                        let pending = journaled(&e, now);
                        if !pending.is_empty() {
                            let id = pending[b as usize % pending.len()].0;
                            e.mark_recovered(&[id]);
                            m.recover(&[id]);
                        }
                    }
                }
                prop_assert_eq!(journaled(&e, now), m.journaled(now));
                prop_assert_eq!(e.outstanding(), m.tracked.len());
                prop_assert_eq!(*e.stats(), m.stats);
                prop_assert_eq!(
                    e.is_quiescent(),
                    m.tracked.is_empty() && m.events.is_empty()
                );
            }
        }
    }
}
