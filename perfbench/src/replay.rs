//! The per-layer host-time profile (`--trace 1`).
//!
//! One traced session records, as simulated-time spans, the input stream
//! every layer of the serving spine received: the controller's per-access
//! span, the tag directory's `tag_hit`/`tag_miss` and `wait_stall` spans,
//! the archive's `fill_read`/`evict_write` service spans, the MSI
//! coalescer's `msi_delivery` spans and, on the open loop, the admission
//! spans. Together with the regenerated workload inputs they determine every
//! call the session made into a layer. Each stream is then replayed through
//! that layer's public entry point, on a fresh instance built from the
//! session's own configuration, under a host timer.
//!
//! A replay counts only if it reproduces the layer's recorded outputs
//! exactly: its hit/miss sequence, its completion and delivery instants, and
//! its stats counters. A layer whose replay does not is named as unmeasured
//! and its timings read -1; nothing is approximated.

use std::ops::Range;
use std::time::{Duration, Instant};

use hams::core::{HamsConfig, HamsController, NvmeEngine, PersistMode, ShardedTagArray, TagProbe};
use hams::flash::{ArchiveSet, LBA_SIZE};
use hams::nvme::{stripe_ranges_into, MsiCoalescer, NvmeCommand, PrpList};
use hams::platforms::{
    BatchOutcome, BatchRequest, HamsPlatform, Platform, ScaleProfile, DEFAULT_BATCH_SIZE,
};
use hams::sim::{LatencyVector, Nanos};
use hams::telemetry::{Layer, RunTelemetry, Span, DEFAULT_BUCKET_WIDTH};
use hams::workloads::{Access, TenantSource, TraceGenerator};

use crate::workload::{Sim, Workload};
use crate::{median, timed_session, Args, Metric, Tally, MIN_REPS};

/// Unattributed host time may be negative (replayed layers can run faster
/// in isolation than in the full program) by at most this share of the
/// end-to-end time before the attribution is reported as out of tolerance.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// One request of the traced session, in service order.
struct Served {
    access: Access,
    /// Arrival at the admission queue (zero in a closed loop).
    arrival: Nanos,
    /// Dispatch instant: the admission `queue_wait` span's end, or in a
    /// closed loop the previous request's finish.
    started: Nanos,
    /// Controller span: the instant the access issued and the one it
    /// finished.
    issued: Nanos,
    finished: Nanos,
    hit: bool,
    /// Tag span: the probe instant and the busy-check instant after it.
    tag_start: Nanos,
    tag_end: Nanos,
    wait: Option<(Nanos, Nanos)>,
    /// This access's NVMe, MSI and archive spans in [`Capture::ops`].
    ops: Range<usize>,
}

/// The traced session's layer input streams.
struct Capture {
    served: Vec<Served>,
    ops: Vec<Span>,
    queue_waits_ns: Vec<u64>,
    door_blocks: u64,
}

/// The session configuration every fresh layer instance is built from, and
/// the traced platform whose counters each replay must reproduce.
struct Ctx<'a> {
    workload: Workload,
    scale: ScaleProfile,
    config: HamsConfig,
    capacity: u64,
    sets: usize,
    page_bytes: u64,
    stripes: u64,
    traced: &'a HamsPlatform,
}

impl Ctx<'_> {
    fn slba_of(&self, page: u64) -> u64 {
        page * self.page_bytes / LBA_SIZE
    }

    fn nvdimm_addr_of(&self, page: u64) -> u64 {
        (page % self.sets as u64) * self.page_bytes
    }

    fn persist(&self) -> bool {
        matches!(self.config.persist, PersistMode::Persist)
    }

    fn page_of(&self, access: &Access) -> u64 {
        (access.addr % self.capacity) / self.page_bytes
    }

    /// `(lba offset, lba count)` of every stripe of a striped fill.
    fn stripe_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        stripe_ranges_into(self.page_bytes / LBA_SIZE, self.stripes, &mut ranges);
        ranges
    }
}

/// The workload's inputs in service order: the access and its arrival.
fn generate(ctx: &Ctx) -> Vec<(Access, Nanos)> {
    let w = ctx.workload;
    match w.spec() {
        Some(spec) => TraceGenerator::new(
            ctx.scale.scale_spec(spec),
            ctx.scale.seed,
            ctx.scale.accesses,
        )
        .map(|a| (a, Nanos::ZERO))
        .collect(),
        None => {
            let set = w.tenant_set();
            let scaled: Vec<_> = set
                .tenants
                .iter()
                .map(|t| ctx.scale.scale_spec(t.spec))
                .collect();
            TenantSource::new(&set, &scaled, ctx.scale.seed, ctx.scale.accesses)
                .map(|(_, a, t)| (a, t))
                .collect()
        }
    }
}

impl Capture {
    fn parse<'s>(
        ctx: &Ctx,
        inputs: &[(Access, Nanos)],
        spans: impl Iterator<Item = &'s Span>,
    ) -> Result<Capture, String> {
        let mut served: Vec<Served> = Vec::with_capacity(inputs.len());
        let mut ops = Vec::new();
        let mut requests = Vec::with_capacity(inputs.len());
        let mut queue_waits = Vec::new();
        let mut door_blocks = 0;
        let mut pending = 0;
        for span in spans {
            match (span.layer, span.name) {
                (Layer::Request, _) => requests.push((span.start, span.end)),
                (Layer::Admission, "queue_wait") => queue_waits.push((span.start, span.end)),
                (Layer::Admission, "door_block") => door_blocks += 1,
                (Layer::Controller, "access") => {
                    let Some(&(access, arrival)) = inputs.get(served.len()) else {
                        return Err("more controller spans than requests".into());
                    };
                    served.push(Served {
                        access,
                        arrival,
                        started: Nanos::ZERO,
                        issued: span.start,
                        finished: span.end,
                        hit: false,
                        tag_start: Nanos::ZERO,
                        tag_end: Nanos::ZERO,
                        wait: None,
                        ops: pending..ops.len(),
                    });
                    pending = ops.len();
                }
                (Layer::TagArray, name) => {
                    let last = served.last_mut().ok_or("tag span before any access")?;
                    match name {
                        "tag_hit" | "tag_miss" => {
                            last.hit = name == "tag_hit";
                            last.tag_start = span.start;
                            last.tag_end = span.end;
                        }
                        "wait_stall" => last.wait = Some((span.start, span.end)),
                        _ => return Err(format!("unknown tag span {name}")),
                    }
                }
                (Layer::Nvme | Layer::Msi | Layer::Archive, _) => ops.push(*span),
                (layer, name) => return Err(format!("unknown span {}/{name}", layer.name())),
            }
        }
        if served.len() != inputs.len() || requests.len() != inputs.len() {
            return Err(format!(
                "{} controller and {} request spans for {} requests",
                served.len(),
                requests.len(),
                inputs.len()
            ));
        }
        let open = ctx.workload.spec().is_none();
        if open && queue_waits.len() != served.len() {
            return Err("one queue_wait span per served request expected".into());
        }
        let mut previous_finish = Nanos::ZERO;
        for (i, s) in served.iter_mut().enumerate() {
            let expected = if open {
                s.started = queue_waits[i].1;
                (s.arrival, s.finished)
            } else {
                s.started = previous_finish;
                (s.issued, s.finished)
            };
            previous_finish = s.finished;
            if requests[i] != expected {
                return Err(format!(
                    "request {i} span disagrees with its controller span"
                ));
            }
        }
        Ok(Capture {
            served,
            ops,
            queue_waits_ns: queue_waits
                .iter()
                .map(|&(from, to)| (to - from).as_nanos())
                .collect(),
            door_blocks,
        })
    }

    fn ops_of(&self, s: &Served) -> &[Span] {
        &self.ops[s.ops.clone()]
    }
}

/// One layer's replay times, or the reason its replay failed to reproduce
/// the recording (after which it is not replayed again).
struct LayerTimes {
    name: &'static str,
    times: Vec<f64>,
    failure: Option<String>,
}

impl LayerTimes {
    fn new(name: &'static str) -> Self {
        LayerTimes {
            name,
            times: Vec::new(),
            failure: None,
        }
    }

    fn replay(&mut self, replay: impl FnOnce() -> Result<Duration, String>) {
        if self.failure.is_none() {
            match replay() {
                Ok(elapsed) => self.times.push(elapsed.as_secs_f64()),
                Err(reason) => self.failure = Some(reason),
            }
        }
    }

    /// Median host seconds, or NaN when unmeasured.
    fn seconds(&self) -> f64 {
        if self.failure.is_some() {
            f64::NAN
        } else {
            median(&self.times)
        }
    }
}

fn reproduce(what: &str, ok: bool) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} differ from the recording"))
    }
}

/// Trace, arrival and tenant-merge generation.
fn replay_generation(ctx: &Ctx, inputs: &[(Access, Nanos)]) -> Result<Duration, String> {
    let t = Instant::now();
    let generated = generate(ctx);
    let elapsed = t.elapsed();
    reproduce("generated inputs", generated == inputs)?;
    Ok(elapsed)
}

/// A dispatched batch: its requests' range in service order, and the
/// instant it started.
type Batch = (Range<usize>, Nanos);

/// The batches the session dispatched, rebuilt by the open loop's FIFO
/// rule: a batch takes up to [`DEFAULT_BATCH_SIZE`] of the requests that
/// arrived by the time the server freed, or waits for the next arrival. In
/// a closed loop every request is there from the start, so the rule cuts
/// the trace into chunks that each start where the last finished. A
/// request's compute gap is its issue instant minus its dispatch instant.
fn batches(cap: &Capture) -> Result<(Vec<BatchRequest>, Vec<Batch>), String> {
    let served = &cap.served;
    let n = served.len();
    let mut requests = Vec::with_capacity(n);
    let mut batches = Vec::new();
    let (mut next, mut admitted, mut server_free) = (0, 0, Nanos::ZERO);
    while next < n {
        while admitted < n && served[admitted].arrival <= server_free {
            admitted += 1;
        }
        if admitted == next {
            let t = served[next].arrival;
            while admitted < n && served[admitted].arrival <= t {
                admitted += 1;
            }
        }
        let end = admitted.min(next + DEFAULT_BATCH_SIZE);
        let start = server_free.max(served[next].arrival);
        let mut ready = start;
        for s in &served[next..end] {
            if s.started != ready || s.issued < ready {
                return Err("dispatch instants do not follow the batching rule".into());
            }
            requests.push(BatchRequest {
                access: s.access,
                compute: s.issued - ready,
            });
            ready = s.finished;
        }
        batches.push((next..end, start));
        server_free = served[end - 1].finished;
        next = end;
    }
    Ok((requests, batches))
}

/// `Platform::serve_batch_into` per recorded batch on a fresh platform.
/// Returns the total and the per-call host times.
fn replay_platform(
    ctx: &Ctx,
    cap: &Capture,
    requests: &[BatchRequest],
    batches: &[Batch],
    calls: &mut Vec<f64>,
) -> Result<Duration, String> {
    let mut platform = ctx.workload.prepare(&ctx.scale).platform;
    let mut out = BatchOutcome::with_capacity(DEFAULT_BATCH_SIZE);
    let mut total = Duration::ZERO;
    let mut same = true;
    calls.clear();
    for (range, start) in batches {
        let t = Instant::now();
        platform.serve_batch_into(&requests[range.clone()], *start, &mut out);
        let elapsed = t.elapsed();
        total += elapsed;
        calls.push(elapsed.as_secs_f64());
        same &= out.outcomes.len() == range.len()
            && out
                .outcomes
                .iter()
                .zip(&cap.served[range.clone()])
                .all(|(o, s)| o.finished_at == s.finished);
    }
    reproduce("batch outcomes", same)?;
    reproduce(
        "controller counters",
        platform.controller().stats() == ctx.traced.controller().stats(),
    )?;
    Ok(total)
}

/// `HamsController::access_into` per access on a fresh controller.
fn replay_controller(ctx: &Ctx, cap: &Capture) -> Result<Duration, String> {
    let inputs: Vec<(u64, bool, u64, Nanos)> = cap
        .served
        .iter()
        .map(|s| {
            let a = &s.access;
            (a.addr % ctx.capacity, a.is_write, a.size, s.issued)
        })
        .collect();
    let mut controller = HamsController::new(ctx.config);
    let mut outputs = vec![(Nanos::ZERO, false); inputs.len()];
    let mut breakdown = LatencyVector::new();
    let t = Instant::now();
    for (out, &(addr, is_write, size, issued)) in outputs.iter_mut().zip(&inputs) {
        *out = controller.access_into(addr, is_write, size, issued, &mut breakdown);
    }
    controller.merge_delay(&breakdown);
    let elapsed = t.elapsed();
    reproduce(
        "completion instants and hits",
        outputs
            .iter()
            .zip(&cap.served)
            .all(|(&(finished, hit), s)| finished == s.finished && hit == s.hit),
    )?;
    reproduce(
        "controller counters",
        controller.stats() == ctx.traced.controller().stats(),
    )?;
    Ok(elapsed)
}

/// The directory's busy check, probe, fill and dirty marking per access on
/// a fresh `ShardedTagArray`. A fill's busy window ends at the access's own
/// completion (every later probe of that set comes after it), unless a
/// later access waited on it: then at the recorded end of that wait.
fn replay_tag_array(ctx: &Ctx, cap: &Capture) -> Result<Duration, String> {
    let n = cap.served.len();
    let mut busy_until: Vec<Nanos> = cap.served.iter().map(|s| s.finished).collect();
    let mut last_fill: Vec<Option<usize>> = vec![None; ctx.sets];
    for (k, s) in cap.served.iter().enumerate() {
        let set = (ctx.page_of(&s.access) % ctx.sets as u64) as usize;
        if let (Some((_, until)), Some(filler)) = (s.wait, last_fill[set]) {
            busy_until[filler] = until;
        }
        if !s.hit {
            last_fill[set] = Some(k);
        }
    }
    let inputs: Vec<(u64, bool, Nanos, Nanos)> = cap
        .served
        .iter()
        .zip(&busy_until)
        .map(|(s, &until)| (ctx.page_of(&s.access), s.access.is_write, s.tag_end, until))
        .collect();
    let mut tags = ShardedTagArray::with_config(ctx.sets, ctx.config.shards);
    let mut outputs = vec![(false, None); n];
    let t = Instant::now();
    for (out, &(page, is_write, check_at, until)) in outputs.iter_mut().zip(&inputs) {
        let waited = tags.busy_until(page, check_at);
        let hit = matches!(tags.probe(page), TagProbe::Hit);
        if !hit {
            tags.fill(page);
            tags.set_busy(page, until);
        }
        if is_write {
            tags.mark_dirty(page);
        }
        *out = (hit, waited);
    }
    let elapsed = t.elapsed();
    reproduce(
        "hit/miss sequence and waits",
        outputs
            .iter()
            .zip(&cap.served)
            .all(|(&(hit, waited), s)| hit == s.hit && waited == s.wait.map(|w| w.1)),
    )?;
    let stats = ctx.traced.controller().stats();
    let tag_stats = tags.stats();
    reproduce(
        "directory counters",
        (tag_stats.hits, tag_stats.misses, tag_stats.busy_waits)
            == (stats.hits, stats.misses, stats.wait_stalls),
    )?;
    Ok(elapsed)
}

/// One striped fill's completion burst and the delivery instants the
/// session recorded for it.
struct Bursts {
    completions: Vec<Nanos>,
    delivered: Vec<Nanos>,
    ranges: Vec<Range<usize>>,
}

fn bursts(ctx: &Ctx, cap: &Capture) -> Result<Bursts, String> {
    let mut b = Bursts {
        completions: Vec::new(),
        delivered: Vec::new(),
        ranges: Vec::new(),
    };
    if ctx.stripes <= 1 {
        return Ok(b);
    }
    for s in &cap.served {
        let first = b.completions.len();
        for span in cap.ops_of(s) {
            match (span.layer, span.name) {
                (Layer::Archive, "fill_read") => b.completions.push(span.end),
                (Layer::Msi, _) => b.delivered.push(span.end),
                _ => {}
            }
        }
        if b.completions.len() > first {
            b.ranges.push(first..b.completions.len());
        }
    }
    if b.delivered.len() != b.completions.len() {
        return Err("one msi_delivery span per striped completion expected".into());
    }
    Ok(b)
}

/// `MsiCoalescer::deliver_into` per striped fill on a fresh coalescer.
fn replay_msi(ctx: &Ctx, bursts: &Bursts) -> Result<Duration, String> {
    let mut coalescer = MsiCoalescer::new(ctx.config.queues.coalescing);
    let mut delivered = vec![Nanos::ZERO; bursts.completions.len()];
    let mut scratch = Vec::new();
    let t = Instant::now();
    for range in &bursts.ranges {
        coalescer.deliver_into(&bursts.completions[range.clone()], &mut scratch);
        delivered[range.clone()].copy_from_slice(&scratch);
    }
    let elapsed = t.elapsed();
    reproduce("delivery instants", delivered == bursts.delivered)?;
    reproduce(
        "MSI counters",
        coalescer.stats() == ctx.traced.controller().engine().coalescer_stats(),
    )?;
    Ok(elapsed)
}

/// One call the controller made into its NVMe engine.
enum EngineCall {
    Retire(Nanos),
    Write {
        page: u64,
        slba: u64,
        done: Nanos,
    },
    ReadTracked {
        page: u64,
        slba: u64,
        addr: u64,
        done: Nanos,
    },
    Deliver(Range<usize>),
    ReadOn {
        queue: u16,
        page: u64,
        slba: u64,
        lbas: u64,
        addr: u64,
        done: Nanos,
    },
}

/// The engine calls of the session: a retire scan at each probe (and after
/// each wait), the journalled eviction write, and the fill's read(s) with
/// their MSI burst. A fill's journal entry completes with its access (its
/// exact instant is internal to the controller, and every later retire scan
/// comes after the access finished, so each scan retires the same set).
fn engine_calls(ctx: &Ctx, cap: &Capture) -> Vec<EngineCall> {
    let ranges = ctx.stripe_ranges();
    let mut calls = Vec::new();
    let mut bursts = 0;
    for s in &cap.served {
        calls.push(EngineCall::Retire(s.tag_start));
        if let Some((_, until)) = s.wait {
            calls.push(EngineCall::Retire(until));
        }
        let page = ctx.page_of(&s.access);
        let mut stripes = Vec::new();
        for span in cap.ops_of(s) {
            match (span.layer, span.name) {
                (Layer::Archive, "evict_write") => {
                    let victim = span.request.unwrap_or_default();
                    calls.push(EngineCall::Write {
                        page: victim,
                        slba: ctx.slba_of(victim),
                        done: span.end,
                    });
                }
                (Layer::Archive, "fill_read") if ctx.stripes <= 1 => {
                    calls.push(EngineCall::ReadTracked {
                        page,
                        slba: ctx.slba_of(page),
                        addr: ctx.nvdimm_addr_of(page),
                        done: s.finished,
                    });
                }
                (Layer::Archive, "fill_read") => stripes.push(span.queue.unwrap_or_default()),
                _ => {}
            }
        }
        if !stripes.is_empty() {
            calls.push(EngineCall::Deliver(bursts..bursts + stripes.len()));
            bursts += stripes.len();
            for queue in stripes {
                let (offset, lbas) = ranges[usize::from(queue)];
                calls.push(EngineCall::ReadOn {
                    queue,
                    page,
                    slba: ctx.slba_of(page) + offset,
                    lbas,
                    addr: ctx.nvdimm_addr_of(page) + offset * LBA_SIZE,
                    done: s.finished,
                });
            }
        }
    }
    calls
}

/// The engine calls on a fresh `NvmeEngine` with the session's queue,
/// shard and backend shape.
fn replay_nvme(ctx: &Ctx, calls: &[EngineCall], bursts: &Bursts) -> Result<Duration, String> {
    let archive = ctx.traced.controller().archive();
    let mut engine = NvmeEngine::with_backend(
        ctx.config.queues,
        ctx.config.shards,
        ctx.sets as u64,
        archive.num_devices(),
        archive.stripe_lbas(),
    );
    let (fua, page_bytes) = (ctx.persist(), ctx.page_bytes);
    let mut pages = Vec::new();
    let mut delivered = Vec::new();
    let t = Instant::now();
    for call in calls {
        match *call {
            EngineCall::Retire(now) => engine.retire_due_into(now, &mut pages),
            EngineCall::Write { page, slba, done } => {
                let _ = engine.issue_write(page, slba, page_bytes, 0, fua, done);
            }
            EngineCall::ReadTracked {
                page,
                slba,
                addr,
                done,
            } => {
                let cmd = NvmeCommand::read(
                    1,
                    slba,
                    page_bytes,
                    PrpList::for_transfer(addr, page_bytes, 4096),
                );
                let _ = engine.issue_read_tracked(page, cmd, done);
            }
            EngineCall::Deliver(ref range) => {
                engine.deliver_times_into(&bursts.completions[range.clone()], &mut delivered);
            }
            EngineCall::ReadOn {
                queue,
                page,
                slba,
                lbas,
                addr,
                done,
            } => {
                let _ = engine.issue_read_on(queue, page, slba, lbas * LBA_SIZE, addr, done);
            }
        }
    }
    let elapsed = t.elapsed();
    let traced = ctx.traced.controller().engine();
    reproduce(
        "engine counters",
        engine.stats() == traced.stats()
            && engine.coalescer_stats() == traced.coalescer_stats()
            && engine.outstanding() == traced.outstanding(),
    )?;
    Ok(elapsed)
}

/// Every archive command of the session with its issue instant and its
/// recorded completion.
fn archive_commands(ctx: &Ctx, cap: &Capture) -> Vec<(NvmeCommand, Nanos, Nanos)> {
    let ranges = ctx.stripe_ranges();
    let page_bytes = ctx.page_bytes;
    let mut commands = Vec::new();
    for s in &cap.served {
        let page = ctx.page_of(&s.access);
        for span in cap.ops_of(s) {
            let command = match (span.layer, span.name) {
                (Layer::Archive, "evict_write") => NvmeCommand::write(
                    1,
                    ctx.slba_of(span.request.unwrap_or_default()),
                    page_bytes,
                    PrpList::for_transfer(0, page_bytes, 4096),
                )
                .with_fua(ctx.persist()),
                (Layer::Archive, "fill_read") if ctx.stripes <= 1 => NvmeCommand::read(
                    1,
                    ctx.slba_of(page),
                    page_bytes,
                    PrpList::for_transfer(ctx.nvdimm_addr_of(page), page_bytes, 4096),
                ),
                (Layer::Archive, "fill_read") => {
                    let (offset, lbas) = ranges[usize::from(span.queue.unwrap_or_default())];
                    NvmeCommand::read(
                        1,
                        ctx.slba_of(page) + offset,
                        lbas * LBA_SIZE,
                        PrpList::for_transfer(
                            ctx.nvdimm_addr_of(page) + offset * LBA_SIZE,
                            lbas * LBA_SIZE,
                            4096,
                        ),
                    )
                }
                _ => continue,
            };
            commands.push((command, span.start, span.end));
        }
    }
    commands
}

/// `ArchiveSet::service` per command on a fresh archive set (its devices'
/// FTL, internal DRAM and flash included).
fn replay_archive(ctx: &Ctx, commands: &[(NvmeCommand, Nanos, Nanos)]) -> Result<Duration, String> {
    let mut archive = ArchiveSet::new(ctx.config.ssd, ctx.config.backend, ctx.page_bytes);
    let mut finished = vec![None; commands.len()];
    let t = Instant::now();
    for (out, (command, at, _)) in finished.iter_mut().zip(commands) {
        *out = archive.service(command, *at).ok().map(|c| c.finished_at);
    }
    let elapsed = t.elapsed();
    reproduce(
        "completion instants",
        finished
            .iter()
            .zip(commands)
            .all(|(f, (_, _, end))| *f == Some(*end)),
    )?;
    let traced = ctx.traced.controller().archive();
    let ftl = |a: &ArchiveSet| {
        a.devices()
            .iter()
            .map(|d| *d.ftl_stats())
            .collect::<Vec<_>>()
    };
    reproduce(
        "device counters",
        archive.stats() == traced.stats()
            && archive.dram_stats() == traced.dram_stats()
            && ftl(&archive) == ftl(traced),
    )?;
    Ok(elapsed)
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The traced session, its replays, and the per-layer metrics.
///
/// After the traced session, rounds run until `--seconds` have passed (and
/// at least [`MIN_REPS`] ran). Each round times one untraced session and one
/// replay of every layer back to back, so host-speed phases of a shared
/// machine hit all of them alike; every figure is a median over rounds.
pub fn profile(args: &Args, reference: &[Sim], tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let scale = w.scale(args.seed, 0);
    let mut prepared = w.prepare(&scale);
    let mut telemetry = RunTelemetry::with_capacity(usize::MAX >> 8, DEFAULT_BUCKET_WIDTH);
    let t = Instant::now();
    let outcome = w.run_traced(&mut prepared, &scale, &mut telemetry);
    let traced_s = t.elapsed().as_secs_f64();
    let sim = outcome.sim();
    tally.session(&w, &sim, None);
    tally.check(
        "traced simulated metrics identical to untraced",
        sim == reference[0],
    );
    tally.check(
        "span recorder dropped nothing",
        telemetry.recorder.dropped() == 0,
    );

    let traced = &prepared.platform;
    let config = *traced.controller().config();
    let ctx = Ctx {
        workload: w,
        scale,
        config,
        capacity: traced.controller().mos_capacity_bytes(),
        sets: traced.controller().cache_sets(),
        page_bytes: config.mos_page_size,
        stripes: match config.persist {
            PersistMode::Persist => 1,
            PersistMode::Extend => u64::from(config.queues.num_queues)
                .min(config.mos_page_size / LBA_SIZE)
                .max(1),
        },
        traced,
    };
    let inputs = generate(&ctx);
    let capture = Capture::parse(&ctx, &inputs, telemetry.recorder.spans());
    drop(telemetry);
    let capture = match capture {
        Ok(capture) => capture,
        Err(e) => {
            tally.check(&format!("traced session parses ({e})"), false);
            return Vec::new();
        }
    };

    let batches = batches(&capture);
    let bursts = bursts(&ctx, &capture);
    let calls_to_engine = engine_calls(&ctx, &capture);
    let commands = archive_commands(&ctx, &capture);
    let mut gen = LayerTimes::new("workloads");
    let mut platform = LayerTimes::new("platforms");
    let mut controller = LayerTimes::new("controller");
    let mut tag = LayerTimes::new("tag_array");
    let mut msi = LayerTimes::new("msi");
    let mut nvme = LayerTimes::new("nvme");
    let mut archive = LayerTimes::new("archive");
    let mut untraced = Vec::new();
    let mut calls = Vec::new();
    let began = Instant::now();
    while untraced.len() < MIN_REPS || began.elapsed().as_secs_f64() < args.seconds {
        untraced.push(timed_session(args, reference, 0, tally).1);
        gen.replay(|| replay_generation(&ctx, &inputs));
        platform.replay(|| {
            let (requests, batches) = batches.as_ref().map_err(Clone::clone)?;
            replay_platform(&ctx, &capture, requests, batches, &mut calls)
        });
        controller.replay(|| replay_controller(&ctx, &capture));
        tag.replay(|| replay_tag_array(&ctx, &capture));
        msi.replay(|| replay_msi(&ctx, bursts.as_ref().map_err(Clone::clone)?));
        nvme.replay(|| {
            replay_nvme(
                &ctx,
                &calls_to_engine,
                bursts.as_ref().map_err(Clone::clone)?,
            )
        });
        archive.replay(|| replay_archive(&ctx, &commands));
    }
    let layers = [&gen, &platform, &controller, &tag, &msi, &nvme, &archive];
    let unmeasured: Vec<&str> = layers
        .iter()
        .filter_map(|l| {
            let reason = l.failure.as_ref()?;
            println!("unmeasured layer {}: {reason}", l.name);
            Some(l.name)
        })
        .collect();
    let untraced_s = median(&untraced);
    let [gen_s, platform_s, controller_s, tag_s, msi_s, nvme_s, archive_s] =
        layers.map(LayerTimes::seconds);
    let n = capture.served.len() as f64;
    let per_request = |seconds: f64| seconds * 1e9 / n;
    let e2e = per_request(untraced_s);
    let gen = per_request(gen_s);
    let serve = per_request(platform_s);
    let controller = per_request(controller_s);
    let tag = per_request(tag_s);
    let nvme = per_request(nvme_s);
    let msi = per_request(msi_s);
    let archive = per_request(archive_s);
    let controller_self = controller - tag - nvme - archive;
    let unattributed = e2e - gen - serve;
    println!(
        "attribution (ns/request): generation {gen:.1} + platforms {:.1} + controller {controller_self:.1} \
         + tag_array {tag:.1} + nvme {:.1} + msi {msi:.1} + archive {archive:.1} + unattributed \
         {unattributed:.1} = end-to-end {e2e:.1}",
        serve - controller,
        nvme - msi,
    );
    if unattributed < -ATTRIBUTION_TOLERANCE * e2e {
        println!(
            "attribution outside tolerance: the layers sum to more than {:.0}% over end-to-end",
            ATTRIBUTION_TOLERANCE * 100.0
        );
    }
    println!("unmeasured layers: {}", unmeasured.len());

    let stats = traced.controller().stats();
    let engine = traced.controller().engine();
    let msi_stats = engine.coalescer_stats();
    let archive_set = traced.controller().archive();
    let ssd = archive_set.stats();
    let ftl = archive_set.primary().ftl_stats();
    let commands_issued = (engine.stats().reads_issued + engine.stats().writes_issued) as f64;
    let delay = |component: &str| stats.delay.component(component).as_nanos() as f64 / n;
    let or_unmeasured = |v: f64| if v.is_finite() { v } else { -1.0 };
    let per = |seconds: f64, count: f64| {
        if count > 0.0 {
            seconds * 1e9 / count
        } else {
            0.0
        }
    };
    let queue_wait_p99 = {
        let waits: Vec<f64> = capture.queue_waits_ns.iter().map(|&w| w as f64).collect();
        if waits.is_empty() {
            0.0
        } else {
            percentile(&waits, 99.0) / 1e3
        }
    };
    [
        ("end_to_end.host_ns_per_access", e2e, "ns"),
        ("workloads.gen_ns_per_access", gen, "ns"),
        ("platforms.serve_batch_calls", calls.len() as f64, "count"),
        (
            "platforms.serve_batch_p50_us",
            percentile(&calls, 50.0) * 1e6,
            "us",
        ),
        (
            "platforms.serve_batch_p99_us",
            percentile(&calls, 99.0) * 1e6,
            "us",
        ),
        ("platforms.self_ns_per_access", serve - controller, "ns"),
        ("platforms.queue_wait_p99_us", queue_wait_p99, "sim_us"),
        ("platforms.door_blocks", capture.door_blocks as f64, "count"),
        ("controller.ns_per_access", controller, "ns"),
        ("controller.self_ns_per_access", controller_self, "ns"),
        ("controller.hits", stats.hits as f64, "count"),
        ("controller.misses", stats.misses as f64, "count"),
        ("controller.hit_rate", stats.hit_rate(), "ratio"),
        (
            "controller.dirty_evictions",
            stats.evictions as f64,
            "count",
        ),
        (
            "controller.clean_replacements",
            stats.clean_replacements as f64,
            "count",
        ),
        ("controller.wait_stalls", stats.wait_stalls as f64, "count"),
        (
            "controller.delay_nvdimm_ns_per_access",
            delay("nvdimm"),
            "sim_ns",
        ),
        ("controller.delay_dma_ns_per_access", delay("dma"), "sim_ns"),
        ("controller.delay_ssd_ns_per_access", delay("ssd"), "sim_ns"),
        ("tag_array.probes", n, "count"),
        ("tag_array.ns_per_probe", tag, "ns"),
        (
            "nvme.reads_issued",
            engine.stats().reads_issued as f64,
            "count",
        ),
        (
            "nvme.writes_issued",
            engine.stats().writes_issued as f64,
            "count",
        ),
        ("nvme.self_ns_per_access", nvme - msi, "ns"),
        (
            "nvme.ns_per_command",
            per(nvme_s - msi_s, commands_issued),
            "ns",
        ),
        ("msi.interrupts", msi_stats.interrupts as f64, "count"),
        ("msi.mean_burst", msi_stats.mean_burst(), "ratio"),
        ("msi.ns_per_access", msi, "ns"),
        (
            "msi.ns_per_delivery",
            per(msi_s, bursts.as_ref().map_or(0, |b| b.ranges.len()) as f64),
            "ns",
        ),
        ("archive.commands", ssd.total_commands() as f64, "count"),
        ("archive.ns_per_access", archive, "ns"),
        (
            "archive.ns_per_command",
            per(archive_s, commands.len() as f64),
            "ns",
        ),
        ("ssd.page_reads", ssd.page_reads as f64, "count"),
        ("ssd.page_programs", ssd.page_programs as f64, "count"),
        (
            "ssd.dram_hit_rate",
            archive_set.dram_stats().hit_rate(),
            "ratio",
        ),
        (
            "ftl.write_amplification",
            ftl.write_amplification(),
            "ratio",
        ),
        ("ftl.gc_runs", ftl.gc_runs as f64, "count"),
        (
            "telemetry.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
        ("unattributed_ns_per_access", unattributed, "ns"),
        ("layers.unmeasured", unmeasured.len() as f64, "count"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name, or_unmeasured(value), unit))
    .collect()
}
