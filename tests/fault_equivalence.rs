//! The fault-injection tier's pinned contract.
//!
//! PR 10 adds parity RAID, device-failure injection and rebuild-under-load.
//! None of it may perturb healthy serving, and all of it must replay
//! deterministically from the plan:
//!
//! 1. **Zero faults is free.** With no `FaultPlan` installed the parity
//!    array (`hams-TP-r5`) is metrics-byte-identical to its RAID-0 twin at
//!    the same shape — parity lives in the reserved OP region and the
//!    healthy data path never touches it.
//! 2. **Faults are part of the seed.** The same `FaultPlan` replays
//!    byte-identically across repeated runs, across the batched and
//!    per-access serving paths, and across grid worker threads — faults
//!    advance only on the simulated clock of the archive command stream,
//!    which every path drives through the one per-access timing body, so
//!    none can move a failure or a rebuild row.
//! 3. **Degraded reads are reads.** While a device is out, reads of its
//!    stripes reconstruct from the `N − 1` survivors and every page durable
//!    before the failure is durable again once the rebuild completes.
//! 4. **The figure has the right shape.** `fig26` shows the sojourn p99
//!    elevated against its healthy-twin baseline while degraded and
//!    rebuilding, and back within tolerance of the twin once recovered.

use hams::core::{AttachMode, PersistMode};
use hams::flash::{
    ArchiveSet, ArrayState, BackendTopology, FaultPlan, FaultStats, Raid5Layout, SsdConfig,
    LBA_SIZE,
};
use hams::nvme::{NvmeCommand, PrpList};
use hams::platforms::{
    build_fault_platform, fault_label, run_workload, run_workload_open_loop, run_workload_serial,
    HamsPlatform, OpenLoopConfig, Platform, QueueConfig, RunMetrics, ScaleProfile,
    FAULT_SWEEP_DEVICES, RAID_SWEEP_PAGE_BYTES, RAID_SWEEP_QUEUES,
};
use hams::sim::{parallel_map, Nanos};
use hams::workloads::WorkloadSpec;
use hams_bench::{fig26_fault_schedule, fig26_latency_under_rebuild, fig26_phase};
use proptest::prelude::*;

fn tiny() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed: 37,
    }
}

/// The RAID-0 twin of [`build_fault_platform`]: identical attach, persist
/// mode, cache, page size, queue shape and device count — only the backend
/// topology differs.
fn raid0_twin(scale: &ScaleProfile) -> HamsPlatform {
    HamsPlatform::from_config(
        HamsPlatform::scaled_config(AttachMode::Tight, PersistMode::Persist, scale.cache_bytes())
            .with_mos_page_size(RAID_SWEEP_PAGE_BYTES)
            .with_queues(QueueConfig::striped(RAID_SWEEP_QUEUES))
            .with_backend(BackendTopology::raid0_striped(
                FAULT_SWEEP_DEVICES,
                LBA_SIZE,
            )),
    )
}

#[test]
fn zero_fault_parity_platform_is_byte_identical_to_its_raid0_twin() {
    let scale = tiny();
    for workload in ["rndRd", "rndWr"] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let mut parity = build_fault_platform(&scale);
        let mut twin = raid0_twin(&scale);
        let with_parity = run_workload(&mut parity, spec, &scale);
        let reference = run_workload(&mut twin, spec, &scale);
        assert_eq!(
            with_parity,
            reference,
            "{}: zero-fault parity array diverged from its RAID-0 twin on {workload}",
            fault_label()
        );
        assert_eq!(
            parity.controller().archive().stats(),
            twin.controller().archive().stats(),
            "aggregate archive stats diverged on {workload}"
        );
        assert_eq!(
            parity.controller().archive().device_stats(),
            twin.controller().archive().device_stats(),
            "per-device command streams diverged on {workload}"
        );
        assert_eq!(
            parity.controller().archive().array_state(),
            ArrayState::Healthy
        );
        assert!(
            parity.controller().archive().fault_stats().is_none(),
            "no plan installed, so no fault machinery may have engaged"
        );
    }
}

fn read_cmd(slba: u64) -> NvmeCommand {
    NvmeCommand::read(1, slba, 4096, PrpList::single(0x1000))
}

fn write_cmd(slba: u64) -> NvmeCommand {
    NvmeCommand::write(1, slba, 4096, PrpList::single(0x1000))
}

/// A closed-loop serving path: [`run_workload`] (batched) or
/// [`run_workload_serial`] (per access).
type ServingPath = fn(&mut dyn Platform, WorkloadSpec, &ScaleProfile) -> RunMetrics;

/// One faulted closed-loop run through `serve`: run metrics, fault
/// statistics, final array state and the full state-machine transition log.
fn faulted_run(
    scale: &ScaleProfile,
    plan: &FaultPlan,
    end: Nanos,
    serve: ServingPath,
) -> (RunMetrics, FaultStats, ArrayState, Vec<(Nanos, ArrayState)>) {
    let spec = WorkloadSpec::by_name("rndWr").unwrap();
    let mut platform = build_fault_platform(scale);
    platform.controller_mut().set_fault_plan(plan.clone());
    let metrics = serve(&mut platform, spec, scale);
    platform.controller_mut().advance_faults(end);
    let stats = *platform.controller().archive().fault_stats().unwrap();
    let state = platform.controller().archive().array_state();
    let transitions = platform
        .controller()
        .archive()
        .fault()
        .unwrap()
        .transitions()
        .to_vec();
    (metrics, stats, state, transitions)
}

#[test]
fn fault_schedule_replays_byte_identically_across_runs_and_thread_counts() {
    let scale = tiny();
    // Calibrate the plan off a healthy run so the failure lands mid-run at
    // every scale, then drive every configuration with that one plan.
    let spec = WorkloadSpec::by_name("rndWr").unwrap();
    let healthy = run_workload(&mut build_fault_platform(&scale), spec, &scale);
    let plan = FaultPlan::new()
        .with_fail_stop(
            0,
            healthy.total_time.scale(0.3),
            healthy.total_time.scale(0.4),
        )
        .with_rebuild_interval(healthy.total_time.scale(1e-4).max(Nanos::from_nanos(1)));
    let end = healthy.total_time.scale(4.0);
    let reference = faulted_run(&scale, &plan, end, run_workload_serial);
    assert_eq!(
        reference.1.faults_injected, 1,
        "the planned failure must actually fire"
    );
    assert_eq!(
        reference.1.repairs_completed, 1,
        "the rebuild must complete"
    );
    assert_eq!(reference.2, ArrayState::Healthy);
    assert!(
        reference.1.rebuild_rows_done > 0
            && reference.1.rebuild_rows_done == reference.1.rebuild_rows_total
    );
    // The state machine walked Healthy → Degraded → Rebuilding → Healthy.
    let walked: Vec<ArrayState> = reference.3.iter().map(|(_, s)| *s).collect();
    assert_eq!(
        walked,
        vec![
            ArrayState::Degraded,
            ArrayState::Rebuilding,
            ArrayState::Healthy
        ]
    );
    assert_eq!(
        faulted_run(&scale, &plan, end, run_workload),
        reference,
        "the batched faulted run diverged from the per-access reference"
    );
    // And a straight re-run is a byte-identical replay.
    assert_eq!(
        faulted_run(&scale, &plan, end, run_workload_serial),
        reference
    );
    // Copies served side by side on worker threads (`HAMS_THREADS`, ambient
    // via the CI matrix) replay the same bytes too.
    for row in parallel_map(&[(); 3], |_| faulted_run(&scale, &plan, end, run_workload)) {
        assert_eq!(row, reference, "a faulted copy served in parallel diverged");
    }
}

#[test]
fn degraded_reads_reconstruct_and_rebuild_restores_durability() {
    let mut config = SsdConfig::tiny_for_tests();
    config.supercap_backed = true;
    let devices = 4u16;
    let mut set = ArchiveSet::new(
        config,
        BackendTopology::raid5_striped(devices, LBA_SIZE),
        4096,
    );
    let pages = 48u64;
    for slba in 0..pages {
        set.service(&write_cmd(slba).with_fua(true), Nanos::ZERO)
            .unwrap();
    }
    let durable_before: Vec<u64> = (0..pages).filter(|&l| set.is_durable(l)).collect();
    assert_eq!(
        durable_before.len() as u64,
        pages,
        "FUA writes must all be durable"
    );

    let down = 2u16;
    set.set_fault_plan(
        FaultPlan::new()
            .with_fail_stop(down, Nanos::from_micros(100), Nanos::from_millis(50))
            .with_rebuild_interval(Nanos::from_micros(5)),
    );

    // Every read of the dead device's stripes while degraded costs one read
    // on each of the N − 1 survivors (data placement is RAID-0's:
    // device = slba % N at this stripe size).
    let dead_slbas: Vec<u64> = (0..pages)
        .filter(|l| l % u64::from(devices) == u64::from(down))
        .collect();
    let mut now = Nanos::from_micros(150);
    for &slba in &dead_slbas {
        let before: Vec<u64> = (0..devices)
            .filter(|&d| d != down)
            .map(|d| set.device(d).stats().read_commands)
            .collect();
        let done = set.service(&read_cmd(slba), now).unwrap();
        assert!(
            done.finished_at > now,
            "degraded read must cost simulated time"
        );
        let after: Vec<u64> = (0..devices)
            .filter(|&d| d != down)
            .map(|d| set.device(d).stats().read_commands)
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a - b, 1, "each survivor serves one reconstruction read");
        }
        now = done.finished_at;
    }
    assert_eq!(set.array_state(), ArrayState::Degraded);
    let stats = *set.fault_stats().unwrap();
    assert_eq!(stats.degraded_reads, dead_slbas.len() as u64);
    assert_eq!(
        stats.reconstruction_reads,
        dead_slbas.len() as u64 * u64::from(devices - 1)
    );

    // A degraded write to the dead device is parity-absorbed and durable.
    set.service(&write_cmd(dead_slbas[0]).with_fua(true), now)
        .unwrap();
    assert!(set.is_durable(dead_slbas[0]));
    assert!(set.fault_stats().unwrap().parity_absorbed_writes >= 1);

    // After the spare arrives and the rebuild runs dry, nothing was lost.
    set.advance_faults(Nanos::from_millis(500));
    assert_eq!(set.array_state(), ArrayState::Healthy);
    let stats = *set.fault_stats().unwrap();
    assert_eq!(stats.repairs_completed, 1);
    assert_eq!(stats.rebuild_rows_done, stats.rebuild_rows_total);
    for &lpn in &durable_before {
        assert!(
            lpn < pages && set.is_durable(lpn),
            "page {lpn} lost across the rebuild"
        );
    }
}

#[test]
fn fig26_tail_is_elevated_under_rebuild_and_recovers() {
    let scale = ScaleProfile {
        capacity_divisor: 4096,
        accesses: 800,
        seed: 5,
    };
    let rows = fig26_latency_under_rebuild(&scale);
    for phase in ["healthy", "degraded", "rebuilding", "recovered"] {
        let row = fig26_phase(&rows, phase)
            .unwrap_or_else(|| panic!("fig26 must report a {phase} window"));
        assert_eq!(row.platform, fault_label());
        assert!(row.served > 0, "{phase} window served no requests");
        assert!(row.end_us > row.start_us, "{phase} window is empty");
    }
    let healthy = fig26_phase(&rows, "healthy").unwrap();
    let degraded = fig26_phase(&rows, "degraded").unwrap();
    let rebuilding = fig26_phase(&rows, "rebuilding").unwrap();
    let recovered = fig26_phase(&rows, "recovered").unwrap();
    // Before the failure the faulted run IS the twin.
    assert!((healthy.p99_us - healthy.baseline_p99_us).abs() < 1e-9);
    // Losing a device can only hurt the tail against the same arrivals.
    assert!(degraded.p99_us + 1e-9 >= degraded.baseline_p99_us);
    assert!(rebuilding.p99_us + 1e-9 >= rebuilding.baseline_p99_us);
    // And once rebuilt the tail returns to within tolerance of the twin.
    assert!(recovered.p99_us <= 2.0 * recovered.baseline_p99_us.max(1.0));
}

/// Replays the exact fig26 fault schedule open-loop twice and demands
/// byte-identical metrics and fault accounting — the deep end of contract 2.
#[test]
fn open_loop_fault_schedule_replays_byte_identically() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndWr").unwrap();
    let healthy = run_workload(&mut build_fault_platform(&scale), spec, &scale);
    let offered = 0.7 * healthy.accesses as f64 / healthy.total_time.as_secs_f64().max(1e-12);
    let (plan, span) = fig26_fault_schedule(scale.accesses, offered);
    let config = OpenLoopConfig::poisson(offered).with_records(false);
    let run = || {
        let mut platform = build_fault_platform(&scale);
        platform.controller_mut().set_fault_plan(plan.clone());
        let m = run_workload_open_loop(&mut platform, spec, &scale, &config);
        let end = m.last_finish.max(span).scale(2.0);
        platform.controller_mut().advance_faults(end);
        let stats = *platform.controller().archive().fault_stats().unwrap();
        (m.run, m.arrivals, m.served, m.dropped, m.last_finish, stats)
    };
    let first = run();
    assert_eq!(first.5.faults_injected, 1);
    assert_eq!(first.5.repairs_completed, 1);
    assert_eq!(first, run(), "open-loop fault replay diverged between runs");
}

proptest! {
    /// Parity rotation visits every device exactly once per `N` consecutive
    /// rows, so no single device carries the parity write load.
    #[test]
    fn parity_rotation_covers_every_device(devices in 2u16..9, base_row in 0u64..1_000) {
        let layout = Raid5Layout { devices, stripe_lbas: 1 };
        let mut seen: Vec<u16> = (0..u64::from(devices))
            .map(|r| layout.parity_device(base_row + r))
            .collect();
        seen.sort_unstable();
        let all: Vec<u16> = (0..devices).collect();
        prop_assert_eq!(seen, all);
    }
}
