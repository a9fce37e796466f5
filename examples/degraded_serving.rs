//! Degraded-mode serving end to end: fail a device in the parity array
//! mid-run, serve through the outage (reads reconstruct from the survivors,
//! writes are parity-absorbed), let the spare arrive and the rebuild drain,
//! and watch the whole episode through the fault state machine and the
//! platform's telemetry gauges.
//!
//! Run with: `cargo run --release --example degraded_serving`

use hams::core::FaultPlan;
use hams::platforms::{
    build_fault_platform, fault_label, run_workload, run_workload_open_loop, OpenLoopConfig,
    Platform, ScaleProfile,
};
use hams::sim::Nanos;
use hams::workloads::WorkloadSpec;

fn print_gauges(platform: &dyn Platform, when: &str) {
    let mut gauges = Vec::new();
    platform.telemetry_gauges(&mut gauges);
    println!("--- telemetry gauges {when} ---");
    for (name, value) in gauges {
        println!("{name:<28} {value}");
    }
    println!();
}

fn main() {
    let scale = ScaleProfile {
        capacity_divisor: 512,
        accesses: 20_000,
        seed: 7,
    };
    let spec = WorkloadSpec::by_name("rndWr").expect("known workload");

    // Calibrate the healthy array's closed-loop service rate, then offer
    // 70% of it open-loop — sustained pressure, so the failure and the
    // rebuild both contend with real foreground traffic.
    let service_rate = {
        let mut platform = build_fault_platform(&scale);
        let m = run_workload(&mut platform, spec, &scale);
        m.accesses as f64 / m.total_time.as_secs_f64().max(1e-12)
    };
    let offered = 0.7 * service_rate;
    let span = Nanos::from_nanos_f64(scale.accesses as f64 / offered * 1e9);

    // Device 0 fail-stops at 30% of the expected run, its spare arrives at
    // 40%, and the rebuild copies one reconstructed row every 0.01% of the
    // run — slow enough to overlap plenty of foreground serving.
    let plan = FaultPlan::new()
        .with_fail_stop(0, span.scale(0.30), span.scale(0.40))
        .with_rebuild_interval(span.scale(1e-4).max(Nanos::from_nanos(1)));

    let mut platform = build_fault_platform(&scale);
    platform.controller_mut().set_fault_plan(plan);
    println!(
        "{} serving {} open-loop at {:.0}/s with a planned device failure\n",
        fault_label(),
        spec.name,
        offered
    );

    let metrics = run_workload_open_loop(
        &mut platform,
        spec,
        &scale,
        &OpenLoopConfig::poisson(offered),
    );
    // Drive simulated time past the end of the stream so the trailing
    // rebuild rows drain and the array returns to healthy.
    platform
        .controller_mut()
        .advance_faults(metrics.last_finish.max(span).scale(2.0));

    let [p50, p99, p999] = metrics.sojourn_p50_p99_p999();
    let us = |p: Option<Nanos>| p.map_or(0.0, |n| n.as_micros_f64());
    println!("--- serving through the outage ---");
    println!(
        "arrivals={} served={} dropped={}  sojourn p50={:.1}us p99={:.1}us p999={:.1}us\n",
        metrics.arrivals,
        metrics.served,
        metrics.dropped,
        us(p50),
        us(p99),
        us(p999),
    );

    let controller = platform.controller();
    println!("--- fault state machine ---");
    let injector = controller.archive().fault().expect("plan installed");
    let mut previous = "Healthy".to_owned();
    for (at, state) in injector.transitions() {
        println!("t={:>10.1}us  {previous} -> {state:?}", at.as_micros_f64());
        previous = format!("{state:?}");
    }
    println!();

    let stats = controller.archive().fault_stats().expect("plan installed");
    println!("--- degraded-mode accounting ---");
    println!("degraded reads            {}", stats.degraded_reads);
    println!("reconstruction reads      {}", stats.reconstruction_reads);
    println!("parity-absorbed writes    {}", stats.parity_absorbed_writes);
    println!(
        "rebuild rows              {}/{}",
        stats.rebuild_rows_done, stats.rebuild_rows_total
    );
    println!(
        "rebuild traffic           {} reads, {} writes\n",
        stats.rebuild_reads, stats.rebuild_writes
    );

    print_gauges(&platform, "after recovery");

    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.repairs_completed, 1);
    println!(
        "recovered at t={:.1}us: the array is healthy again and every page \
         durable before the failure is durable now.",
        injector
            .recovered_at()
            .expect("rebuild completed")
            .as_micros_f64()
    );
}
