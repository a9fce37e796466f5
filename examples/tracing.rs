//! Request-lifecycle tracing on the serving spine: attach the simulated-time
//! span tracer and metrics registry to an open-loop hams-TE run, then walk
//! what they captured — per-layer span counts, one request's journey through
//! the spine, a metric series, and the first lines of the Chrome-trace
//! export that `figures timeline` writes to disk.
//!
//! Run with: `cargo run --release --example tracing`

use hams::platforms::{
    run_workload, run_workload_open_loop_traced, OpenLoopConfig, PlatformKind, ScaleProfile,
};
use hams::telemetry::{chrome_trace_json, Layer, RunTelemetry};
use hams::workloads::WorkloadSpec;

fn main() {
    let scale = ScaleProfile {
        capacity_divisor: 512,
        accesses: 10_000,
        seed: 11,
    };
    let spec = WorkloadSpec::by_name("rndRd").expect("known workload");

    // Calibrate the closed-loop service rate, then offer 90% of it as an
    // open-loop Poisson stream — enough pressure for real queueing without
    // saturating the box.
    let service_rate = {
        let mut platform = PlatformKind::HamsTE.build(&scale);
        let m = run_workload(platform.as_mut(), spec, &scale);
        m.accesses as f64 / m.total_time.as_secs_f64().max(1e-12)
    };
    let config = OpenLoopConfig::poisson(0.9 * service_rate);
    let mut platform = PlatformKind::HamsTE.build(&scale);
    let mut telemetry =
        RunTelemetry::with_capacity(scale.accesses * 8, hams::telemetry::DEFAULT_BUCKET_WIDTH);
    let metrics =
        run_workload_open_loop_traced(platform.as_mut(), spec, &scale, &config, &mut telemetry);

    println!("--- traced hams-TE rndRd open-loop run ---");
    println!(
        "arrivals={} served={} dropped={}  spans recorded={}",
        metrics.arrivals,
        metrics.served,
        metrics.dropped,
        telemetry.recorder.len()
    );

    // Tracing is observation only: the run metrics are byte-identical with
    // the tracer detached (tests/telemetry_equivalence.rs pins this on all
    // eleven platforms).
    println!("\n--- spans per serving-spine layer ---");
    let counts = telemetry.layer_counts();
    for layer in Layer::ALL {
        println!("{:<10} {}", layer.name(), counts[layer.index()]);
    }

    // Follow one page through the spine: every span carries the MoS page as
    // its correlation id, plus shard/queue/device tags where they apply.
    let spans = telemetry.spans_sorted();
    if let Some(page) = spans
        .iter()
        .find(|s| s.layer == Layer::Nvme)
        .and_then(|s| s.request)
    {
        println!("\n--- journey of MoS page {page} ---");
        for s in spans.iter().filter(|s| s.request == Some(page)).take(12) {
            let tag = [
                s.shard.map(|v| format!("shard={v}")),
                s.queue.map(|v| format!("queue={v}")),
                s.device.map(|v| format!("device={v}")),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(" ");
            println!(
                "{:>12} .. {:>12} ns  {:<10} {:<14} {tag}",
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.layer.name(),
                s.name
            );
        }
    }

    // The registry samples typed series on a simulated-time bucket grid.
    println!("\n--- nvme_inflight series (first 5 buckets) ---");
    if let Some(series) = telemetry.registry.get("nvme_inflight") {
        for bucket in series.buckets().iter().take(5) {
            println!(
                "t={:>10} ns  samples={:<4} mean={:.2} max={:.0}",
                bucket.start.as_nanos(),
                bucket.samples,
                bucket.mean(),
                bucket.max
            );
        }
    }

    // The Chrome-trace export: load the full file in Perfetto
    // (ui.perfetto.dev) or chrome://tracing. `cargo run -p hams-bench --bin
    // figures -- timeline` writes it plus the series CSV/JSON.
    let trace = chrome_trace_json(&[("hams-TE rndRd".to_owned(), spans)]);
    println!("\n--- chrome trace export ({} bytes) ---", trace.len());
    for line in trace.lines().take(6) {
        println!("{line}");
    }
    println!("...");
}
