//! `figures` — regenerates every table and figure of the paper from the
//! command line.
//!
//! Usage: `cargo run -p hams-bench --release --bin figures [-- <id> ...]`
//! where `<id>` is one of `table1 table2 table3 fig5 fig6 fig7 fig10 fig16
//! fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 fig26 ablation
//! timeline`; with no arguments every artefact is produced. Every id is
//! checked before anything runs: an unknown id prints the valid ones and
//! exits with status 2.
//!
//! `fig21` is this reproduction's NVMe queue-count sensitivity study, `fig22`
//! its tag-array shard-count study — pinned flat by the shard-invariance
//! contract — `fig23` its archive device-scaling study over RAID-0 backends
//! and the CXL attach, `fig24` its open-loop latency-vs-offered-load
//! study locating each platform's max sustainable throughput, `fig25` its
//! multi-tenant noisy-neighbour study of a latency-sensitive tenant's
//! sojourn tail under a write-heavy antagonist, `fig26` its fault-injection
//! study of the sojourn tail through a device failure and
//! rebuild-under-load on the parity array, `ablation` its study of three
//! design choices (ULL-Flash half-page striping, the SSD-internal DRAM with
//! persist mode, and the attach point), and `timeline` its traced
//! request-lifecycle study: the open-loop hams-TE scenario replayed with the
//! simulated-time span tracer attached, reported as a per-layer span table.
//! `timeline` also writes a Chrome `trace_event` export of that run plus a
//! traced mmap closed loop to `TRACE_timeline.trace.json` (structurally
//! validated; loadable in Perfetto or `chrome://tracing`), and the open-loop
//! run's metrics-registry series to `TRACE_timeline.series.csv` and
//! `TRACE_timeline.series.json`. None of these is a figure of the original
//! paper.

use hams_bench::*;
use hams_core::{AttachMode, PersistMode};
use hams_flash::{SsdConfig, SsdDevice};
use hams_nvme::{NvmeCommand, PrpList, QueueConfig};
use hams_platforms::{
    feature_table, paper_config, run_workload, run_workload_traced, HamsPlatform, PlatformKind,
    ScaleProfile,
};
use hams_sim::Nanos;
use hams_telemetry::{chrome_trace_json, Layer, RunTelemetry};
use hams_workloads::WorkloadSpec;

const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig10", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "ablation", "timeline",
];

/// The ids to produce, in order: `args` itself, or every id when `args` is
/// empty. Refuses the whole list if any id is unknown, so a mistyped id
/// fails before anything runs instead of being skipped.
fn selected_ids(args: &[String]) -> Result<Vec<&str>, String> {
    if args.is_empty() {
        return Ok(ALL.to_vec());
    }
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|id| !ALL.contains(id))
        .collect();
    if unknown.is_empty() {
        Ok(args.iter().map(String::as_str).collect())
    } else {
        Err(format!(
            "unknown figure id: {}\nvalid ids: {}",
            unknown.join(" "),
            ALL.join(" ")
        ))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = selected_ids(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scale = figures_scale();
    let micro_rodinia = ["seqRd", "rndRd", "seqWr", "rndWr", "BFS", "KMN", "NN"];
    let sqlite = ["seqSel", "rndSel", "seqIns", "rndIns", "update"];
    let nine = [
        "rndRd", "rndWr", "seqRd", "seqWr", "rndIns", "seqIns", "update", "rndSel", "seqSel",
    ];

    for id in selected {
        match id {
            "table1" => {
                println!("=== Table I: feature comparison ===");
                for row in feature_table() {
                    println!(
                        "{:<9} capacity={:<6} OS-intervention={:<5} perf={:<10} byte-addressable={}",
                        row.name, row.capacity, row.os_intervention, row.performance, row.byte_addressable
                    );
                }
                println!();
            }
            "table2" => {
                let c = paper_config();
                println!("=== Table II: simulated system configuration ===");
                println!("OS      : {}", c.os);
                println!("CPU     : {}", c.cpu);
                println!("Cache   : {}", c.cache);
                println!("Memory  : {}", c.memory);
                println!("Storage : {}", c.storage);
                println!("Flash   : {}", c.flash);
                println!();
            }
            "table3" => {
                println!("=== Table III: workload characteristics ===");
                for w in WorkloadSpec::table3() {
                    println!(
                        "{:<8} inst={:>13} load={:.2} store={:.2} dataset={:>6.1}GB",
                        w.name,
                        w.total_instructions,
                        w.load_ratio,
                        w.store_ratio,
                        w.dataset_bytes as f64 / 1e9
                    );
                }
                println!();
            }
            "fig5" => {
                let (ddr_r, ddr_w, ull_r, ull_w) = fig05a_4kb_access();
                println!("=== Figure 5a: 4KB access latency (us) ===");
                println!(
                    "DDR4 read={ddr_r:.2} write={ddr_w:.2}  ULL read={ull_r:.2} write={ull_w:.2}\n"
                );
                let rows = fig05_device_characterization(&[1, 2, 4, 8, 16, 32], 600);
                print_rows("Figure 5b/5c: latency and bandwidth vs I/O depth", &rows);
            }
            "fig6" => {
                let rows = fig06_mmf_performance(
                    &scale,
                    &[
                        "seqRd", "rndRd", "seqWr", "rndWr", "seqSel", "rndSel", "seqIns", "rndIns",
                        "update",
                    ],
                );
                print_rows("Figure 6: MMF system performance per SSD", &rows);
            }
            "fig7" => {
                print_rows(
                    "Figure 7a: MMF execution breakdown",
                    &fig07a_software_overheads(&scale, &nine),
                );
                print_rows("Figure 7b: bypass IPC", &fig07b_bypass_ipc(&scale, &nine));
            }
            "fig10" => {
                print_rows(
                    "Figure 10a: DMA overhead",
                    &fig10_dma_overhead(&scale, &nine),
                );
            }
            "fig16" => {
                let rows = fig16_application_performance(
                    &scale,
                    &PlatformKind::all(),
                    &micro_rodinia
                        .iter()
                        .chain(sqlite.iter())
                        .copied()
                        .collect::<Vec<_>>(),
                );
                print_rows("Figure 16: application performance", &rows);
            }
            // Figures 17–19 loop workloads serially on purpose: the
            // run_grid call inside each figure function already fans its
            // platforms out, and nesting parallel_map would multiply worker
            // threads past the HAMS_THREADS cap.
            "fig17" => {
                for w in micro_rodinia.iter().chain(sqlite.iter()) {
                    print_rows(
                        &format!("Figure 17: execution breakdown ({w})"),
                        &fig17_execution_breakdown(&scale, w),
                    );
                }
            }
            "fig18" => {
                for w in micro_rodinia.iter().chain(sqlite.iter()) {
                    print_rows(
                        &format!("Figure 18: memory delay breakdown ({w})"),
                        &fig18_memory_delay(&scale, w),
                    );
                }
            }
            "fig19" => {
                for w in micro_rodinia.iter().chain(sqlite.iter()) {
                    print_rows(
                        &format!("Figure 19: energy breakdown ({w})"),
                        &fig19_energy(&scale, w),
                    );
                }
            }
            "fig20" => {
                for w in &sqlite {
                    print_rows(
                        &format!("Figure 20a: page-size sensitivity ({w})"),
                        &fig20a_page_sizes(
                            &scale,
                            w,
                            &[
                                4096,
                                16 * 1024,
                                64 * 1024,
                                128 * 1024,
                                256 * 1024,
                                1024 * 1024,
                            ],
                        ),
                    );
                    print_rows(
                        &format!("Figure 20b: 4x footprint ({w})"),
                        &fig20b_large_footprint(&scale, w),
                    );
                }
            }
            "fig21" => {
                for w in ["rndRd", "rndWr", "seqRd"] {
                    print_rows(
                        &format!("Figure 21: NVMe queue-count sensitivity ({w})"),
                        &fig21_queue_sensitivity(&scale, w, &[1, 2, 4, 8]),
                    );
                }
            }
            "fig22" => {
                for w in ["rndRd", "rndWr", "update"] {
                    print_rows(
                        &format!("Figure 22: tag-array shard-count sensitivity ({w})"),
                        &fig_shard_sensitivity(&scale, w, &[1, 2, 4, 8]),
                    );
                }
            }
            "fig23" => {
                for w in ["rndRd", "rndWr"] {
                    print_rows(
                        &format!("Figure 23: archive device scaling ({w})"),
                        &fig_device_scaling(&scale, w, &[1, 2, 4, 8]),
                    );
                }
            }
            "fig24" => {
                for w in ["rndRd", "update"] {
                    let rows = fig24_latency_vs_load(
                        &scale,
                        w,
                        &PlatformKind::all(),
                        &[0.25, 0.5, 0.75, 0.9, 1.05, 1.25],
                    );
                    print_rows(
                        &format!("Figure 24: open-loop latency vs load ({w})"),
                        &rows,
                    );
                    println!("--- max sustainable throughput ({w}) ---");
                    for (platform, knee) in fig24_knees(&rows) {
                        match knee {
                            Some(row) => println!(
                                "{:<12} {:>12.0}/s at {:.2}x calibrated rate \
                                 (p99 sojourn {:.1}us)",
                                platform, row.achieved_per_sec, row.offered_frac, row.p99_us
                            ),
                            None => println!("{platform:<12} saturated at the lowest offered load"),
                        }
                    }
                    println!();
                }
            }
            "fig25" => {
                let rows = fig25_interference(
                    &scale,
                    "rndRd",
                    "update",
                    &fig25_kinds(),
                    &[0.25, 0.5, 0.9, 1.25, 1.5, 2.0],
                );
                print_rows(
                    "Figure 25: victim tail latency vs antagonist load (rndRd vs update)",
                    &rows,
                );
                println!("--- victim p99 monotone-in-antagonist-load prefix ---");
                for (platform, prefix, total) in fig25_summary(&rows) {
                    println!(
                        "{platform:<12} {prefix}/{total} points{}",
                        if prefix == total {
                            " (monotone across the sweep)"
                        } else {
                            ""
                        }
                    );
                }
                println!();
            }
            "fig26" => {
                let rows = fig26_latency_under_rebuild(&scale);
                print_rows(
                    &format!(
                        "Figure 26: sojourn tail through device failure and rebuild \
                         ({FIG26_WORKLOAD} at {FIG26_OFFERED_FRACTION}x calibrated rate)"
                    ),
                    &rows,
                );
                if let (Some(healthy), Some(recovered)) = (
                    fig26_phase(&rows, "healthy"),
                    fig26_phase(&rows, "recovered"),
                ) {
                    println!(
                        "--- recovery: healthy p99 {:.1}us -> recovered p99 {:.1}us ---\n",
                        healthy.p99_us, recovered.p99_us
                    );
                }
            }
            "ablation" => ablation(&scale),
            "timeline" => timeline(&scale),
            _ => unreachable!("selected_ids admits only the ids in ALL"),
        }
    }
}

/// The `ablation` id: three design choices, each measured with and without
/// it — ULL-Flash half-page channel striping (the §II-C datapath
/// optimisation), the SSD-internal DRAM and persist mode under baseline
/// HAMS (the copy advanced HAMS removes, and the cost of write-through
/// persistence), and the attach point.
fn ablation(scale: &ScaleProfile) {
    println!("=== Ablation: ULL-Flash half-page channel striping ===");
    println!("striped 4KB read   : {:.2} us", ull_random_read_us(true));
    println!("unstriped 4KB read : {:.2} us", ull_random_read_us(false));
    println!();

    let spec = WorkloadSpec::by_name("rndWr").expect("rndWr is a Table III workload");
    println!("=== Ablation: SSD-internal DRAM and persist mode (hams-L, rndWr) ===");
    // The scaled loose shape's SSD DRAM is `scale.ssd_dram_bytes()`, the
    // baselines' size; the no-DRAM row removes it.
    for (label, ssd_dram, persist) in [
        ("loose + SSD DRAM + extend", true, PersistMode::Extend),
        ("loose + no SSD DRAM + extend", false, PersistMode::Extend),
        ("loose + SSD DRAM + persist", true, PersistMode::Persist),
    ] {
        let mut config =
            HamsPlatform::scaled_config(AttachMode::Loose, persist, scale.cache_bytes())
                .with_mos_page_size(4096)
                .with_queues(QueueConfig::single());
        if !ssd_dram {
            config.ssd.dram_capacity_bytes = 0;
        }
        let mut platform = HamsPlatform::from_config(config);
        let m = run_workload(&mut platform, spec, scale);
        println!("{label:<32} {:>12.0} pages/s", m.pages_per_sec);
    }
    println!();

    println!("=== Ablation: attach mode (extend, rndWr) ===");
    for (label, attach) in [
        ("loose (PCIe)", AttachMode::Loose),
        ("tight (DDR4)", AttachMode::Tight),
    ] {
        let mut platform = HamsPlatform::scaled(attach, PersistMode::Extend, scale.cache_bytes());
        let m = run_workload(&mut platform, spec, scale);
        println!("{label:<16} {:>12.0} pages/s", m.pages_per_sec);
    }
    println!();
}

/// Mean latency, in microseconds, of 256 random 4 KB reads on a ULL-Flash
/// device whose 256 pages were first written, with or without half-page
/// channel striping.
fn ull_random_read_us(stripe_halves: bool) -> f64 {
    let mut ssd = SsdDevice::new(SsdConfig {
        stripe_halves,
        ..SsdConfig::ull_flash()
    });
    for p in 0..256u64 {
        let cmd = NvmeCommand::write(1, p, 4096, PrpList::single(0)).with_fua(true);
        let _ = ssd.service(&cmd, Nanos::ZERO);
    }
    let issued = Nanos::from_millis(10);
    let mut total = Nanos::ZERO;
    for p in 0..256u64 {
        let cmd = NvmeCommand::read(1, (p * 37) % 256, 4096, PrpList::single(0));
        let done = ssd
            .service(&cmd, issued)
            .expect("a read of a written page completes");
        total += done.finished_at - issued;
    }
    total.as_micros_f64() / 256.0
}

/// The `timeline` id: the traced hams-TE open-loop scenario as a per-layer
/// span table, then its Chrome `trace_event` export beside a traced mmap
/// closed loop, and the open-loop run's metrics-registry series. The export
/// is re-parsed and must carry a span for every serving-spine layer (a
/// tracer that silently lost a layer would be worse than none), or the
/// process exits non-zero.
fn timeline(scale: &ScaleProfile) {
    let (metrics, telemetry) = timeline_traced_run(scale);
    println!(
        "=== Timeline: traced hams-TE rndRd open-loop at {TIMELINE_OFFERED_FRACTION}x \
         calibrated rate ==="
    );
    println!(
        "arrivals={} served={} dropped={} spans={} ({} evicted)",
        metrics.arrivals,
        metrics.served,
        metrics.dropped,
        telemetry.recorder.len(),
        telemetry.recorder.dropped()
    );
    print_rows("per-layer span summary", &timeline_rows(&telemetry));

    let spec = WorkloadSpec::by_name("rndRd").expect("rndRd is a Table III workload");
    let mut mmap_telemetry = RunTelemetry::new();
    let mut mmap = PlatformKind::Mmap.build(scale);
    let mmap_metrics = run_workload_traced(mmap.as_mut(), spec, scale, &mut mmap_telemetry);
    println!(
        "traced mmap rndRd closed-loop: accesses={} spans={} ({} evicted)",
        mmap_metrics.accesses,
        mmap_telemetry.recorder.len(),
        mmap_telemetry.recorder.dropped()
    );

    let trace = chrome_trace_json(&[
        (
            "hams-TE rndRd (open-loop)".to_owned(),
            telemetry.spans_sorted(),
        ),
        (
            "mmap rndRd (closed-loop)".to_owned(),
            mmap_telemetry.spans_sorted(),
        ),
    ]);
    let layers = validate_chrome_trace(&trace).unwrap_or_else(|e| {
        eprintln!("chrome trace failed structural validation: {e}");
        std::process::exit(1);
    });
    let missing: Vec<&str> = Layer::ALL
        .iter()
        .map(|l| l.name())
        .filter(|name| !layers.iter().any(|l| l == name))
        .collect();
    if !missing.is_empty() {
        eprintln!("chrome trace is missing layers: {missing:?}");
        std::process::exit(1);
    }
    println!(
        "chrome trace: {} bytes, all {} serving-spine layers present",
        trace.len(),
        Layer::ALL.len()
    );
    for (suffix, contents) in [
        ("trace.json", trace),
        ("series.csv", telemetry.registry.to_csv()),
        ("series.json", telemetry.registry.to_json()),
    ] {
        let path = format!("TRACE_timeline.{suffix}");
        std::fs::write(&path, contents).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|id| (*id).to_owned()).collect()
    }

    #[test]
    fn every_id_is_checked_before_any_runs() {
        assert_eq!(selected_ids(&[]).unwrap(), ALL);
        assert_eq!(
            selected_ids(&args(&["fig6", "table1", "fig6"])).unwrap(),
            ["fig6", "table1", "fig6"]
        );

        // One unknown id refuses the whole list, known ids included, and the
        // message names the unknown ids and every valid one.
        let err = selected_ids(&args(&["table1", "fig99", "timline"])).unwrap_err();
        assert!(err.contains("unknown figure id: fig99 timline"), "{err}");
        assert!(err.contains(&ALL.join(" ")), "{err}");
        assert!(selected_ids(&args(&[""])).is_err());
    }
}
