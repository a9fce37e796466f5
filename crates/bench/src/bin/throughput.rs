//! Wall-clock throughput harness for the serving hot path.
//!
//! Every other harness in this crate measures *simulated* time; this one
//! measures how fast the simulator itself runs — the host-side cost of the
//! batched serving path that the correctness tiers (batch, multi-queue,
//! shard, backend equivalence) pin byte-for-byte. It replays the four fio
//! microbenchmark corners (`seqRd`, `rndRd`, `seqWr`, `rndWr`) on the eleven
//! registered platforms through [`run_workload`] (the batched path), reports
//! accesses/sec and ns/access per cell, and appends the run to
//! `BENCH_hotpath.json` so successive PRs accumulate a perf trajectory.
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run -p hams-bench --release --bin throughput -- --label after
//! cargo run -p hams-bench --release --bin throughput -- --quick --label ci-smoke
//! cargo run -p hams-bench --release --bin throughput -- --scaling --label scaling
//! cargo run -p hams-bench --release --bin throughput -- --openloop --label openloop
//! cargo run -p hams-bench --release --bin throughput -- --tenants --label tenants
//! cargo run -p hams-bench --release --bin throughput -- --faults --label faults
//! cargo run -p hams-bench --release --bin throughput -- --out /tmp/scratch.json
//! cargo run -p hams-bench --release --bin throughput -- \
//!     --quick --label ci-smoke --out /tmp/smoke.json --gate BENCH_hotpath.json
//! cargo run -p hams-bench --release --bin throughput -- --quick --trace --trace-out /tmp/t
//! cargo run -p hams-bench --release --bin throughput -- --prune 5
//! ```
//!
//! `--quick` runs a reduced grid (`mmap`, `hams-TE`, `oracle` ×
//! `rndRd`, `rndWr`, fewer accesses, one repetition) for CI smoke runs.
//! `--scaling` times the serving paths instead of the platform grid:
//! `hams-TE` × `rndRd` through the per-access serial path and the batched
//! path, asserting along the way that both produce byte-identical simulated
//! metrics.
//! `--openloop` times the open-loop engine instead: each variant calibrates
//! the platform's closed-loop service rate, offers a Poisson fraction of it
//! through [`run_workload_open_loop`], and reports wall-clock per arrival
//! plus simulated sojourn p50/p99/p999. `--tenants` times the multi-tenant
//! engine: a latency-sensitive `rndRd` victim and a write-heavy `update`
//! antagonist share one admission queue through
//! [`run_tenant_set_open_loop`], reporting wall-clock per merged arrival
//! plus the victim's simulated sojourn tail and the pair's fairness.
//! `--faults` times degraded-mode serving: the `hams-TP-r5` parity array
//! serves the same open-loop load with and without a mid-run device
//! failure (the fig26 fault schedule), so the pair's spread is the cost of
//! reconstruction reads, parity-absorbed writes, and rebuild-under-load.
//! `--gate`
//! makes the run enforcing: each fresh cell is compared against the most
//! recent same-label run in the given trajectory file, and the process exits
//! non-zero if any cell regressed by more than [`GATE_RATIO`]. The harness
//! takes the best of `reps` repetitions per cell, which filters scheduler
//! noise; absolute numbers are machine-dependent and only comparable within
//! one machine (the JSON records the methodology) — the gate's generous
//! ratio absorbs machine-to-machine variance while still catching a
//! hot-path collapse.
//!
//! `--trace` does not measure wall-clock at all: it replays the timeline
//! scenario with the simulated-time span tracer attached and exports a
//! Chrome `trace_event` timeline plus the metrics-registry series (see
//! [`run_trace`]). `--prune <keep>` is maintenance: it rewrites the
//! trajectory file keeping only the latest `<keep>` runs per label, so the
//! append-only file stays reviewable as PRs accumulate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hams_bench::{
    fig26_fault_schedule, print_rows, timeline_rows, timeline_traced_run, validate_chrome_trace,
    FIG25_VICTIM_FRACTION, FIG26_OFFERED_FRACTION, FIG26_WORKLOAD,
};
use hams_platforms::{
    build_fault_platform, run_tenant_set_open_loop, run_workload, run_workload_open_loop,
    run_workload_serial, run_workload_traced, OpenLoopConfig, Platform, PlatformKind, RunMetrics,
    ScaleProfile,
};
use hams_telemetry::{chrome_trace_json, Layer, RunTelemetry};
use hams_workloads::{ArrivalProcess, TenantSet, TenantSpec, WorkloadSpec};

/// One measured (platform, workload) cell.
struct Cell {
    platform: &'static str,
    workload: &'static str,
    accesses: u64,
    best_wall_ns: u128,
    accesses_per_sec: f64,
    ns_per_access: f64,
}

/// Per-cell regression ratio above which a `--gate` run fails: fresh
/// ns/access must stay below `GATE_RATIO ×` the committed same-label cell.
const GATE_RATIO: f64 = 2.5;

struct Config {
    label: String,
    out: String,
    quick: bool,
    scaling: bool,
    openloop: bool,
    tenants: bool,
    faults: bool,
    trace: bool,
    trace_out: String,
    prune: Option<usize>,
    gate: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        label: "run".to_owned(),
        out: "BENCH_hotpath.json".to_owned(),
        quick: false,
        scaling: false,
        openloop: false,
        tenants: false,
        faults: false,
        trace: false,
        trace_out: "TRACE_hotpath".to_owned(),
        prune: None,
        gate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--scaling" => config.scaling = true,
            "--openloop" => config.openloop = true,
            "--tenants" => config.tenants = true,
            "--faults" => config.faults = true,
            "--trace" => config.trace = true,
            "--trace-out" => {
                config.trace_out = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a path prefix");
                    std::process::exit(2);
                });
            }
            "--prune" => {
                let keep = args.next().and_then(|n| n.parse::<usize>().ok());
                match keep {
                    Some(keep) if keep >= 1 => config.prune = Some(keep),
                    _ => {
                        eprintln!("--prune needs a positive run count to keep per label");
                        std::process::exit(2);
                    }
                }
            }
            "--gate" => {
                config.gate = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--gate needs a baseline trajectory path");
                    std::process::exit(2);
                }));
            }
            "--label" => {
                let label = args.next().unwrap_or_else(|| {
                    eprintln!("--label needs a value");
                    std::process::exit(2);
                });
                // The label is interpolated into the JSON verbatim; keep it
                // to characters that can never break the document.
                if !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_. ".contains(c))
                    || label.is_empty()
                {
                    eprintln!(
                        "--label must be non-empty and use only [A-Za-z0-9-_. ], got {label:?}"
                    );
                    std::process::exit(2);
                }
                config.label = label;
            }
            "--out" => {
                config.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; flags: --quick --scaling --openloop \
                     --tenants --faults --trace --trace-out <prefix> --prune <keep> \
                     --label <s> --out <path> --gate <baseline>"
                );
                std::process::exit(2);
            }
        }
    }
    let modes = usize::from(config.scaling)
        + usize::from(config.openloop)
        + usize::from(config.tenants)
        + usize::from(config.faults)
        + usize::from(config.trace)
        + usize::from(config.prune.is_some());
    if modes > 1 {
        eprintln!(
            "--scaling, --openloop, --tenants, --faults, --trace and --prune are \
             mutually exclusive"
        );
        std::process::exit(2);
    }
    if config.prune.is_some() && config.gate.is_some() {
        eprintln!("--prune does not measure anything, so it cannot be combined with --gate");
        std::process::exit(2);
    }
    config
}

/// The scale the wall-clock grid replays: the figure-bench profile for the
/// full grid, a shrunk one for `--quick`.
fn scale_for(quick: bool) -> ScaleProfile {
    if quick {
        ScaleProfile {
            capacity_divisor: 256,
            accesses: 8_000,
            seed: 42,
        }
    } else {
        ScaleProfile {
            capacity_divisor: 256,
            accesses: 60_000,
            seed: 42,
        }
    }
}

fn measure(
    kinds: &[PlatformKind],
    workloads: &[&'static str],
    scale: &ScaleProfile,
    reps: usize,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &workload in workloads {
        let spec = WorkloadSpec::by_name(workload).expect("known workload");
        for kind in kinds {
            let mut best = u128::MAX;
            for _ in 0..reps {
                // A fresh platform per repetition: every rep replays the
                // identical cold-start cell, so reps are comparable and the
                // best-of filter removes host scheduling noise.
                let mut platform = kind.build(scale);
                let start = Instant::now();
                let metrics = run_workload(platform.as_mut(), spec, scale);
                let elapsed = start.elapsed().as_nanos();
                assert_eq!(metrics.accesses, scale.accesses as u64);
                best = best.min(elapsed.max(1));
            }
            let secs = best as f64 / 1e9;
            let cell = Cell {
                platform: kind.label(),
                workload,
                accesses: scale.accesses as u64,
                best_wall_ns: best,
                accesses_per_sec: scale.accesses as f64 / secs,
                ns_per_access: best as f64 / scale.accesses as f64,
            };
            println!(
                "{:<12} {:<6} {:>9.0} accesses/s  {:>8.1} ns/access",
                cell.platform, cell.workload, cell.accesses_per_sec, cell.ns_per_access
            );
            cells.push(cell);
        }
    }
    cells
}

/// Serving paths covered by the `--scaling` sweep. The "platform" column of
/// the emitted cells carries the path so the trajectory file keeps its
/// fixed cell shape.
const SCALING_VARIANTS: &[(&str, ServingPath)] = &[
    ("hams-TE/serial", run_workload_serial),
    ("hams-TE/batched", run_workload),
];

type ServingPath = fn(&mut dyn Platform, WorkloadSpec, &ScaleProfile) -> RunMetrics;

/// The scaling sweep: one platform × workload corner (`hams-TE` × `rndRd`,
/// the miss-heavy read corner the equivalence tiers lean on) replayed
/// through every serving path. Each repetition asserts the paths produce
/// byte-identical simulated metrics — a wall-clock harness that quietly
/// measured a divergent path would be worthless.
fn measure_scaling(scale: &ScaleProfile, reps: usize) -> Vec<Cell> {
    let spec = WorkloadSpec::by_name("rndRd").expect("known workload");
    let kind = PlatformKind::HamsTE;
    let mut cells = Vec::new();
    let mut reference = None;
    for &(label, path) in SCALING_VARIANTS {
        let mut best = u128::MAX;
        for _ in 0..reps {
            let mut platform = kind.build(scale);
            let start = Instant::now();
            let metrics = path(platform.as_mut(), spec, scale);
            let elapsed = start.elapsed().as_nanos();
            assert_eq!(metrics.accesses, scale.accesses as u64);
            match &reference {
                None => reference = Some(metrics),
                Some(r) => assert_eq!(
                    r, &metrics,
                    "{label} diverged from the serial path's metrics"
                ),
            }
            best = best.min(elapsed.max(1));
        }
        let secs = best as f64 / 1e9;
        let cell = Cell {
            platform: label,
            workload: "rndRd",
            accesses: scale.accesses as u64,
            best_wall_ns: best,
            accesses_per_sec: scale.accesses as f64 / secs,
            ns_per_access: best as f64 / scale.accesses as f64,
        };
        println!(
            "{:<16} {:<6} {:>9.0} accesses/s  {:>8.1} ns/access",
            cell.platform, cell.workload, cell.accesses_per_sec, cell.ns_per_access
        );
        cells.push(cell);
    }
    cells
}

/// Open-loop variants: (trajectory label, platform, offered fraction of the
/// platform's calibrated closed-loop service rate). Fractions below 1.0 are
/// sustainable; the hams-TE pair brackets the knee region the `fig24` sweep
/// maps in full.
const OPENLOOP_VARIANTS: &[(&str, PlatformKind, f64)] = &[
    ("mmap/ol@0.9", PlatformKind::Mmap, 0.9),
    ("hams-TE/ol@0.5", PlatformKind::HamsTE, 0.5),
    ("hams-TE/ol@0.9", PlatformKind::HamsTE, 0.9),
    ("oracle/ol@0.9", PlatformKind::Oracle, 0.9),
];

/// The open-loop sweep: wall-clock cost of the open-loop engine itself per
/// arrival, plus the simulated sojourn tail it reports. Calibration (one
/// closed-loop run per variant, outside the timer) converts each fraction
/// into an absolute Poisson rate, so the cells stay meaningful as the
/// simulator's service times evolve across PRs.
fn measure_openloop(scale: &ScaleProfile, reps: usize) -> Vec<Cell> {
    let spec = WorkloadSpec::by_name("rndRd").expect("known workload");
    let mut cells = Vec::new();
    for &(label, kind, fraction) in OPENLOOP_VARIANTS {
        let service_rate = {
            let mut platform = kind.build(scale);
            let m = run_workload(platform.as_mut(), spec, scale);
            m.accesses as f64 / m.total_time.as_secs_f64().max(1e-12)
        };
        // A wall-clock harness only reads the histogram; skip the
        // per-request record Vec.
        let config = OpenLoopConfig::poisson(fraction * service_rate).with_records(false);
        let mut best = u128::MAX;
        let mut last_metrics = None;
        for _ in 0..reps {
            let mut platform = kind.build(scale);
            let start = Instant::now();
            let metrics = run_workload_open_loop(platform.as_mut(), spec, scale, &config);
            let elapsed = start.elapsed().as_nanos();
            assert_eq!(metrics.arrivals, scale.accesses as u64);
            best = best.min(elapsed.max(1));
            last_metrics = Some(metrics);
        }
        let metrics = last_metrics.expect("reps >= 1");
        let [p50, p99, p999] = metrics.sojourn_p50_p99_p999();
        let us = |t: Option<hams_sim::Nanos>| t.map_or(f64::NAN, hams_sim::Nanos::as_micros_f64);
        let secs = best as f64 / 1e9;
        let cell = Cell {
            platform: label,
            workload: "rndRd",
            accesses: scale.accesses as u64,
            best_wall_ns: best,
            accesses_per_sec: scale.accesses as f64 / secs,
            ns_per_access: best as f64 / scale.accesses as f64,
        };
        println!(
            "{:<16} {:<6} {:>9.0} arrivals/s  {:>8.1} ns/arrival  sojourn p50/p99/p999 \
             {:>8.1}/{:>8.1}/{:>8.1} us  served {} dropped {}",
            cell.platform,
            cell.workload,
            cell.accesses_per_sec,
            cell.ns_per_access,
            us(p50),
            us(p99),
            us(p999),
            metrics.served,
            metrics.dropped
        );
        cells.push(cell);
    }
    cells
}

/// Multi-tenant variants: (trajectory label, platform, antagonist offered
/// fraction of the platform's calibrated closed-loop service rate). The
/// victim always offers [`FIG25_VICTIM_FRACTION`]; the hams-TE pair brackets
/// light and heavy interference, the fig25 sweep maps the curve in full.
const TENANT_VARIANTS: &[(&str, PlatformKind, f64)] = &[
    ("mmap/mt@1.5", PlatformKind::Mmap, 1.5),
    ("hams-TE/mt@0.5", PlatformKind::HamsTE, 0.5),
    ("hams-TE/mt@1.5", PlatformKind::HamsTE, 1.5),
    ("oracle/mt@1.5", PlatformKind::Oracle, 1.5),
];

/// The multi-tenant sweep: wall-clock cost of the merged-stream engine per
/// arrival (a `rndRd` victim plus an `update` antagonist through one
/// admission queue), with the victim's simulated sojourn tail and the
/// pair's fairness alongside. The antagonist's access count scales with its
/// rate so both tenants stay active over the same simulated window — the
/// fig25 methodology at smoke size.
fn measure_tenants(scale: &ScaleProfile, reps: usize) -> Vec<Cell> {
    let victim = WorkloadSpec::by_name("rndRd").expect("known workload");
    let antagonist = WorkloadSpec::by_name("update").expect("known workload");
    let mut cells = Vec::new();
    for &(label, kind, fraction) in TENANT_VARIANTS {
        let service_rate = {
            let mut platform = kind.build(scale);
            let m = run_workload(platform.as_mut(), victim, scale);
            m.accesses as f64 / m.total_time.as_secs_f64().max(1e-12)
        };
        let antagonist_accesses =
            ((scale.accesses as f64 * fraction / FIG25_VICTIM_FRACTION).round() as usize).max(1);
        let set = TenantSet::new(vec![
            TenantSpec::new(
                "victim",
                victim,
                ArrivalProcess::Poisson {
                    rate_per_sec: FIG25_VICTIM_FRACTION * service_rate,
                },
            ),
            TenantSpec::new(
                "antagonist",
                antagonist,
                ArrivalProcess::Poisson {
                    rate_per_sec: fraction * service_rate,
                },
            )
            .with_accesses(antagonist_accesses),
        ]);
        let config = OpenLoopConfig::poisson(service_rate).with_records(false);
        let total_arrivals = (scale.accesses + antagonist_accesses) as u64;
        let mut best = u128::MAX;
        let mut last_metrics = None;
        for _ in 0..reps {
            let mut platform = kind.build(scale);
            let start = Instant::now();
            let metrics = run_tenant_set_open_loop(platform.as_mut(), &set, scale, &config);
            let elapsed = start.elapsed().as_nanos();
            assert_eq!(metrics.merged.arrivals, total_arrivals);
            assert_eq!(
                metrics.tenants.iter().map(|t| t.served).sum::<u64>(),
                metrics.merged.served,
                "{label}: per-tenant served no longer sums to the merged total"
            );
            best = best.min(elapsed.max(1));
            last_metrics = Some(metrics);
        }
        let metrics = last_metrics.expect("reps >= 1");
        let v = &metrics.tenants[0];
        let [p50, p99, p999] = v.sojourn_p50_p99_p999();
        let us = |t: Option<hams_sim::Nanos>| t.map_or(f64::NAN, hams_sim::Nanos::as_micros_f64);
        let secs = best as f64 / 1e9;
        let cell = Cell {
            platform: label,
            workload: "rndRd+update",
            accesses: total_arrivals,
            best_wall_ns: best,
            accesses_per_sec: total_arrivals as f64 / secs,
            ns_per_access: best as f64 / total_arrivals as f64,
        };
        println!(
            "{:<16} {:<12} {:>9.0} arrivals/s  {:>8.1} ns/arrival  victim p50/p99/p999 \
             {:>8.1}/{:>8.1}/{:>8.1} us  dropped {}  fairness {:.3}",
            cell.platform,
            cell.workload,
            cell.accesses_per_sec,
            cell.ns_per_access,
            us(p50),
            us(p99),
            us(p999),
            metrics.merged.dropped,
            metrics.fairness()
        );
        cells.push(cell);
    }
    cells
}

/// Fault variants: (trajectory label, whether the fig26 fault plan is
/// installed). Both serve the same offered load on the same parity array,
/// so the pair's spread is the wall-clock (and simulated-tail) cost of
/// degraded serving plus rebuild-under-load.
const FAULT_VARIANTS: &[(&str, bool)] =
    &[("hams-TP-r5/ol@0.7", false), ("hams-TP-r5/ft@0.7", true)];

/// The fault sweep: wall-clock cost of open-loop serving on the parity
/// array with and without a mid-run device failure. The faulted leg
/// installs the fig26 fault schedule (fail-stop at 30% of the expected
/// span, spare at 40%, paced rebuild), and asserts after every repetition
/// that the array actually walked the full state machine back to healthy —
/// a fault harness whose fault silently never fired would measure nothing.
fn measure_faults(scale: &ScaleProfile, reps: usize) -> Vec<Cell> {
    let spec = WorkloadSpec::by_name(FIG26_WORKLOAD).expect("known workload");
    let service_rate = {
        let mut platform = build_fault_platform(scale);
        let m = run_workload(&mut platform, spec, scale);
        m.accesses as f64 / m.total_time.as_secs_f64().max(1e-12)
    };
    let offered = FIG26_OFFERED_FRACTION * service_rate;
    let config = OpenLoopConfig::poisson(offered).with_records(false);
    let mut cells = Vec::new();
    for &(label, faulted) in FAULT_VARIANTS {
        let mut best = u128::MAX;
        let mut last_metrics = None;
        let mut rebuild_rows = 0;
        for _ in 0..reps {
            let (plan, span) = fig26_fault_schedule(scale.accesses, offered);
            let mut platform = build_fault_platform(scale);
            if faulted {
                platform.controller_mut().set_fault_plan(plan);
            }
            let start = Instant::now();
            let metrics = run_workload_open_loop(&mut platform, spec, scale, &config);
            let elapsed = start.elapsed().as_nanos();
            assert_eq!(metrics.arrivals, scale.accesses as u64);
            if faulted {
                platform
                    .controller_mut()
                    .advance_faults(metrics.last_finish.max(span));
                let stats = platform
                    .controller()
                    .fault_stats()
                    .expect("fault plan installed");
                assert_eq!(stats.faults_injected, 1, "{label}: the fault never fired");
                assert_eq!(
                    stats.repairs_completed, 1,
                    "{label}: the rebuild never completed"
                );
                rebuild_rows = stats.rebuild_rows_done;
            }
            best = best.min(elapsed.max(1));
            last_metrics = Some(metrics);
        }
        let metrics = last_metrics.expect("reps >= 1");
        let [p50, p99, p999] = metrics.sojourn_p50_p99_p999();
        let us = |t: Option<hams_sim::Nanos>| t.map_or(f64::NAN, hams_sim::Nanos::as_micros_f64);
        let secs = best as f64 / 1e9;
        let cell = Cell {
            platform: label,
            workload: FIG26_WORKLOAD,
            accesses: scale.accesses as u64,
            best_wall_ns: best,
            accesses_per_sec: scale.accesses as f64 / secs,
            ns_per_access: best as f64 / scale.accesses as f64,
        };
        println!(
            "{:<16} {:<6} {:>9.0} arrivals/s  {:>8.1} ns/arrival  sojourn p50/p99/p999 \
             {:>8.1}/{:>8.1}/{:>8.1} us  served {} dropped {}  rebuild rows {}",
            cell.platform,
            cell.workload,
            cell.accesses_per_sec,
            cell.ns_per_access,
            us(p50),
            us(p99),
            us(p999),
            metrics.served,
            metrics.dropped,
            rebuild_rows
        );
        cells.push(cell);
    }
    cells
}

/// Renders one run entry (the object inside the top-level `"runs"` array).
fn render_run(label: &str, scale: &ScaleProfile, reps: usize, cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": \"{label}\",");
    let _ = writeln!(
        out,
        "      \"scale\": {{\"capacity_divisor\": {}, \"accesses\": {}, \"seed\": {}}},",
        scale.capacity_divisor, scale.accesses, scale.seed
    );
    let _ = writeln!(out, "      \"reps\": {reps},");
    let _ = writeln!(out, "      \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"platform\": \"{}\", \"workload\": \"{}\", \"accesses\": {}, \
             \"best_wall_ns\": {}, \"accesses_per_sec\": {:.1}, \"ns_per_access\": {:.1}}}",
            c.platform, c.workload, c.accesses, c.best_wall_ns, c.accesses_per_sec, c.ns_per_access
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
    out
}

const METHODOLOGY: &str = "Host wall-clock of the batched serving path \
(run_workload, DEFAULT_BATCH_SIZE) per (platform, workload) cell; fresh \
platform per repetition, best-of-reps wall time; simulated metrics are \
unaffected by this harness. Numbers are machine-dependent: compare labels \
measured on the same machine only. Refresh with `cargo run -p hams-bench \
--release --bin throughput -- --label <name>` from the repo root.";

const FILE_TAIL: &str = "  ]\n}\n";

/// Writes (or appends to) the trajectory file. The file is always in the
/// exact shape this function emits, so appending is a splice before the
/// closing `]` of the `"runs"` array. An existing file that does not match
/// that shape is refused rather than silently replaced — the whole point of
/// the file is the accumulated trajectory.
fn write_trajectory(path: &str, run: &str) {
    let rendered = match std::fs::read_to_string(path) {
        Ok(existing) if existing.ends_with(FILE_TAIL) && existing.contains("\"runs\": [") => {
            let body = existing.trim_end_matches(FILE_TAIL).trim_end().to_owned();
            // The previous last run entry needs a trailing comma unless the
            // array was empty (body then ends with the `[` itself).
            let separator = if body.ends_with('[') { "\n" } else { ",\n" };
            format!("{body}{separator}{run}\n{FILE_TAIL}")
        }
        Ok(_) => {
            eprintln!(
                "{path} exists but is not in this harness's format (reformatted or \
                 hand-edited?); refusing to overwrite it — move it aside or pass a \
                 different --out"
            );
            std::process::exit(1);
        }
        Err(_) => {
            format!("{{\n  \"methodology\": \"{METHODOLOGY}\",\n  \"runs\": [\n{run}\n{FILE_TAIL}")
        }
    };
    // Round-trip check: the file this harness writes must always be a valid
    // JSON document, or the next --gate run would fail on its own baseline.
    if let Err(e) = serde_json::from_str(&rendered) {
        eprintln!("internal error: rendered trajectory for {path} is not valid JSON: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, rendered).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}

/// Prunes a trajectory document down to the most recent `keep` runs per
/// label, preserving run order, and re-renders it in the exact shape
/// [`write_trajectory`] appends to. Returns the rendered document and the
/// number of runs dropped. The trajectory is append-only, so "most recent"
/// is positional: the last `keep` same-label entries survive.
fn prune_trajectory(text: &str, keep: usize) -> Result<(String, usize), String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let methodology = doc
        .get("methodology")
        .and_then(serde_json::Value::as_str)
        .ok_or("missing top-level \"methodology\" string")?;
    let runs = doc
        .get("runs")
        .and_then(serde_json::Value::as_array)
        .ok_or("missing top-level \"runs\" array")?;
    let mut labels = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        labels.push(
            run.get("label")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| format!("run #{i} has no string \"label\""))?,
        );
    }
    let mut kept_per_label: BTreeMap<&str, usize> = BTreeMap::new();
    let mut keep_flags = vec![false; runs.len()];
    for i in (0..runs.len()).rev() {
        let count = kept_per_label.entry(labels[i]).or_insert(0);
        if *count < keep {
            keep_flags[i] = true;
            *count += 1;
        }
    }
    let mut kept = Vec::new();
    for (run, &keep_it) in runs.iter().zip(&keep_flags) {
        if keep_it {
            kept.push(
                serde_json::to_string(run).map_err(|e| format!("cannot re-render run: {e}"))?,
            );
        }
    }
    let dropped = runs.len() - kept.len();
    let methodology = serde_json::to_string(&serde_json::Value::String(methodology.to_owned()))
        .map_err(|e| format!("cannot re-render methodology: {e}"))?;
    let mut out = format!("{{\n  \"methodology\": {methodology},\n  \"runs\": [\n");
    if !kept.is_empty() {
        out.push_str("    ");
        out.push_str(&kept.join(",\n    "));
        out.push('\n');
    }
    out.push_str(FILE_TAIL);
    // The pruned file must still be exactly what `write_trajectory` splices
    // into, or the next run would refuse its own trajectory.
    if serde_json::from_str(&out).is_err()
        || !out.ends_with(FILE_TAIL)
        || !out.contains("\"runs\": [")
    {
        return Err("internal error: pruned trajectory lost the harness shape".to_owned());
    }
    Ok((out, dropped))
}

/// The `--prune` mode: rewrites the trajectory at `path` keeping the latest
/// `keep` runs per label.
fn prune_file(path: &str, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let (rendered, dropped) = prune_trajectory(&text, keep).unwrap_or_else(|e| {
        eprintln!("cannot prune {path}: {e}");
        std::process::exit(1);
    });
    std::fs::write(path, rendered).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("pruned {path}: dropped {dropped} run(s), keeping the latest {keep} per label");
}

/// The `--trace` mode: replays the timeline scenario with the span tracer
/// attached (plus a closed-loop mmap leg for contrast), prints the per-layer
/// timeline table, and writes three artifacts next to `prefix`:
/// `<prefix>.trace.json` (Chrome `trace_event`, loadable in Perfetto or
/// `chrome://tracing`), `<prefix>.series.csv` and `<prefix>.series.json`
/// (the time-bucketed metrics registry of the open-loop leg). The exported
/// trace is re-parsed and must carry a span for every serving-spine layer —
/// a tracer that silently lost a layer would be worse than none.
fn run_trace(scale: &ScaleProfile, prefix: &str) {
    let spec = WorkloadSpec::by_name("rndRd").expect("known workload");
    let (metrics, telemetry) = timeline_traced_run(scale);
    println!(
        "traced hams-TE rndRd open-loop: arrivals={} served={} dropped={} spans={} ({} evicted)",
        metrics.arrivals,
        metrics.served,
        metrics.dropped,
        telemetry.recorder.len(),
        telemetry.recorder.dropped()
    );
    let mut mmap_telemetry = RunTelemetry::new();
    let mut mmap = PlatformKind::Mmap.build(scale);
    let mmap_metrics = run_workload_traced(mmap.as_mut(), spec, scale, &mut mmap_telemetry);
    println!(
        "traced mmap rndRd closed-loop: accesses={} spans={}",
        mmap_metrics.accesses,
        mmap_telemetry.recorder.len()
    );
    print_rows(
        "timeline (hams-TE rndRd open-loop)",
        &timeline_rows(&telemetry),
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
        eprintln!("exported trace is structurally invalid: {e}");
        std::process::exit(1);
    });
    for layer in Layer::ALL {
        if !layers.iter().any(|l| l == layer.name()) {
            eprintln!(
                "exported trace has no {} spans (layers present: {layers:?})",
                layer.name()
            );
            std::process::exit(1);
        }
    }
    let writes = [
        (format!("{prefix}.trace.json"), trace),
        (format!("{prefix}.series.csv"), telemetry.registry.to_csv()),
        (
            format!("{prefix}.series.json"),
            telemetry.registry.to_json(),
        ),
    ];
    for (path, contents) in &writes {
        std::fs::write(path, contents).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    println!(
        "trace covers all {} serving-spine layers; open in Perfetto (ui.perfetto.dev) or \
         chrome://tracing",
        Layer::ALL.len()
    );
}

/// The most recent run labelled `label` in a trajectory document, as
/// `(platform, workload, ns_per_access)` cells.
///
/// The document is parsed structurally (the `serde_json` shim), so a
/// malformed trajectory — bad JSON, a run without a string label, a cell
/// missing its fields — is a loud, positioned error instead of a silently
/// dropped cell. When labels repeat, the *last* matching run wins
/// deterministically: the trajectory file is append-only, so the latest
/// same-label entry is the most recent measurement.
fn baseline_cells(text: &str, label: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(serde_json::Value::as_array)
        .ok_or("missing top-level \"runs\" array")?;
    let mut latest: Option<(usize, &serde_json::Value)> = None;
    for (i, run) in runs.iter().enumerate() {
        let run_label = run
            .get("label")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("run #{i} has no string \"label\""))?;
        if run_label == label {
            latest = Some((i, run));
        }
    }
    let Some((run_idx, run)) = latest else {
        return Ok(Vec::new());
    };
    let cells = run
        .get("cells")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("run #{run_idx} ({label:?}) has no \"cells\" array"))?;
    let mut out = Vec::with_capacity(cells.len());
    for (j, cell) in cells.iter().enumerate() {
        let field = |key: &str| {
            cell.get(key)
                .ok_or_else(|| format!("run #{run_idx} ({label:?}) cell #{j} is missing {key:?}"))
        };
        let platform = field("platform")?
            .as_str()
            .ok_or_else(|| format!("run #{run_idx} cell #{j}: \"platform\" is not a string"))?;
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("run #{run_idx} cell #{j}: \"workload\" is not a string"))?;
        let ns = field("ns_per_access")?.as_f64().ok_or_else(|| {
            format!("run #{run_idx} cell #{j}: \"ns_per_access\" is not a number")
        })?;
        out.push((platform.to_owned(), workload.to_owned(), ns));
    }
    Ok(out)
}

/// Enforces the perf gate: every fresh cell with a committed counterpart in
/// the latest same-label baseline run must stay within [`GATE_RATIO`] of it.
/// A missing baseline file, label, or cell is reported but never fails the
/// gate — the first run of a new label cannot regress against anything. A
/// *malformed* baseline, on the other hand, always fails: a gate that
/// silently skipped corrupt cells would pass exactly when it mattered most.
fn enforce_gate(baseline_path: &str, label: &str, cells: &[Cell]) {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        println!("gate: no baseline file {baseline_path}; passing by default");
        return;
    };
    let baseline = baseline_cells(&text, label).unwrap_or_else(|e| {
        eprintln!("gate: baseline {baseline_path} is malformed: {e}");
        std::process::exit(2);
    });
    if baseline.is_empty() {
        println!("gate: no run labelled {label:?} in {baseline_path}; passing by default");
        return;
    }
    let mut failures = Vec::new();
    for cell in cells {
        let Some((_, _, base_ns)) = baseline
            .iter()
            .find(|(p, w, _)| p == cell.platform && w == cell.workload)
        else {
            println!(
                "gate: {} {} has no committed baseline cell; skipping",
                cell.platform, cell.workload
            );
            continue;
        };
        let ratio = cell.ns_per_access / base_ns;
        let verdict = if ratio > GATE_RATIO { "FAIL" } else { "ok" };
        println!(
            "gate: {:<16} {:<6} {:>8.1} ns/access vs baseline {:>8.1} = {:.2}x [{verdict}]",
            cell.platform, cell.workload, cell.ns_per_access, base_ns, ratio
        );
        if ratio > GATE_RATIO {
            failures.push(format!(
                "{} {}: {:.1} ns/access is {:.2}x the committed {:.1} (limit {GATE_RATIO}x)",
                cell.platform, cell.workload, cell.ns_per_access, ratio, base_ns
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("perf gate failed ({} cell(s) regressed):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("gate: all cells within {GATE_RATIO}x of the committed {label:?} baseline");
}

fn main() {
    let config = parse_args();
    if let Some(keep) = config.prune {
        prune_file(&config.out, keep);
        return;
    }
    let scale = scale_for(config.quick);
    println!(
        "throughput: label={} quick={} scaling={} openloop={} tenants={} faults={} trace={} \
         accesses={}",
        config.label,
        config.quick,
        config.scaling,
        config.openloop,
        config.tenants,
        config.faults,
        config.trace,
        scale.accesses
    );
    if config.trace {
        run_trace(&scale, &config.trace_out);
        return;
    }
    let (cells, reps) = if config.scaling {
        let reps = if config.quick { 1 } else { 3 };
        (measure_scaling(&scale, reps), reps)
    } else if config.openloop {
        let reps = if config.quick { 1 } else { 3 };
        (measure_openloop(&scale, reps), reps)
    } else if config.tenants {
        let reps = if config.quick { 1 } else { 3 };
        (measure_tenants(&scale, reps), reps)
    } else if config.faults {
        let reps = if config.quick { 1 } else { 3 };
        (measure_faults(&scale, reps), reps)
    } else if config.quick {
        let kinds = [
            PlatformKind::Mmap,
            PlatformKind::HamsTE,
            PlatformKind::Oracle,
        ];
        (measure(&kinds, &["rndRd", "rndWr"], &scale, 1), 1)
    } else {
        (
            measure(
                &PlatformKind::all(),
                &["seqRd", "rndRd", "seqWr", "rndWr"],
                &scale,
                3,
            ),
            3,
        )
    };
    if let Some(baseline) = &config.gate {
        enforce_gate(baseline, &config.label, &cells);
    }
    let run = render_run(&config.label, &scale, reps, &cells);
    write_trajectory(&config.out, &run);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(platform: &'static str, ns: f64) -> Cell {
        Cell {
            platform,
            workload: "rndRd",
            accesses: 100,
            best_wall_ns: (ns * 100.0) as u128,
            accesses_per_sec: 1e9 / ns,
            ns_per_access: ns,
        }
    }

    fn doc(runs: &str) -> String {
        format!("{{\n  \"methodology\": \"m\",\n  \"runs\": [\n{runs}\n  ]\n}}\n")
    }

    #[test]
    fn render_run_output_parses_structurally() {
        let scale = scale_for(true);
        let cells = [cell("mmap", 540.0), cell("hams-TE", 650.0)];
        let run = render_run("ci-smoke", &scale, 1, &cells);
        let parsed = baseline_cells(&doc(&run), "ci-smoke").unwrap();
        assert_eq!(
            parsed,
            vec![
                ("mmap".to_owned(), "rndRd".to_owned(), 540.0),
                ("hams-TE".to_owned(), "rndRd".to_owned(), 650.0),
            ]
        );
    }

    #[test]
    fn latest_same_label_run_wins_when_labels_repeat() {
        let scale = scale_for(true);
        let old = render_run("ci-smoke", &scale, 1, &[cell("mmap", 100.0)]);
        let other = render_run("nightly", &scale, 1, &[cell("mmap", 999.0)]);
        let new = render_run("ci-smoke", &scale, 1, &[cell("mmap", 200.0)]);
        let text = doc(&format!("{old},\n{other},\n{new}"));
        let parsed = baseline_cells(&text, "ci-smoke").unwrap();
        assert_eq!(parsed, vec![("mmap".to_owned(), "rndRd".to_owned(), 200.0)]);
    }

    #[test]
    fn missing_label_is_empty_not_an_error() {
        let scale = scale_for(true);
        let run = render_run("ci-smoke", &scale, 1, &[cell("mmap", 100.0)]);
        assert_eq!(baseline_cells(&doc(&run), "absent").unwrap(), vec![]);
    }

    #[test]
    fn malformed_cells_error_loudly_instead_of_dropping() {
        // The old line-oriented parser silently skipped cells whose fields it
        // could not slice out; the structural parser must refuse the run.
        let text = doc(
            "    {\"label\": \"ci-smoke\", \"cells\": [\n        \
             {\"platform\": \"mmap\", \"workload\": \"rndRd\", \"ns_per_access\": \"oops\"}\n    ]}",
        );
        let err = baseline_cells(&text, "ci-smoke").unwrap_err();
        assert!(err.contains("ns_per_access"), "unhelpful error: {err}");

        let missing = doc("    {\"label\": \"ci-smoke\", \"cells\": [{\"platform\": \"mmap\"}]}");
        assert!(baseline_cells(&missing, "ci-smoke").is_err());

        let unlabelled = doc("    {\"cells\": []}");
        let err = baseline_cells(&unlabelled, "ci-smoke").unwrap_err();
        assert!(err.contains("label"), "unhelpful error: {err}");

        let invalid = "not json at all";
        assert!(baseline_cells(invalid, "ci-smoke").is_err());
    }

    #[test]
    fn prune_keeps_the_latest_runs_per_label_in_order() {
        let scale = scale_for(true);
        let runs = [
            render_run("ci-smoke", &scale, 1, &[cell("mmap", 100.0)]),
            render_run("nightly", &scale, 1, &[cell("mmap", 900.0)]),
            render_run("ci-smoke", &scale, 1, &[cell("mmap", 200.0)]),
            render_run("ci-smoke", &scale, 1, &[cell("mmap", 300.0)]),
        ];
        let text = doc(&runs.join(",\n"));

        let (pruned, dropped) = prune_trajectory(&text, 1).unwrap();
        assert_eq!(dropped, 2);
        // The latest run of each label survives, original order preserved:
        // `nightly` (older) still precedes the final `ci-smoke`.
        assert_eq!(
            baseline_cells(&pruned, "ci-smoke").unwrap(),
            vec![("mmap".to_owned(), "rndRd".to_owned(), 300.0)]
        );
        assert_eq!(
            baseline_cells(&pruned, "nightly").unwrap(),
            vec![("mmap".to_owned(), "rndRd".to_owned(), 900.0)]
        );
        let nightly = pruned.find("nightly").unwrap();
        let smoke = pruned.find("ci-smoke").unwrap();
        assert!(nightly < smoke, "pruning reordered the surviving runs");

        let (wider, dropped) = prune_trajectory(&text, 2).unwrap();
        assert_eq!(dropped, 1);
        // With two kept per label the middle ci-smoke run survives, and the
        // latest one still wins as the gate baseline.
        assert_eq!(
            baseline_cells(&wider, "ci-smoke").unwrap(),
            vec![("mmap".to_owned(), "rndRd".to_owned(), 300.0)]
        );
        let run_count = |text: &str| {
            let doc = serde_json::from_str(text).unwrap();
            doc.get("runs")
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .len()
        };
        assert_eq!(run_count(&pruned), 2);
        assert_eq!(run_count(&wider), 3);
    }

    #[test]
    fn pruned_trajectory_still_accepts_appends() {
        let scale = scale_for(true);
        let text = doc(&render_run("ci-smoke", &scale, 1, &[cell("mmap", 100.0)]));
        let (pruned, dropped) = prune_trajectory(&text, 3).unwrap();
        assert_eq!(dropped, 0);
        // The exact markers `write_trajectory` splices on.
        assert!(pruned.ends_with(FILE_TAIL));
        assert!(pruned.contains("\"runs\": ["));
        // And a subsequent append round-trips: splice the next run in the
        // same way `write_trajectory` does and re-parse.
        let next = render_run("ci-smoke", &scale, 1, &[cell("mmap", 110.0)]);
        let body = pruned.trim_end_matches(FILE_TAIL).trim_end().to_owned();
        let appended = format!("{body},\n{next}\n{FILE_TAIL}");
        assert_eq!(
            baseline_cells(&appended, "ci-smoke").unwrap(),
            vec![("mmap".to_owned(), "rndRd".to_owned(), 110.0)]
        );
    }

    #[test]
    fn prune_refuses_malformed_trajectories() {
        assert!(prune_trajectory("not json", 1).is_err());
        assert!(
            prune_trajectory("{\"runs\": []}", 1).is_err(),
            "no methodology"
        );
        assert!(
            prune_trajectory("{\"methodology\": \"m\", \"runs\": [{\"cells\": []}]}", 1).is_err(),
            "unlabelled run"
        );
    }
}
