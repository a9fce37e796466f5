//! Golden-metrics snapshots: the 11 platforms of `PlatformKind::all` on a
//! small seeded grid, pinned against a checked-in JSON file, plus the shard
//! sweep (`shard_sweep_platform`) pinned against a second snapshot whose
//! rows must be *identical to each other* — the shard-invariance contract in
//! golden form.
//!
//! Every metric the runner produces is deterministic — seeded trace
//! generators, integer nanosecond timing, fixed float evaluation order — so
//! the snapshot is byte-exact regardless of thread count. A future refactor
//! that silently shifts simulated results (timing model, stats accounting,
//! trace generation) fails this test instead of slipping through.
//!
//! Both snapshots are taken at every count of `DEVICE_COUNTS`: one archive
//! device (`metrics.json`, `shard_sweep.json`) and, for each HAMS platform,
//! its twin on a RAID-0 of four (`metrics_d4.json`, `shard_sweep_d4.json`).
//! A multi-device archive *legitimately* changes simulated timing (that is
//! what the RAID-0 fan-out buys), so each device count pins its own bytes.
//!
//! To bless an intentional change:
//!
//! ```text
//! HAMS_BLESS=1 cargo test --test golden_metrics
//! ```
//!
//! then commit the regenerated `tests/golden/*.json` together with the
//! change that explains it.

mod common;

use std::fmt::Write as _;

use common::{build_on, with_devices};
use hams::platforms::{run_workload, shard_sweep_platform, PlatformKind, RunMetrics, ScaleProfile};
use hams::sim::parallel_map;
use hams::workloads::WorkloadSpec;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const WORKLOADS: [&str; 2] = ["rndRd", "update"];
const SHARD_COUNTS: [u16; 3] = [1, 2, 8];
/// Archive devices of every HAMS platform, one snapshot each.
const DEVICE_COUNTS: [u16; 2] = [1, 4];

/// The snapshot path for `stem` at `devices` archive devices.
fn golden_path(stem: &str, devices: u16) -> String {
    if devices == 1 {
        format!("{GOLDEN_DIR}/{stem}.json")
    } else {
        format!("{GOLDEN_DIR}/{stem}_d{devices}.json")
    }
}

/// Checks `rendered` against the snapshot at `golden`, or rewrites the
/// snapshot under `HAMS_BLESS=1`.
fn check_golden(rendered: &str, golden: &str) {
    if std::env::var("HAMS_BLESS").as_deref() == Ok("1") {
        std::fs::write(golden, rendered).expect("write golden metrics");
        eprintln!("blessed {golden}");
        return;
    }
    let expected = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("missing golden file {golden} ({e}); regenerate with HAMS_BLESS=1")
    });
    assert_eq!(
        rendered, expected,
        "simulated metrics shifted from {golden}; if the change is intentional, \
         regenerate with HAMS_BLESS=1 cargo test --test golden_metrics"
    );
}

fn snapshot_scale() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_000,
        seed: 17,
    }
}

/// Renders the grid as pretty-printed JSON with a fixed field order. Floats
/// use Rust's shortest-roundtrip formatting, which is exact and stable for
/// deterministic inputs.
fn render(grid: &[RunMetrics]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in grid.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\n    \"platform\": \"{}\",\n    \"workload\": \"{}\",\n    \"accesses\": {},\n    \"instructions\": {},\n    \"total_time_ns\": {},\n",
            m.platform,
            m.workload,
            m.accesses,
            m.instructions,
            m.total_time.as_nanos()
        );
        let _ = writeln!(
            out,
            "    \"exec_ns\": {{\"app\": {}, \"os\": {}, \"ssd\": {}}},",
            m.exec_breakdown.component("app").as_nanos(),
            m.exec_breakdown.component("os").as_nanos(),
            m.exec_breakdown.component("ssd").as_nanos()
        );
        let _ = writeln!(
            out,
            "    \"memory_delay_ns\": {{\"nvdimm\": {}, \"dma\": {}, \"ssd\": {}, \"hams\": {}}},",
            m.memory_delay.component("nvdimm").as_nanos(),
            m.memory_delay.component("dma").as_nanos(),
            m.memory_delay.component("ssd").as_nanos(),
            m.memory_delay.component("hams").as_nanos()
        );
        let _ = write!(
            out,
            "    \"ipc\": {},\n    \"pages_per_sec\": {},\n    \"ops_per_sec\": {},\n",
            m.ipc, m.pages_per_sec, m.ops_per_sec
        );
        let _ = write!(
            out,
            "    \"hit_rate\": {},\n    \"energy_joules\": {}\n  }}",
            m.hit_rate
                .map_or_else(|| "null".to_owned(), |h| h.to_string()),
            m.energy.total_joules()
        );
        out.push_str(if i + 1 < grid.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// The Table III specs of `WORKLOADS`.
fn specs() -> Vec<WorkloadSpec> {
    WORKLOADS
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect()
}

#[test]
fn golden_metrics_snapshot_is_stable() {
    let scale = snapshot_scale();
    let kinds = PlatformKind::all();
    // Workload-major, like `run_grid`.
    let cells: Vec<(WorkloadSpec, PlatformKind)> = specs()
        .into_iter()
        .flat_map(|spec| kinds.iter().map(move |&kind| (spec, kind)))
        .collect();
    for devices in DEVICE_COUNTS {
        let grid = parallel_map(&cells, |&(spec, kind)| {
            run_workload(build_on(kind, &scale, devices).as_mut(), spec, &scale)
        });
        assert_eq!(grid.len(), kinds.len() * WORKLOADS.len());
        check_golden(&render(&grid), &golden_path("metrics", devices));
    }
}

/// The shard-sweep golden: `shard_sweep_platform` for n ∈ {1, 2, 8} on the
/// snapshot grid, workload-major like `run_grid`, at every device count.
/// Two pins at once — the rows must match the checked-in snapshot (like
/// every golden), and the rows of different shard counts must be identical
/// to *each other*, which is the shard-invariance contract made visible: a
/// diff in this file can only ever be a real model change, never a
/// shard-shape artefact.
#[test]
fn shard_sweep_golden_snapshot_is_stable_and_rows_are_identical() {
    let scale = snapshot_scale();
    let cells: Vec<(WorkloadSpec, u16)> = specs()
        .into_iter()
        .flat_map(|spec| SHARD_COUNTS.map(|n| (spec, n)))
        .collect();
    for devices in DEVICE_COUNTS {
        let grid = parallel_map(&cells, |&(spec, n)| {
            let mut platform = with_devices(shard_sweep_platform(&scale, n), devices);
            run_workload(&mut platform, spec, &scale)
        });
        assert_eq!(grid.len(), SHARD_COUNTS.len() * WORKLOADS.len());

        // Shard invariance: within each workload, every shard count's row
        // equals the s1 row.
        for rows in grid.chunks(SHARD_COUNTS.len()) {
            for row in &rows[1..] {
                assert_eq!(
                    row, &rows[0],
                    "d{devices}: a shard count diverged from s1 — shard-invariance violation"
                );
            }
        }
        check_golden(&render(&grid), &golden_path("shard_sweep", devices));
    }
}
