//! Golden-metrics snapshot: the 11 platforms of `PlatformKind::all` on a
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
//! The `HAMS_DEVICES` override, which sets the scaled HAMS platforms'
//! archive backend, does move results: a multi-device archive backend
//! *legitimately* changes simulated timing (that is what the RAID-0 fan-out
//! buys), so the goldens keep one snapshot per device count —
//! `metrics.json` for the single-archive default, `metrics_d{n}.json` for
//! `HAMS_DEVICES=n` — and the CI matrix pins both device counts.
//!
//! To bless an intentional change (once per device count the CI matrix
//! exercises):
//!
//! ```text
//! HAMS_BLESS=1 cargo test --test golden_metrics
//! HAMS_DEVICES=4 HAMS_BLESS=1 cargo test --test golden_metrics
//! ```
//!
//! then commit the regenerated `tests/golden/*.json` together with the
//! change that explains it.

use std::fmt::Write as _;

use hams::flash::BackendTopology;
use hams::platforms::{
    run_grid, run_workload, shard_sweep_platform, PlatformKind, RunMetrics, ScaleProfile,
};
use hams::sim::parallel_map;
use hams::workloads::WorkloadSpec;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const WORKLOADS: [&str; 2] = ["rndRd", "update"];
const SHARD_COUNTS: [u16; 3] = [1, 2, 8];

/// The snapshot path for `stem`, suffixed by the device count the
/// `HAMS_DEVICES` override selects: the backend shape shifts simulated
/// timing by design, so each device count pins its own golden bytes.
fn golden_path(stem: &str) -> String {
    let devices = BackendTopology::from_env()
        .map(|t| t.device_count())
        .unwrap_or(1);
    if devices <= 1 {
        format!("{GOLDEN_DIR}/{stem}.json")
    } else {
        format!("{GOLDEN_DIR}/{stem}_d{devices}.json")
    }
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

#[test]
fn golden_metrics_snapshot_is_stable() {
    let scale = snapshot_scale();
    let specs: Vec<WorkloadSpec> = WORKLOADS
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect();
    let grid = run_grid(&PlatformKind::all(), &specs, &scale);
    assert_eq!(grid.len(), PlatformKind::all().len() * WORKLOADS.len());
    let rendered = render(&grid);

    let golden = golden_path("metrics");
    if std::env::var("HAMS_BLESS").as_deref() == Ok("1") {
        std::fs::write(&golden, &rendered).expect("write golden metrics");
        eprintln!("blessed {golden}");
        return;
    }

    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {golden} ({e}); regenerate with HAMS_BLESS=1")
    });
    assert_eq!(
        rendered, expected,
        "simulated metrics shifted from the golden snapshot; if the change is \
         intentional, regenerate with HAMS_BLESS=1 cargo test --test golden_metrics"
    );
}

/// The shard-sweep golden: `shard_sweep_platform` for n ∈ {1, 2, 8} on the
/// snapshot grid, workload-major like `run_grid`. Two pins at once — the
/// rows must match the checked-in snapshot (like every golden), and the rows
/// of different shard counts must be identical to *each other*, which is the
/// shard-invariance contract made visible: a diff in this file can only ever
/// be a real model change, never a shard-shape artefact.
#[test]
fn shard_sweep_golden_snapshot_is_stable_and_rows_are_identical() {
    let scale = snapshot_scale();
    let specs: Vec<WorkloadSpec> = WORKLOADS
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect();
    let cells: Vec<(WorkloadSpec, u16)> = specs
        .iter()
        .flat_map(|spec| SHARD_COUNTS.map(|n| (*spec, n)))
        .collect();
    let grid = parallel_map(&cells, |&(spec, n)| {
        run_workload(&mut shard_sweep_platform(&scale, n), spec, &scale)
    });
    assert_eq!(grid.len(), SHARD_COUNTS.len() * WORKLOADS.len());

    // Shard invariance: within each workload, every shard count's row equals
    // the s1 row.
    for rows in grid.chunks(SHARD_COUNTS.len()) {
        for row in &rows[1..] {
            assert_eq!(
                row, &rows[0],
                "a shard count diverged from s1 — shard-invariance violation"
            );
        }
    }

    let rendered = render(&grid);
    let golden = golden_path("shard_sweep");
    if std::env::var("HAMS_BLESS").as_deref() == Ok("1") {
        std::fs::write(&golden, &rendered).expect("write shard golden metrics");
        eprintln!("blessed {golden}");
        return;
    }

    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {golden} ({e}); regenerate with HAMS_BLESS=1")
    });
    assert_eq!(
        rendered, expected,
        "shard-sweep metrics shifted from the golden snapshot; if the change \
         is intentional, regenerate with HAMS_BLESS=1 cargo test --test golden_metrics"
    );
}
