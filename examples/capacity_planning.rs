//! Capacity planning with HAMS: how throughput degrades as the working set
//! outgrows the NVDIMM cache, and how the MoS page size changes the picture —
//! the practical question behind Fig. 20.
//!
//! Run with: `cargo run --release --example capacity_planning`

use hams::core::{AttachMode, PersistMode};
use hams::nvme::QueueConfig;
use hams::platforms::{run_workload, HamsPlatform, ScaleProfile};
use hams::workloads::WorkloadSpec;

fn main() {
    let scale = ScaleProfile {
        capacity_divisor: 512,
        accesses: 15_000,
        seed: 9,
    };
    let nvdimm_bytes = scale.cache_bytes();
    let base = WorkloadSpec::by_name("rndSel").expect("known workload");

    println!("NVDIMM cache: {} MiB", nvdimm_bytes >> 20);
    println!();
    println!("--- working set sweep (hams-TE) ---");
    println!(
        "{:>18} {:>12} {:>10}",
        "dataset / cache", "ops/s", "hit rate"
    );
    for multiple in [1u64, 2, 4, 8, 16] {
        let spec = base.with_dataset_bytes(nvdimm_bytes * multiple);
        let mut platform =
            HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, nvdimm_bytes);
        // Run the pre-scaled spec directly: the profile's dataset scaling is
        // bypassed by passing an already-scaled spec with divisor semantics.
        let m = run_workload(
            &mut platform,
            spec,
            &ScaleProfile {
                capacity_divisor: 1,
                ..scale
            },
        );
        println!(
            "{:>17}x {:>12.0} {:>9.1}%",
            multiple,
            m.ops_per_sec,
            m.hit_rate.unwrap_or(0.0) * 100.0
        );
    }

    println!();
    println!("--- MoS page size sweep (dataset = 4x cache, hams-TE) ---");
    println!("{:>12} {:>12}", "page size", "ops/s");
    for page_size in [4096u64, 16 << 10, 64 << 10, 128 << 10, 256 << 10] {
        let spec = base.with_dataset_bytes(nvdimm_bytes * 4);
        let config =
            HamsPlatform::scaled_config(AttachMode::Tight, PersistMode::Extend, nvdimm_bytes)
                .with_mos_page_size(page_size)
                .with_queues(QueueConfig::single());
        let mut platform = HamsPlatform::from_config(config);
        let m = run_workload(
            &mut platform,
            spec,
            &ScaleProfile {
                capacity_divisor: 1,
                ..scale
            },
        );
        println!("{:>11}B {:>12.0}", page_size, m.ops_per_sec);
    }
}
