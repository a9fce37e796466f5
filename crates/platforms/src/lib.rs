//! Full-system platform compositions and the experiment runner.
//!
//! This crate assembles the substrates (flash, NVMe, interconnect, NVDIMM,
//! host, energy) and the HAMS controller into the eleven systems the paper
//! evaluates, and provides the experiment engine that executes Table III
//! workloads on them and collects every reported metric (throughput, IPC,
//! execution-time breakdown, memory-delay breakdown, energy breakdown, hit
//! rates):
//!
//! * [`PlatformKind::build`] — the eleven paper systems, sized by a
//!   [`ScaleProfile`]; every scaled HAMS platform, the sensitivity sweeps'
//!   included, is [`HamsPlatform::scaled_config`] with fields replaced,
//! * [`Platform::serve_batch_into`] — the batched serving path; the HAMS
//!   platforms override it to amortize per-access host-side setup while
//!   producing metrics byte-identical to the per-access loop,
//! * [`run_workload`] / [`run_grid`] — single-cell and platform × workload
//!   grid execution; the grid fans cells out across CPU cores with per-run
//!   seeded RNGs, so parallel results are byte-identical to
//!   [`run_grid_serial`].
//!
//! # Example
//!
//! ```
//! use hams_platforms::{run_workload, PlatformKind, ScaleProfile};
//! use hams_workloads::WorkloadSpec;
//!
//! let scale = ScaleProfile::test_tiny();
//! let spec = WorkloadSpec::by_name("rndWr").unwrap();
//! let mut hams_te = PlatformKind::HamsTE.build(&scale);
//! let metrics = run_workload(hams_te.as_mut(), spec, &scale);
//! assert!(metrics.pages_per_sec > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod direct;
pub mod hams;
pub mod mmap;
mod observe;
pub mod openloop;
pub mod platform;
pub mod runner;
pub mod summary;
pub mod sweep;

pub use direct::{FlatFlashPlatform, NvdimmCPlatform, OptanePlatform, OraclePlatform};
pub use hams::{HamsPlatform, SCALED_MOS_PAGE_BYTES};
pub use hams_core::{BackendTopology, ShardConfig, ShardHashPolicy};
pub use hams_nvme::QueueConfig;
pub use mmap::MmapPlatform;
pub use openloop::{
    run_tenant_set_open_loop, run_tenant_set_open_loop_traced, run_workload_open_loop,
    run_workload_open_loop_traced, MultiTenantMetrics, OpenLoopConfig, OpenLoopMetrics,
    OpenLoopRecord, TenantMetrics, ADMISSION_QUEUE_DEPTH,
};
pub use platform::{AccessOutcome, BatchOutcome, BatchRequest, Platform};
pub use runner::{
    run_grid, run_grid_serial, run_workload, run_workload_serial, run_workload_traced,
    PlatformKind, RunMetrics, ScaleProfile, ACCESSES_PER_SQL_OP, DEFAULT_BATCH_SIZE,
};
pub use summary::{
    feature_table, headline_claims, paper_config, FeatureRow, HeadlineClaims, PaperConfig,
};
pub use sweep::{
    build_cxl_platform, build_fault_platform, build_raid_sweep_platform, fault_label,
    queue_sweep_platform, shard_sweep_platform, FAULT_SWEEP_DEVICES, QUEUE_SWEEP_PAGE_BYTES,
    RAID_SWEEP_PAGE_BYTES, RAID_SWEEP_QUEUES,
};
