//! HAMS — the Hardware Automated Memory-over-Storage controller.
//!
//! This crate implements the paper's primary contribution: the
//! memory-controller-hub logic that aggregates an NVDIMM-N and an
//! ultra-low-latency flash archive (ULL-Flash) into a single byte-addressable,
//! OS-transparent Memory-over-Storage (MoS) address space.
//!
//! The main entry point is [`HamsController`]: construct one from a
//! [`HamsConfig`] (loose, tight or CXL attach, persist or extend mode) and
//! feed it MoS accesses; it returns per-access latency and a breakdown across
//! NVDIMM, the DMA interface and the SSD, and exposes power-failure injection
//! plus journal-tag recovery.
//!
//! Internal building blocks are public for tests, benches and downstream
//! experimentation:
//!
//! * [`ShardedTagArray`] — the direct-mapped tag directory with
//!   valid/dirty/busy bits kept alongside ECC in the NVDIMM cache lines
//!   (Fig. 11): one flat array of sets, whose bank labels a [`ShardConfig`]
//!   names (shard-invariant by contract; `MosTagArray` is the single-bank
//!   alias),
//! * [`NvmeEngine`] — the in-controller NVMe queue engine with journal tags
//!   (Fig. 15), stamped with each command's `(shard, device)`, which
//!   recovery checks against the directory's bank label and the archive
//!   device it replays to,
//! * [`BackendTopology`] / [`ArchiveSet`] (re-exported from `hams_flash`) —
//!   the multi-device archive backend: one device, a RAID-0 fan-out or a
//!   RAID-5 parity array,
//! * [`PrpPool`] — the pinned-region clone slots used for hazard avoidance
//!   (Fig. 14).
//!
//! # Example
//!
//! ```
//! use hams_core::{AttachMode, HamsConfig, HamsController, PersistMode};
//! use hams_sim::Nanos;
//!
//! // Advanced HAMS in extend mode (the paper's hams-TE).
//! let mut hams = HamsController::new(HamsConfig::tiny_for_tests(
//!     AttachMode::Tight,
//!     PersistMode::Extend,
//! ));
//! let first = hams.access(0x0, true, 64, Nanos::ZERO);
//! let second = hams.access(0x40, false, 64, first.finished_at);
//! assert!(second.hit);
//! assert!(hams.stats().hit_rate() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod controller;
pub mod engine;
pub mod prp_pool;
pub mod tag_array;

pub use config::{AttachMode, HamsConfig, PersistMode};
pub use controller::{
    HamsController, HamsStats, MosAccessResult, PowerFailureEvent, RecoveryReport,
};
pub use engine::{EngineStats, NvmeEngine, TrackedCommand};
pub use hams_flash::{ArchiveSet, ArrayState, BackendTopology, FaultEvent, FaultPlan, FaultStats};
pub use prp_pool::{CloneSlot, PrpPool};
pub use tag_array::{
    MosTagArray, ShardConfig, ShardHashPolicy, ShardedTagArray, TagArrayStats, TagEntry, TagProbe,
};
