//! Transaction-level discrete-event simulation core shared by every HAMS crate.
//!
//! The HAMS reproduction models the memory/storage hierarchy at *transaction*
//! granularity: each memory access or I/O command is routed through component
//! models that consume simulated time from shared [`Resource`] schedulers
//! (DDR4 channels, PCIe links, flash channels/dies/planes, CPU cores). This
//! crate provides the primitives those models are built from:
//!
//! * [`Nanos`] — the simulation time unit (nanoseconds, saturating arithmetic),
//! * [`Resource`] / [`MultiResource`] — FCFS busy-until schedulers that model
//!   contention on buses, channels and dies,
//! * [`PageLru`] — the true-LRU write-back page cache behind the SSD's
//!   internal DRAM and every host page cache,
//! * [`stats`] — histograms and named latency breakdowns used to produce
//!   every figure in the paper,
//! * [`rng`] — seeded RNG construction so every experiment is reproducible.
//!
//! # Example
//!
//! ```
//! use hams_sim::{Nanos, Resource};
//!
//! let mut channel = Resource::default();
//! // Two back-to-back 64-byte bursts contend for the same channel.
//! let first = channel.acquire(Nanos::ZERO, Nanos::from_nanos(5));
//! let second = channel.acquire(Nanos::ZERO, Nanos::from_nanos(5));
//! assert_eq!(first.end, Nanos::from_nanos(5));
//! assert_eq!(second.start, Nanos::from_nanos(5));
//! assert_eq!(second.end, Nanos::from_nanos(10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod intern;
pub mod lru;
pub mod par;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{FastBuildHasher, FastHashMap};
pub use intern::ComponentId;
pub use lru::{LruOutcome, LruStats, PageLru};
pub use par::parallel_map;
pub use resource::{Grant, MultiResource, Resource};
pub use stats::{Histogram, HistogramSummary, LatencyBreakdown, LatencyVector};
pub use time::Nanos;
