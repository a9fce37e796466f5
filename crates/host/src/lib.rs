//! Host-side models: the CPU core and the memory-mapped-file (mmap)
//! software stack that the paper's baseline pays on every page fault.
//!
//! # Example
//!
//! ```
//! use hams_host::{CpuConfig, CpuModel, MmfCostModel};
//! use hams_sim::Nanos;
//!
//! let mut cpu = CpuModel::new(CpuConfig::paper_default());
//! let mmf = MmfCostModel::linux_4_9();
//!
//! // A store to an unmapped page: the MMF baseline pays the software stack.
//! cpu.stall(mmf.fault_overhead(4096).total());
//! assert!(cpu.stall_time() > Nanos::from_micros(10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod mmf;

pub use cpu::{CpuConfig, CpuModel};
pub use mmf::MmfCostModel;
