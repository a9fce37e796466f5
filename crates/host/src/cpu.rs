//! CPU core model.
//!
//! The paper's evaluation runs on a quad-core 2 GHz ARM v8 system (Table II)
//! and reports IPC as a first-class metric (Fig. 7b). The model keeps a core
//! simple: instructions retire at a configurable base IPC when they are not
//! stalled on memory, and every memory stall is charged explicitly by the
//! platform composition. That is sufficient to reproduce relative IPC and
//! execution-time breakdowns.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

/// Configuration of one CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Core clock frequency in hertz.
    pub frequency_hz: f64,
    /// Instructions per cycle sustained when not stalled on memory.
    pub base_ipc: f64,
    /// Cost of one OS context switch (two are paid per blocking page fault).
    pub context_switch: Nanos,
}

impl CpuConfig {
    /// The paper's gem5 configuration: 2 GHz ARM v8, modest IPC.
    #[must_use]
    pub fn paper_default() -> Self {
        CpuConfig {
            frequency_hz: 2.0e9,
            base_ipc: 1.2,
            context_switch: Nanos::from_micros(2),
        }
    }

    /// The 4 GHz Intel i7-4790K used for the real-device characterisation of
    /// §III-A.
    #[must_use]
    pub fn i7_4790k() -> Self {
        CpuConfig {
            frequency_hz: 4.0e9,
            base_ipc: 2.0,
            context_switch: Nanos::from_nanos(1_500),
        }
    }
}

/// A single CPU core with explicit stall accounting.
///
/// # Example
///
/// ```
/// use hams_host::{CpuConfig, CpuModel};
/// use hams_sim::Nanos;
///
/// let mut cpu = CpuModel::new(CpuConfig::paper_default());
/// cpu.retire(1_000_000);
/// cpu.stall(Nanos::from_micros(50));
/// assert!(cpu.ipc() < cpu.config().base_ipc);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuModel {
    config: CpuConfig,
    instructions: u64,
    compute_time: Nanos,
    stall_time: Nanos,
    /// The last instruction count [`CpuModel::retire`] priced and its
    /// [`CpuModel::compute_time_for`]: a workload retires the same count
    /// before every access, so it is priced once.
    priced: (u64, Nanos),
}

impl CpuModel {
    /// Creates an idle core.
    #[must_use]
    pub fn new(config: CpuConfig) -> Self {
        CpuModel {
            config,
            instructions: 0,
            compute_time: Nanos::ZERO,
            stall_time: Nanos::ZERO,
            priced: (0, Nanos::ZERO),
        }
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Time to execute `instructions` instructions with no memory stalls.
    #[must_use]
    pub fn compute_time_for(&self, instructions: u64) -> Nanos {
        if instructions == 0 {
            return Nanos::ZERO;
        }
        let cycles = instructions as f64 / self.config.base_ipc;
        Nanos::from_nanos_f64(cycles / self.config.frequency_hz * 1e9)
    }

    /// Retires `instructions` instructions, accumulating their compute time.
    /// Returns the time spent.
    pub fn retire(&mut self, instructions: u64) -> Nanos {
        if self.priced.0 != instructions {
            self.priced = (instructions, self.compute_time_for(instructions));
        }
        let t = self.priced.1;
        self.instructions += instructions;
        self.compute_time += t;
        t
    }

    /// Charges a memory stall of duration `t`.
    pub fn stall(&mut self, t: Nanos) {
        self.stall_time += t;
    }

    /// Total instructions retired.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Time spent computing (not stalled).
    #[must_use]
    pub fn compute_time(&self) -> Nanos {
        self.compute_time
    }

    /// Time spent stalled on memory or the OS.
    #[must_use]
    pub fn stall_time(&self) -> Nanos {
        self.stall_time
    }

    /// Total wall-clock time of the core so far.
    #[must_use]
    pub fn total_time(&self) -> Nanos {
        self.compute_time + self.stall_time
    }

    /// Effective instructions per cycle over the whole execution, the metric
    /// of Fig. 7b.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let total = self.total_time();
        if total.is_zero() {
            return 0.0;
        }
        let cycles = total.as_secs_f64() * self.config.frequency_hz;
        self.instructions as f64 / cycles
    }

    /// Resets all accounting.
    pub fn reset(&mut self) {
        self.instructions = 0;
        self.compute_time = Nanos::ZERO;
        self.stall_time = Nanos::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pricing a count once per run of equal counts changes nothing: each
        /// retire returns `compute_time_for` of its count, and the totals are
        /// the plain sums.
        #[test]
        fn retire_prices_every_count_like_compute_time_for(
            runs in proptest::collection::vec((0u64..6, 1usize..5), 1..40),
            fast in any::<bool>(),
        ) {
            let config = if fast { CpuConfig::i7_4790k() } else { CpuConfig::paper_default() };
            let mut cpu = CpuModel::new(config);
            let mut instructions = 0u64;
            let mut compute_time = Nanos::ZERO;
            for (count, repeats) in runs {
                for _ in 0..repeats {
                    let t = cpu.retire(count);
                    prop_assert_eq!(t, cpu.compute_time_for(count));
                    instructions += count;
                    compute_time += t;
                }
            }
            prop_assert_eq!(cpu.instructions(), instructions);
            prop_assert_eq!(cpu.compute_time(), compute_time);
        }
    }

    #[test]
    fn compute_time_matches_frequency_and_ipc() {
        let cpu = CpuModel::new(CpuConfig::paper_default());
        // 2.4e9 instructions at 1.2 IPC and 2 GHz = 1 second.
        let t = cpu.compute_time_for(2_400_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t}");
        assert_eq!(cpu.compute_time_for(0), Nanos::ZERO);
    }

    #[test]
    fn unstalled_ipc_equals_base_ipc() {
        let mut cpu = CpuModel::new(CpuConfig::paper_default());
        cpu.retire(1_000_000);
        assert!((cpu.ipc() - cpu.config().base_ipc).abs() < 0.01);
    }

    #[test]
    fn stalls_depress_ipc() {
        let mut cpu = CpuModel::new(CpuConfig::paper_default());
        cpu.retire(1_000);
        let unstalled = cpu.ipc();
        cpu.stall(Nanos::from_micros(100));
        assert!(cpu.ipc() < unstalled / 10.0);
    }

    #[test]
    fn empty_core_has_zero_ipc() {
        let cpu = CpuModel::new(CpuConfig::paper_default());
        assert_eq!(cpu.ipc(), 0.0);
        assert_eq!(cpu.total_time(), Nanos::ZERO);
    }

    #[test]
    fn reset_clears_accounting() {
        let mut cpu = CpuModel::new(CpuConfig::i7_4790k());
        cpu.retire(100);
        cpu.stall(Nanos::from_nanos(10));
        cpu.reset();
        assert_eq!(cpu.instructions(), 0);
        assert_eq!(cpu.total_time(), Nanos::ZERO);
    }
}
