//! Message-signalled interrupts (MSI).
//!
//! ULL-Flash notifies the host of a completion by writing an MSI vector;
//! HAMS keeps the MSI table in the pinned NVDIMM region (Fig. 9) and its NVMe
//! engine consumes the interrupts directly instead of invoking an OS interrupt
//! service routine. What costs time is when an interrupt is posted, so the
//! model is the coalescing policy that decides it; the coalescer's counters
//! record the interrupt traffic.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

/// Interrupt-coalescing parameters of the MSI path, mirroring the NVMe
/// aggregation registers: an interrupt is posted once `threshold` completions
/// have accumulated, or `timeout` after the oldest unsignalled completion
/// arrived, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsiCoalescing {
    /// Number of completions that force an immediate interrupt.
    pub threshold: u32,
    /// Maximum time a completion may wait for company before the aggregation
    /// timer fires.
    pub timeout: Nanos,
}

impl MsiCoalescing {
    /// No coalescing: every completion posts its own interrupt immediately.
    /// This is the single-queue engine's behaviour and the identity element
    /// of the model (delivery time == completion time).
    #[must_use]
    pub fn immediate() -> Self {
        MsiCoalescing {
            threshold: 1,
            timeout: Nanos::ZERO,
        }
    }

    /// Coalesce up to `threshold` completions, bounded by `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    #[must_use]
    pub fn batched(threshold: u32, timeout: Nanos) -> Self {
        assert!(threshold > 0, "coalescing threshold must be at least 1");
        MsiCoalescing { threshold, timeout }
    }
}

/// Delivery counters of an [`MsiCoalescer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsiCoalescerStats {
    /// Interrupts actually posted.
    pub interrupts: u64,
    /// Completions covered by those interrupts.
    pub completions: u64,
    /// Largest burst one interrupt covered (the telemetry "MSI coalescing
    /// burst size" gauge; zero before the first delivery).
    pub max_burst: u64,
}

impl MsiCoalescerStats {
    /// Mean completions per posted interrupt (zero before the first
    /// delivery) — the average coalescing burst size.
    #[must_use]
    pub fn mean_burst(&self) -> f64 {
        if self.interrupts == 0 {
            0.0
        } else {
            self.completions as f64 / self.interrupts as f64
        }
    }
}

/// The MSI aggregation model: maps completion times to interrupt delivery
/// times under a threshold + timeout policy.
///
/// The coalescer works on *bursts*: the HAMS NVMe engine submits the stripe
/// commands of one cache fill together and waits for the whole set, so it
/// arms the aggregation registers per burst. The effective threshold is
/// clamped to the burst size — a burst smaller than the configured threshold
/// would otherwise always pay the full timeout even though the engine knows
/// no further completions are coming.
///
/// # Example
///
/// ```
/// use hams_nvme::{MsiCoalescer, MsiCoalescing};
/// use hams_sim::Nanos;
///
/// let mut c = MsiCoalescer::new(MsiCoalescing::batched(2, Nanos::from_micros(5)));
/// let completions = [Nanos::from_micros(1), Nanos::from_micros(3)];
/// let mut delivered = Vec::new();
/// c.deliver_into(&completions, &mut delivered);
/// // Both completions ride one interrupt, posted when the second arrives.
/// assert_eq!(delivered, vec![Nanos::from_micros(3); 2]);
/// assert_eq!(c.stats().interrupts, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsiCoalescer {
    config: MsiCoalescing,
    stats: MsiCoalescerStats,
}

impl Default for MsiCoalescing {
    fn default() -> Self {
        Self::immediate()
    }
}

impl MsiCoalescer {
    /// Creates a coalescer with the given policy.
    #[must_use]
    pub fn new(config: MsiCoalescing) -> Self {
        MsiCoalescer {
            config,
            stats: MsiCoalescerStats::default(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn config(&self) -> MsiCoalescing {
        self.config
    }

    /// Delivery counters.
    #[must_use]
    pub fn stats(&self) -> MsiCoalescerStats {
        self.stats
    }

    /// Computes the interrupt delivery time of each completion in one burst
    /// into `out`, in ascending completion order (the input need not be
    /// sorted; the output is index-aligned with the *sorted* completion
    /// times). `out` is cleared, filled with the sorted completion times, and
    /// then each group is overwritten in place with its interrupt delivery
    /// time, so the HAMS fill path, which runs one burst per striped miss,
    /// reuses one buffer and allocates nothing.
    ///
    /// Guarantees, for every completion time `c` with delivery time `d`:
    /// `c <= d` and `d - c <= timeout`; each posted interrupt covers at most
    /// `threshold` completions.
    pub fn deliver_into(&mut self, completions: &[Nanos], out: &mut Vec<Nanos>) {
        out.clear();
        out.extend_from_slice(completions);
        out.sort_unstable();
        let n = out.len();
        let threshold = (self.config.threshold as usize).min(n).max(1);
        let mut i = 0;
        while i < n {
            let deadline = out[i].saturating_add(self.config.timeout);
            // Collect up to `threshold` completions arriving by the deadline.
            let mut j = i + 1;
            while j < n && j - i < threshold && out[j] <= deadline {
                j += 1;
            }
            // A filled group posts when its last member arrives; a timed-out
            // group posts when the aggregation timer expires.
            let fire = if j - i == threshold {
                out[j - 1]
            } else {
                deadline
            };
            for slot in &mut out[i..j] {
                *slot = fire;
            }
            self.stats.interrupts += 1;
            self.stats.completions += (j - i) as u64;
            self.stats.max_burst = self.stats.max_burst.max((j - i) as u64);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(c: &mut MsiCoalescer, completions: &[Nanos]) -> Vec<Nanos> {
        let mut out = Vec::new();
        c.deliver_into(completions, &mut out);
        out
    }

    #[test]
    fn immediate_coalescing_is_the_identity() {
        let mut c = MsiCoalescer::new(MsiCoalescing::immediate());
        let ts = [
            Nanos::from_nanos(10),
            Nanos::from_nanos(30),
            Nanos::from_nanos(20),
        ];
        let d = deliver(&mut c, &ts);
        assert_eq!(
            d,
            vec![
                Nanos::from_nanos(10),
                Nanos::from_nanos(20),
                Nanos::from_nanos(30)
            ]
        );
        assert_eq!(c.stats().interrupts, 3);
        assert_eq!(c.stats().completions, 3);
    }

    #[test]
    fn threshold_groups_fire_on_their_last_member() {
        let mut c = MsiCoalescer::new(MsiCoalescing::batched(4, Nanos::from_micros(100)));
        let ts: Vec<Nanos> = (1..=8).map(Nanos::from_micros).collect();
        let d = deliver(&mut c, &ts);
        assert_eq!(&d[..4], &[Nanos::from_micros(4); 4]);
        assert_eq!(&d[4..], &[Nanos::from_micros(8); 4]);
        assert_eq!(c.stats().interrupts, 2);
        assert_eq!(c.stats().max_burst, 4);
        assert_eq!(c.stats().mean_burst(), 4.0);
    }

    #[test]
    fn burst_stats_track_the_largest_group() {
        let mut c = MsiCoalescer::new(MsiCoalescing::batched(3, Nanos::from_micros(2)));
        let _ = deliver(&mut c, &[Nanos::from_micros(1)]);
        assert_eq!(c.stats().max_burst, 1);
        let _ = deliver(
            &mut c,
            &[
                Nanos::from_micros(10),
                Nanos::from_micros(11),
                Nanos::from_micros(12),
            ],
        );
        assert_eq!(c.stats().max_burst, 3);
        assert_eq!(c.stats().mean_burst(), 2.0);
        assert_eq!(MsiCoalescerStats::default().mean_burst(), 0.0);
    }

    #[test]
    fn timer_fires_when_a_group_cannot_fill_in_time() {
        let mut c = MsiCoalescer::new(MsiCoalescing::batched(3, Nanos::from_micros(2)));
        let ts = [
            Nanos::from_micros(1),
            Nanos::from_micros(2),
            Nanos::from_micros(10),
            Nanos::from_micros(11),
            Nanos::from_micros(12),
        ];
        let d = deliver(&mut c, &ts);
        // First group: only two completions arrive within the 2 us window, so
        // the timer fires at 1 us + 2 us.
        assert_eq!(&d[..2], &[Nanos::from_micros(3); 2]);
        // Second group fills the threshold of three.
        assert_eq!(&d[2..], &[Nanos::from_micros(12); 3]);
    }

    #[test]
    fn threshold_is_clamped_to_the_burst_size() {
        let mut c = MsiCoalescer::new(MsiCoalescing::batched(8, Nanos::from_micros(50)));
        let ts = [Nanos::from_micros(5)];
        // A single-completion burst must not wait for the timer.
        assert_eq!(deliver(&mut c, &ts), vec![Nanos::from_micros(5)]);
    }

    #[test]
    fn empty_burst_delivers_nothing() {
        let mut c = MsiCoalescer::new(MsiCoalescing::batched(4, Nanos::from_micros(1)));
        assert!(deliver(&mut c, &[]).is_empty());
        assert_eq!(c.stats().interrupts, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_panics() {
        let _ = MsiCoalescing::batched(0, Nanos::ZERO);
    }
}
