//! The shape of the NVMe submission path and the stripe split shared by
//! every multi-queue submitter.
//!
//! HAMS places the submission and completion rings in a pinned,
//! MMU-invisible region of NVDIMM (§II-C, §IV-B). The device fetches each
//! command the moment it is submitted, so the rings never hold more than
//! the entry being written: the model keeps the queue *shape* here, and the
//! in-controller engine journals each in-flight command once, keyed by the
//! [`CommandId`](crate::CommandId) of the queue pair it was submitted on.

use hams_sim::Nanos;
use serde::{Deserialize, Serialize};

use crate::msi::MsiCoalescing;

/// Shape of the NVMe submission path: how many I/O queue pairs the engine
/// manages and how completions coalesce into MSIs.
///
/// [`QueueConfig::single`] reproduces the original single-queue engine
/// exactly (one pair, immediate interrupts); [`QueueConfig::striped`] is the
/// paper's hardware-automated multi-queue submission, where independent
/// flash fills are striped across queue pairs and their completion
/// interrupts are coalesced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Number of I/O submission/completion queue pairs.
    pub num_queues: u16,
    /// MSI coalescing policy applied to completion interrupts.
    pub coalescing: MsiCoalescing,
}

impl QueueConfig {
    /// The single-queue fallback: one pair, no coalescing.
    /// Behaviourally identical to the engine before multi-queue existed.
    #[must_use]
    pub fn single() -> Self {
        QueueConfig {
            num_queues: 1,
            coalescing: MsiCoalescing::immediate(),
        }
    }

    /// `num_queues` pairs with completions coalesced up to one interrupt per
    /// stripe set (threshold = queue count, 8 µs aggregation timer).
    #[must_use]
    pub fn striped(num_queues: u16) -> Self {
        let n = num_queues.max(1);
        QueueConfig {
            num_queues: n,
            coalescing: if n == 1 {
                MsiCoalescing::immediate()
            } else {
                MsiCoalescing::batched(u32::from(n), Nanos::from_micros(8))
            },
        }
    }

    /// Whether this is the single-queue fallback shape.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.num_queues <= 1
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Partitions `lbas` logical blocks into at most `lanes` contiguous stripe
/// ranges `(start_lba, lba_count)`, in address order, into `out` (cleared
/// first; the HAMS fill path partitions one page per simulated miss and
/// reuses the buffer across misses). The first `lbas % lanes` stripes carry
/// one extra block, so the split is as even as possible; `lanes` is clamped
/// to `1..=lbas`. The HAMS fill path and perfbench's replays share this one
/// LBA-split rule, so a change to the partitioning cannot diverge between
/// them.
///
/// # Example
///
/// ```
/// let mut ranges = Vec::new();
/// hams_nvme::stripe_ranges_into(10, 4, &mut ranges);
/// assert_eq!(ranges, vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
/// ```
pub fn stripe_ranges_into(lbas: u64, lanes: u64, out: &mut Vec<(u64, u64)>) {
    out.clear();
    if lbas == 0 {
        return;
    }
    let lanes = lanes.clamp(1, lbas);
    let per = lbas / lanes;
    let extra = lbas % lanes;
    out.reserve(lanes as usize);
    let mut next = 0u64;
    for lane in 0..lanes {
        let count = per + u64::from(lane < extra);
        out.push((next, count));
        next += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(lbas: u64, lanes: u64) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        stripe_ranges_into(lbas, lanes, &mut ranges);
        ranges
    }

    #[test]
    fn stripe_ranges_cover_the_span_exactly_once() {
        for lbas in 1u64..40 {
            for lanes in 1u64..10 {
                let ranges = split(lbas, lanes);
                assert_eq!(ranges.len() as u64, lanes.min(lbas));
                assert_eq!(ranges.iter().map(|(_, c)| c).sum::<u64>(), lbas);
                let mut expected_start = 0;
                for (start, count) in ranges {
                    assert_eq!(start, expected_start, "ranges must be contiguous");
                    assert!(count > 0, "no empty stripes");
                    expected_start += count;
                }
            }
        }
        assert!(split(0, 4).is_empty());
    }

    #[test]
    fn config_shapes() {
        assert!(QueueConfig::single().is_single());
        assert!(!QueueConfig::striped(3).is_single());
        assert_eq!(QueueConfig::striped(0).num_queues, 1);
    }
}
