//! Flash interface layer: schedules page operations onto channel and die
//! resources, producing completion times that reflect intra-device
//! parallelism and contention.
//!
//! The FIL is where ULL-Flash's latency optimisation lives: a 4 KB request is
//! split into two half-page transfers issued to two channels simultaneously,
//! halving DMA (channel transfer) latency (§II-C).

use hams_sim::{MultiResource, Nanos};
use serde::{Deserialize, Serialize};

use crate::geometry::FlashGeometry;
use crate::timing::{FlashOp, NandTiming};

/// The scheduled outcome of one flash page operation. The device reads only
/// `finished_at`; the other fields split the latency into array, channel
/// and queueing time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilCompletion {
    /// Simulated time at which the operation finishes.
    pub finished_at: Nanos,
    /// Time spent in the flash array (sense/program/erase).
    pub array_time: Nanos,
    /// Time spent transferring data over the flash channel(s).
    pub transfer_time: Nanos,
    /// Queueing delay waiting for the die and channel to become free.
    pub queue_time: Nanos,
}

impl FilCompletion {
    /// Total device-internal latency of the operation (relative to issue).
    #[must_use]
    pub fn latency(&self, issued_at: Nanos) -> Nanos {
        self.finished_at - issued_at
    }
}

/// Flash interface layer scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fil {
    geometry: FlashGeometry,
    timing: NandTiming,
    /// When `true`, page transfers are split across two channels (the
    /// ULL-Flash datapath optimisation).
    stripe_halves: bool,
    channels: MultiResource,
    dies: MultiResource,
}

impl Fil {
    /// Creates a FIL for the given geometry/timing.
    #[must_use]
    pub fn new(geometry: FlashGeometry, timing: NandTiming, stripe_halves: bool) -> Self {
        Fil {
            geometry,
            timing,
            stripe_halves,
            channels: MultiResource::new(geometry.channels as usize),
            dies: MultiResource::new(geometry.total_dies() as usize),
        }
    }

    /// The timing parameters in force.
    #[must_use]
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// Schedules a page-granularity read or program of physical page `ppn`
    /// issued at `now`.
    ///
    /// Reads sense the page on the die, then move it over the channel;
    /// programs move data over the channel first, then program the die.
    /// With half-page striping the channel transfer is issued as two
    /// half-size transfers to the addressed channel and its neighbour.
    pub fn schedule_page(&mut self, ppn: u64, op: FlashOp, now: Nanos) -> FilCompletion {
        let addr = self.geometry.decompose(ppn);
        let die_idx = self.geometry.die_index(&addr);
        let channel_idx = addr.channel as usize;
        let array = self.timing.array_time(op);
        let transfer = self.timing.channel_transfer;

        match op {
            FlashOp::Read => {
                let die_grant = self.dies.acquire_unit(die_idx, now, array);
                let transfer_done = self.schedule_transfer(channel_idx, die_grant.end, transfer);
                FilCompletion {
                    finished_at: transfer_done.0,
                    array_time: array,
                    transfer_time: transfer_done.1,
                    queue_time: die_grant.wait + transfer_done.2,
                }
            }
            FlashOp::Program => {
                let transfer_done = self.schedule_transfer(channel_idx, now, transfer);
                let die_grant = self.dies.acquire_unit(die_idx, transfer_done.0, array);
                FilCompletion {
                    finished_at: die_grant.end,
                    array_time: array,
                    transfer_time: transfer_done.1,
                    queue_time: die_grant.wait + transfer_done.2,
                }
            }
            FlashOp::Erase => {
                let die_grant = self.dies.acquire_unit(die_idx, now, array);
                FilCompletion {
                    finished_at: die_grant.end,
                    array_time: array,
                    transfer_time: Nanos::ZERO,
                    queue_time: die_grant.wait,
                }
            }
        }
    }

    /// Schedules the channel transfer for a page, optionally striped across
    /// two channels. Returns `(finish, service_time, queue_time)`.
    fn schedule_transfer(
        &mut self,
        channel_idx: usize,
        ready_at: Nanos,
        full_transfer: Nanos,
    ) -> (Nanos, Nanos, Nanos) {
        if self.stripe_halves && self.geometry.channels >= 2 {
            let half = full_transfer / 2;
            let second = if channel_idx + 1 == self.geometry.channels as usize {
                0
            } else {
                channel_idx + 1
            };
            let g1 = self.channels.acquire_unit(channel_idx, ready_at, half);
            let g2 = self.channels.acquire_unit(second, ready_at, half);
            let finish = g1.end.max(g2.end);
            (finish, half, g1.wait.max(g2.wait))
        } else {
            let g = self
                .channels
                .acquire_unit(channel_idx, ready_at, full_transfer);
            (g.end, full_transfer, g.wait)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fil(stripe: bool) -> Fil {
        Fil::new(FlashGeometry::tiny(), NandTiming::z_nand(), stripe)
    }

    #[test]
    fn read_latency_is_array_plus_transfer_when_idle() {
        let mut f = fil(false);
        let c = f.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        let expected = NandTiming::z_nand().read + NandTiming::z_nand().channel_transfer;
        assert_eq!(c.finished_at, expected);
        assert_eq!(c.queue_time, Nanos::ZERO);
        assert_eq!(c.latency(Nanos::ZERO), expected);
    }

    #[test]
    fn striping_halves_transfer_time() {
        let mut plain = fil(false);
        let mut striped = fil(true);
        let a = plain.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        let b = striped.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        assert!(b.finished_at < a.finished_at);
        assert_eq!(b.transfer_time, a.transfer_time / 2);
    }

    #[test]
    fn program_orders_transfer_before_array() {
        let mut f = fil(false);
        let c = f.schedule_page(0, FlashOp::Program, Nanos::ZERO);
        let t = NandTiming::z_nand();
        assert_eq!(c.finished_at, t.channel_transfer + t.program);
    }

    #[test]
    fn erase_has_no_transfer() {
        let mut f = fil(false);
        let c = f.schedule_page(0, FlashOp::Erase, Nanos::ZERO);
        assert_eq!(c.transfer_time, Nanos::ZERO);
        assert_eq!(c.finished_at, NandTiming::z_nand().erase);
    }

    #[test]
    fn same_die_operations_serialize() {
        let mut f = fil(false);
        let first = f.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        // ppn 0 and ppn 2 are on the same channel/die in the tiny geometry.
        let second = f.schedule_page(2, FlashOp::Read, Nanos::ZERO);
        assert!(second.queue_time > Nanos::ZERO);
        assert!(second.finished_at > first.finished_at);
    }

    #[test]
    fn different_channels_overlap() {
        let mut f = fil(false);
        let a = f.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        let b = f.schedule_page(1, FlashOp::Read, Nanos::ZERO);
        assert_eq!(
            a.finished_at, b.finished_at,
            "independent dies should not queue"
        );
    }

    #[test]
    fn idle_read_components_sum_to_its_latency() {
        let mut f = fil(false);
        let c = f.schedule_page(0, FlashOp::Read, Nanos::ZERO);
        assert_eq!(c.array_time + c.transfer_time, c.finished_at);
    }
}
