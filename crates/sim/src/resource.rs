//! FCFS busy-until resource schedulers.
//!
//! A [`Resource`] models a single serially-occupied hardware unit — a DDR4
//! channel, a PCIe link, a flash die — while a [`MultiResource`] models a
//! pool of such units addressed by index (e.g. the channels of an SSD,
//! selected by address striping). Transactions "acquire" a resource for a
//! duration; the scheduler returns the [`Grant`] describing when the
//! transaction actually starts and finishes, which is how queueing delay and
//! contention enter the latency model. A resource keeps only its schedule:
//! the instant it next becomes idle.

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// The outcome of acquiring a resource: when service started and ended, and
/// how long the transaction waited in the queue before service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grant {
    /// Time at which the resource began servicing the request.
    pub start: Nanos,
    /// Time at which the resource finished servicing the request.
    pub end: Nanos,
    /// Queueing delay experienced before service (`start - request_time`).
    pub wait: Nanos,
}

impl Grant {
    /// Total latency seen by the requester: queueing delay plus service time.
    #[must_use]
    pub fn latency(&self) -> Nanos {
        self.wait + (self.end - self.start)
    }
}

/// A single FCFS-served hardware unit with a "busy until" horizon. The
/// default resource is idle.
///
/// # Example
///
/// ```
/// use hams_sim::{Nanos, Resource};
///
/// let mut die = Resource::default();
/// let a = die.acquire(Nanos::ZERO, Nanos::from_micros(3));
/// let b = die.acquire(Nanos::ZERO, Nanos::from_micros(3));
/// assert_eq!(a.wait, Nanos::ZERO);
/// assert_eq!(b.wait, Nanos::from_micros(3)); // queued behind the first read
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Resource {
    busy_until: Nanos,
}

impl Resource {
    /// Time at which the resource next becomes idle.
    #[must_use]
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Acquires the resource at `now` for `duration`, queueing behind any
    /// earlier grant that has not yet completed.
    pub fn acquire(&mut self, now: Nanos, duration: Nanos) -> Grant {
        let start = self.busy_until.max(now);
        let end = start + duration;
        self.busy_until = end;
        Grant {
            start,
            end,
            wait: start - now,
        }
    }
}

/// A pool of FCFS units, each acquired by its index.
///
/// # Example
///
/// ```
/// use hams_sim::{MultiResource, Nanos};
///
/// let mut channels = MultiResource::new(2);
/// // Two transfers on channel 0 queue; one on channel 1 does not.
/// let g1 = channels.acquire_unit(0, Nanos::ZERO, Nanos::from_nanos(100));
/// let g2 = channels.acquire_unit(0, Nanos::ZERO, Nanos::from_nanos(100));
/// let g3 = channels.acquire_unit(1, Nanos::ZERO, Nanos::from_nanos(100));
/// assert_eq!(g1.wait, Nanos::ZERO);
/// assert_eq!(g2.wait, Nanos::from_nanos(100));
/// assert_eq!(g3.wait, Nanos::ZERO);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiResource {
    units: Vec<Resource>,
}

impl MultiResource {
    /// Creates a pool of `count` idle units.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero: a pool must contain at least one unit.
    #[must_use]
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "MultiResource must have at least one unit");
        MultiResource {
            units: vec![Resource::default(); count],
        }
    }

    /// Acquires unit `index` (e.g. the channel selected by address
    /// striping) at `now` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn acquire_unit(&mut self, index: usize, now: Nanos, duration: Nanos) -> Grant {
        self.units[index].acquire(now, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::default();
        let g = r.acquire(Nanos::from_nanos(10), Nanos::from_nanos(5));
        assert_eq!(g.start, Nanos::from_nanos(10));
        assert_eq!(g.end, Nanos::from_nanos(15));
        assert_eq!(g.wait, Nanos::ZERO);
        assert_eq!(g.latency(), Nanos::from_nanos(5));
    }

    #[test]
    fn busy_resource_queues_requests() {
        let mut r = Resource::default();
        let _ = r.acquire(Nanos::ZERO, Nanos::from_nanos(100));
        let g = r.acquire(Nanos::from_nanos(20), Nanos::from_nanos(10));
        assert_eq!(g.start, Nanos::from_nanos(100));
        assert_eq!(g.wait, Nanos::from_nanos(80));
        assert_eq!(g.latency(), Nanos::from_nanos(90));
    }

    #[test]
    fn an_idle_gap_is_not_queued_behind() {
        let mut r = Resource::default();
        r.acquire(Nanos::ZERO, Nanos::from_nanos(10));
        let g = r.acquire(Nanos::from_nanos(100), Nanos::from_nanos(10));
        assert_eq!(g.wait, Nanos::ZERO);
        assert_eq!(r.busy_until(), Nanos::from_nanos(110));
    }

    #[test]
    fn multi_resource_specific_unit() {
        let mut m = MultiResource::new(4);
        let g = m.acquire_unit(3, Nanos::ZERO, Nanos::from_nanos(10));
        assert_eq!(g.end, Nanos::from_nanos(10));
        let same = m.acquire_unit(3, Nanos::ZERO, Nanos::from_nanos(10));
        assert_eq!(same.wait, Nanos::from_nanos(10));
        let other = m.acquire_unit(0, Nanos::ZERO, Nanos::from_nanos(10));
        assert_eq!(other.wait, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn multi_resource_rejects_zero_units() {
        let _ = MultiResource::new(0);
    }
}
