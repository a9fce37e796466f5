//! FCFS busy-until resource schedulers.
//!
//! A [`Resource`] models a single serially-occupied hardware unit — a DDR4
//! channel, a PCIe link, a flash die, a plane register — while a
//! [`MultiResource`] models a pool of identical units (e.g. the channels of an
//! SSD) with least-loaded dispatch. Transactions "acquire" a resource for a
//! duration; the scheduler returns the [`Grant`] describing when the
//! transaction actually starts and finishes, which is how queueing delay and
//! contention enter the latency model.

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

/// A single FCFS-served hardware unit with a "busy until" horizon.
///
/// # Example
///
/// ```
/// use hams_sim::{Nanos, Resource};
///
/// let mut die = Resource::new("znand-die");
/// let a = die.acquire(Nanos::ZERO, Nanos::from_micros(3));
/// let b = die.acquire(Nanos::ZERO, Nanos::from_micros(3));
/// assert_eq!(a.wait, Nanos::ZERO);
/// assert_eq!(b.wait, Nanos::from_micros(3)); // queued behind the first read
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Resource {
    name: String,
    busy_until: Nanos,
    busy_time: Nanos,
    grants: u64,
}

impl Resource {
    /// Creates an idle resource with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            busy_until: Nanos::ZERO,
            busy_time: Nanos::ZERO,
            grants: 0,
        }
    }

    /// Diagnostic name given at construction.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time at which the resource next becomes idle.
    #[must_use]
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Total time the resource has spent busy.
    #[must_use]
    pub fn busy_time(&self) -> Nanos {
        self.busy_time
    }

    /// Number of grants issued so far.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Returns `true` if the resource is idle at time `now`.
    #[must_use]
    pub fn is_idle_at(&self, now: Nanos) -> bool {
        self.busy_until <= now
    }

    /// Acquires the resource at `now` for `duration`, queueing behind any
    /// earlier grant that has not yet completed.
    pub fn acquire(&mut self, now: Nanos, duration: Nanos) -> Grant {
        let start = self.busy_until.max(now);
        let end = start + duration;
        self.busy_until = end;
        self.busy_time += duration;
        self.grants += 1;
        Grant {
            start,
            end,
            wait: start - now,
        }
    }

    /// Utilisation of the resource over `[0, horizon]`, in `[0, 1]`.
    /// Returns 0 for a zero horizon.
    #[must_use]
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy_time.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }

    /// Resets the resource to idle and clears accounting.
    pub fn reset(&mut self) {
        self.busy_until = Nanos::ZERO;
        self.busy_time = Nanos::ZERO;
        self.grants = 0;
    }
}

/// A pool of identical FCFS units with least-loaded dispatch.
///
/// Used for structures whose members are interchangeable from the requester's
/// point of view, such as the channel set of an SSD when the FTL stripes
/// across channels, or the per-core hardware dispatch queues of the block
/// layer.
///
/// # Example
///
/// ```
/// use hams_sim::{MultiResource, Nanos};
///
/// let mut channels = MultiResource::new("ssd-channel", 2);
/// // Three transfers over two channels: the third queues behind the first.
/// let g1 = channels.acquire(Nanos::ZERO, Nanos::from_nanos(100));
/// let g2 = channels.acquire(Nanos::ZERO, Nanos::from_nanos(100));
/// let g3 = channels.acquire(Nanos::ZERO, Nanos::from_nanos(100));
/// assert_eq!(g1.wait, Nanos::ZERO);
/// assert_eq!(g2.wait, Nanos::ZERO);
/// assert_eq!(g3.wait, Nanos::from_nanos(100));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiResource {
    units: Vec<Resource>,
}

impl MultiResource {
    /// Creates a pool of `count` identical units.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero: a pool must contain at least one unit.
    #[must_use]
    pub fn new(name: impl Into<String>, count: usize) -> Self {
        assert!(count > 0, "MultiResource must have at least one unit");
        let name = name.into();
        let units = (0..count)
            .map(|i| Resource::new(format!("{name}[{i}]")))
            .collect();
        MultiResource { units }
    }

    /// Number of units in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always `false`: construction guarantees at least one unit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Acquires the least-loaded unit at `now` for `duration`.
    pub fn acquire(&mut self, now: Nanos, duration: Nanos) -> Grant {
        let idx = self.least_loaded();
        self.units[idx].acquire(now, duration)
    }

    /// Acquires a *specific* unit (e.g. the channel selected by address
    /// striping) at `now` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn acquire_unit(&mut self, index: usize, now: Nanos, duration: Nanos) -> Grant {
        self.units[index].acquire(now, duration)
    }

    /// Returns the index of the unit that becomes idle earliest.
    #[must_use]
    pub fn least_loaded(&self) -> usize {
        self.units
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.busy_until())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Read-only access to an individual unit.
    #[must_use]
    pub fn unit(&self, index: usize) -> Option<&Resource> {
        self.units.get(index)
    }

    /// Iterator over the units of the pool.
    pub fn iter(&self) -> std::slice::Iter<'_, Resource> {
        self.units.iter()
    }

    /// Total busy time summed across every unit.
    #[must_use]
    pub fn total_busy_time(&self) -> Nanos {
        self.units.iter().map(Resource::busy_time).sum()
    }

    /// Resets every unit in the pool.
    pub fn reset(&mut self) {
        for u in &mut self.units {
            u.reset();
        }
    }
}

impl<'a> IntoIterator for &'a MultiResource {
    type Item = &'a Resource;
    type IntoIter = std::slice::Iter<'a, Resource>;
    fn into_iter(self) -> Self::IntoIter {
        self.units.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new("r");
        let g = r.acquire(Nanos::from_nanos(10), Nanos::from_nanos(5));
        assert_eq!(g.start, Nanos::from_nanos(10));
        assert_eq!(g.end, Nanos::from_nanos(15));
        assert_eq!(g.wait, Nanos::ZERO);
        assert_eq!(g.latency(), Nanos::from_nanos(5));
    }

    #[test]
    fn busy_resource_queues_requests() {
        let mut r = Resource::new("r");
        let _ = r.acquire(Nanos::ZERO, Nanos::from_nanos(100));
        let g = r.acquire(Nanos::from_nanos(20), Nanos::from_nanos(10));
        assert_eq!(g.start, Nanos::from_nanos(100));
        assert_eq!(g.wait, Nanos::from_nanos(80));
        assert_eq!(g.latency(), Nanos::from_nanos(90));
    }

    #[test]
    fn idle_gaps_are_not_counted_busy() {
        let mut r = Resource::new("r");
        r.acquire(Nanos::ZERO, Nanos::from_nanos(10));
        r.acquire(Nanos::from_nanos(100), Nanos::from_nanos(10));
        assert_eq!(r.busy_time(), Nanos::from_nanos(20));
        assert_eq!(r.grants(), 2);
        assert!(r.is_idle_at(Nanos::from_nanos(200)));
        assert!(!r.is_idle_at(Nanos::from_nanos(105)));
    }

    #[test]
    fn utilization_is_bounded() {
        let mut r = Resource::new("r");
        r.acquire(Nanos::ZERO, Nanos::from_nanos(50));
        assert!((r.utilization(Nanos::from_nanos(100)) - 0.5).abs() < 1e-9);
        assert_eq!(r.utilization(Nanos::ZERO), 0.0);
        assert!(r.utilization(Nanos::from_nanos(10)) <= 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r");
        r.acquire(Nanos::ZERO, Nanos::from_nanos(50));
        r.reset();
        assert_eq!(r.busy_until(), Nanos::ZERO);
        assert_eq!(r.busy_time(), Nanos::ZERO);
        assert_eq!(r.grants(), 0);
    }

    #[test]
    fn multi_resource_dispatches_least_loaded() {
        let mut m = MultiResource::new("ch", 2);
        let g1 = m.acquire(Nanos::ZERO, Nanos::from_nanos(100));
        let g2 = m.acquire(Nanos::ZERO, Nanos::from_nanos(50));
        let g3 = m.acquire(Nanos::ZERO, Nanos::from_nanos(10));
        assert_eq!(g1.wait, Nanos::ZERO);
        assert_eq!(g2.wait, Nanos::ZERO);
        // Third goes behind the 50ns unit (least loaded).
        assert_eq!(g3.start, Nanos::from_nanos(50));
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_busy_time(), Nanos::from_nanos(160));
    }

    #[test]
    fn multi_resource_specific_unit() {
        let mut m = MultiResource::new("ch", 4);
        let g = m.acquire_unit(3, Nanos::ZERO, Nanos::from_nanos(10));
        assert_eq!(g.end, Nanos::from_nanos(10));
        assert_eq!(m.unit(3).unwrap().grants(), 1);
        assert_eq!(m.unit(0).unwrap().grants(), 0);
        assert!(m.unit(9).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn multi_resource_rejects_zero_units() {
        let _ = MultiResource::new("ch", 0);
    }
}
