//! Open-loop arrival processes.
//!
//! Closed-loop replay (the runner's default) issues the next access when the
//! previous one finishes, so the offered load always equals the service rate
//! and saturation behaviour is invisible. Production serving is *open-loop*:
//! requests arrive on their own schedule regardless of how the platform is
//! doing. This module generates those arrival schedules — deterministic,
//! seeded streams of arrival instants that the platform-boundary admission
//! queue (in `hams-platforms`) consumes.
//!
//! [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant rate — is
//! the canonical open-loop load model.
//! [`ArrivalProcess::Saturate`] is its degenerate limit (arrival rate → ∞):
//! every request arrives at t = 0. Combined with a depth-1 blocking queue it
//! reproduces the closed-loop serial contract byte for byte, which is how the
//! open-loop engine is pinned against the rest of the test tower.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use hams_sim::rng::{derived_rng, exponential_nanos};
use hams_sim::Nanos;

/// An open-loop arrival process: how request arrival instants are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a fixed mean rate (exponential inter-arrival
    /// gaps).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
    /// The rate → ∞ limit: every request arrives at t = 0. Degenerates the
    /// open-loop driver to closed-loop serving order.
    Saturate,
}

impl ArrivalProcess {
    /// The time-averaged arrival rate in requests per second
    /// (`f64::INFINITY` for [`ArrivalProcess::Saturate`]).
    #[must_use]
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Saturate => f64::INFINITY,
        }
    }

    /// Checks the process parameters.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive Poisson rate.
    pub fn validate(&self) {
        if let ArrivalProcess::Poisson { rate_per_sec } = *self {
            assert!(
                rate_per_sec.is_finite() && rate_per_sec > 0.0,
                "arrival process: rate_per_sec ({rate_per_sec}) must be finite and positive"
            );
        }
    }
}

/// Nanoseconds per second, as a float, for rate → mean-gap conversion.
const NANOS_PER_SEC: f64 = 1e9;

/// Deterministic generator of `count` non-decreasing arrival instants for one
/// [`ArrivalProcess`], seeded like every other stochastic stream in the
/// reproduction (via [`derived_rng`], so arrivals never share a stream with
/// the trace generator even under the same experiment seed).
///
/// # Example
///
/// ```
/// use hams_sim::Nanos;
/// use hams_workloads::{ArrivalGenerator, ArrivalProcess};
///
/// let process = ArrivalProcess::Poisson { rate_per_sec: 1_000_000.0 };
/// let arrivals: Vec<Nanos> = ArrivalGenerator::new(process, 42, 100).collect();
/// assert_eq!(arrivals.len(), 100);
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug)]
pub struct ArrivalGenerator {
    process: ArrivalProcess,
    rng: StdRng,
    now: Nanos,
    remaining: usize,
}

impl ArrivalGenerator {
    /// Creates a generator of `count` arrivals, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the process fails [`ArrivalProcess::validate`].
    #[must_use]
    pub fn new(process: ArrivalProcess, seed: u64, count: usize) -> Self {
        process.validate();
        ArrivalGenerator {
            process,
            rng: derived_rng(seed, "open-loop-arrivals"),
            now: Nanos::ZERO,
            remaining: count,
        }
    }

    /// The process this generator samples.
    #[must_use]
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    fn next_instant(&mut self) -> Nanos {
        match self.process {
            ArrivalProcess::Saturate => Nanos::ZERO,
            ArrivalProcess::Poisson { rate_per_sec } => {
                let gap = exponential_nanos(&mut self.rng, NANOS_PER_SEC / rate_per_sec);
                self.now = self.now.saturating_add(Nanos::from_nanos(gap));
                self.now
            }
        }
    }
}

impl Iterator for ArrivalGenerator {
    type Item = Nanos;

    fn next(&mut self) -> Option<Nanos> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.next_instant())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ArrivalGenerator {}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(process: ArrivalProcess, seed: u64, count: usize) -> Vec<Nanos> {
        ArrivalGenerator::new(process, seed, count).collect()
    }

    #[test]
    fn arrivals_are_reproducible_and_seed_dependent() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 500_000.0,
        };
        let a = collect(p, 7, 400);
        let b = collect(p, 7, 400);
        let c = collect(p, 8, 400);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 400);
    }

    #[test]
    fn arrivals_are_non_decreasing_for_every_process() {
        let processes = [
            ArrivalProcess::Poisson { rate_per_sec: 1e6 },
            ArrivalProcess::Saturate,
        ];
        for p in processes {
            let arrivals = collect(p, 13, 1_000);
            assert!(
                arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{p:?} produced a decreasing arrival"
            );
        }
    }

    #[test]
    fn poisson_empirical_rate_matches() {
        let rate = 1_000_000.0; // one arrival per microsecond
        let n = 20_000;
        let arrivals = collect(ArrivalProcess::Poisson { rate_per_sec: rate }, 21, n);
        let span = arrivals.last().unwrap().as_secs_f64();
        let observed = n as f64 / span;
        assert!(
            (observed - rate).abs() < rate * 0.1,
            "observed rate {observed} too far from {rate}"
        );
    }

    /// Pins the Poisson stream to the formula it samples rather than to the
    /// generator's own code: arrival `k` is the saturating sum of the first
    /// `k` exponential gaps of mean `1e9 / rate` ns, drawn in order from the
    /// seed's `open-loop-arrivals` stream. A draw made for anything else
    /// shifts every later arrival.
    #[test]
    fn poisson_stream_equals_the_exponential_gap_reference() {
        for seed in [42, 20211] {
            for rate in [3e4, 3e5] {
                let mut rng = derived_rng(seed, "open-loop-arrivals");
                let mut now = Nanos::ZERO;
                let reference: Vec<Nanos> = (0..2_000)
                    .map(|_| {
                        let gap = exponential_nanos(&mut rng, 1e9 / rate);
                        now = now.saturating_add(Nanos::from_nanos(gap));
                        now
                    })
                    .collect();
                let process = ArrivalProcess::Poisson { rate_per_sec: rate };
                assert_eq!(
                    collect(process, seed, 2_000),
                    reference,
                    "seed {seed}, rate {rate}"
                );
            }
        }
    }

    #[test]
    fn saturate_pins_every_arrival_to_zero() {
        let arrivals = collect(ArrivalProcess::Saturate, 3, 64);
        assert!(arrivals.iter().all(|t| t.is_zero()));
        assert_eq!(ArrivalProcess::Saturate.mean_rate_per_sec(), f64::INFINITY);
    }

    #[test]
    fn generator_reports_exact_length() {
        let g = ArrivalGenerator::new(ArrivalProcess::Poisson { rate_per_sec: 1e6 }, 1, 321);
        assert_eq!(g.len(), 321);
        assert_eq!(g.count(), 321);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn zero_rate_is_rejected() {
        let _ = ArrivalGenerator::new(ArrivalProcess::Poisson { rate_per_sec: 0.0 }, 1, 1);
    }
}
