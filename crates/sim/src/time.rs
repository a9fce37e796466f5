//! Simulation time: the [`Nanos`] duration/instant type.
//!
//! All component models in the HAMS reproduction express latency in integer
//! nanoseconds. The paper's device parameters span five orders of magnitude
//! (DDR4 column access ≈ 14 ns, Z-NAND read = 3 µs, Z-NAND program = 100 µs,
//! NVDIMM backup ≈ tens of seconds), all of which are exactly representable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant in simulated time, measured in nanoseconds.
///
/// `Nanos` is used both as a point on the simulation timeline (an instant
/// since simulation start) and as a span between two points; the arithmetic
/// is identical and keeping a single type avoids a proliferation of
/// conversions in the component models.
///
/// Arithmetic saturates rather than wrapping so that pathological
/// configurations degrade gracefully instead of producing nonsense times.
///
/// # Example
///
/// ```
/// use hams_sim::Nanos;
///
/// let znand_read = Nanos::from_micros(3);
/// let znand_program = Nanos::from_micros(100);
/// assert!(znand_program > znand_read);
/// assert_eq!((znand_read + znand_program).as_nanos(), 103_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration / simulation start instant.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time. Used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time value from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Creates a time value from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Creates a time value from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Creates a time value from a floating-point microsecond count,
    /// rounding to the nearest nanosecond. Negative or non-finite inputs
    /// clamp to zero.
    #[must_use]
    pub fn from_micros_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((us * 1_000.0).round() as u64)
    }

    /// Creates a time value from a floating-point nanosecond count,
    /// rounding to the nearest nanosecond. Negative or non-finite inputs
    /// clamp to zero.
    #[must_use]
    pub fn from_nanos_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos(ns.round() as u64)
    }

    /// Raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed as (possibly fractional) microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed as (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time expressed as (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; returns [`Nanos::ZERO`] if `other > self`.
    #[must_use]
    pub const fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiplies this duration by a floating point scale factor, rounding to
    /// the nearest nanosecond. Negative scales clamp to zero.
    #[must_use]
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos::from_nanos_f64(self.0 as f64 * factor)
    }

    /// Returns `true` if this is the zero time.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    /// Integer division of a duration.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn float_constructors_clamp_garbage() {
        assert_eq!(Nanos::from_micros_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_micros_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_nanos_f64(f64::INFINITY), Nanos::ZERO);
        assert_eq!(Nanos::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::MAX + Nanos::from_nanos(1), Nanos::MAX);
        assert_eq!(Nanos::ZERO - Nanos::from_nanos(1), Nanos::ZERO);
        assert_eq!(
            Nanos::from_nanos(10) - Nanos::from_nanos(3),
            Nanos::from_nanos(7)
        );
        assert_eq!(Nanos::from_nanos(10) * 3, Nanos::from_nanos(30));
        assert_eq!(Nanos::from_nanos(10) / 4, Nanos::from_nanos(2));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(3).to_string(), "3.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Nanos::from_nanos(10).scale(0.25), Nanos::from_nanos(3));
        assert_eq!(Nanos::from_nanos(10).scale(-1.0), Nanos::ZERO);
    }

    #[test]
    fn min_max_behave() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
