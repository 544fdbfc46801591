//! Picosecond-resolution simulation time.
//!
//! All latency computation in the workspace (configuration-port transfers,
//! data-flow schedules, discrete-event simulation) uses [`TimePs`], a `u64`
//! count of picoseconds. At picosecond resolution a `u64` spans ~5.1 hours of
//! simulated time, far beyond any experiment in the paper (the longest run is
//! seconds of air time).
//!
//! Picoseconds — rather than nanoseconds — keep clock-period arithmetic exact
//! for the clocks the paper uses: 50 MHz (20 000 ps), 33 MHz (30 303 ps),
//! 100 MHz (10 000 ps).

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct TimePs(pub u64);

impl TimePs {
    /// Zero time.
    pub const ZERO: TimePs = TimePs(0);
    /// The maximum representable time (used as "never" sentinel by schedulers).
    pub const MAX: TimePs = TimePs(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        TimePs(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        TimePs(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        TimePs(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        TimePs(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        TimePs(s * 1_000_000_000_000)
    }

    /// `cycles` periods of a clock of the given frequency. Computed as a
    /// single 128-bit multiply/divide so that rounding error does not
    /// accumulate per cycle.
    #[inline]
    pub fn cycles_at(cycles: u64, hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be positive");
        let ps = (cycles as u128 * 1_000_000_000_000u128 + (hz as u128) / 2) / hz as u128;
        TimePs(ps.min(u64::MAX as u128) as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// As floating-point nanoseconds.
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// As floating-point microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: TimePs) -> TimePs {
        TimePs(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: TimePs) -> Option<TimePs> {
        self.0.checked_add(other.0).map(TimePs)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: TimePs) -> TimePs {
        TimePs(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: TimePs) -> TimePs {
        TimePs(self.0.min(other.0))
    }

    /// True if this is the zero time.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for TimePs {
    type Output = TimePs;
    #[inline]
    fn add(self, rhs: TimePs) -> TimePs {
        TimePs(self.0 + rhs.0)
    }
}

impl AddAssign for TimePs {
    #[inline]
    fn add_assign(&mut self, rhs: TimePs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimePs {
    type Output = TimePs;
    #[inline]
    fn sub(self, rhs: TimePs) -> TimePs {
        TimePs(
            self.0
                .checked_sub(rhs.0)
                .expect("TimePs subtraction underflow"),
        )
    }
}

impl SubAssign for TimePs {
    #[inline]
    fn sub_assign(&mut self, rhs: TimePs) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for TimePs {
    type Output = TimePs;
    #[inline]
    fn mul(self, rhs: u64) -> TimePs {
        TimePs(self.0 * rhs)
    }
}

impl Div<u64> for TimePs {
    type Output = TimePs;
    #[inline]
    fn div(self, rhs: u64) -> TimePs {
        TimePs(self.0 / rhs)
    }
}

impl Sum for TimePs {
    fn sum<I: Iterator<Item = TimePs>>(iter: I) -> TimePs {
        iter.fold(TimePs::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for TimePs {
    /// Human-oriented display with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps < 1_000 {
            write!(f, "{ps} ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3} ns", self.as_nanos_f64())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3} us", self.as_micros_f64())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else {
            write!(f, "{:.6} s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(TimePs::from_ns(1).as_ps(), 1_000);
        assert_eq!(TimePs::from_us(1).as_ps(), 1_000_000);
        assert_eq!(TimePs::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(TimePs::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn cycles_at_does_not_accumulate_rounding() {
        // 33 million cycles at 33 MHz is exactly one second.
        let t = TimePs::cycles_at(33_000_000, 33_000_000);
        assert_eq!(t, TimePs::from_secs(1));
        // Per-cycle rounding would have drifted by ~1 us here.
        let drift = TimePs::from_ps(30_303) * 33_000_000;
        assert_ne!(drift, TimePs::from_secs(1));
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = TimePs::from_ns(5);
        let b = TimePs::from_ns(3);
        assert_eq!((a + b).as_ps(), 8_000);
        assert_eq!((a - b).as_ps(), 2_000);
        assert_eq!(a.saturating_sub(b), TimePs::from_ns(2));
        assert_eq!(b.saturating_sub(a), TimePs::ZERO);
        assert!(a > b);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(a * 2, TimePs::from_ns(10));
        assert_eq!(a / 5, TimePs::from_ns(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = TimePs::from_ns(1) - TimePs::from_ns(2);
    }

    #[test]
    fn sum_over_iterator() {
        let total: TimePs = (1..=4).map(TimePs::from_ns).sum();
        assert_eq!(total, TimePs::from_ns(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", TimePs::from_ps(12)), "12 ps");
        assert_eq!(format!("{}", TimePs::from_ns(1)), "1.000 ns");
        assert_eq!(format!("{}", TimePs::from_ms(4)), "4.000 ms");
        assert_eq!(format!("{}", TimePs::ZERO), "0");
    }
}
