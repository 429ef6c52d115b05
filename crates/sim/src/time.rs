//! Virtual time for the discrete-event simulator.
//!
//! All simulation timestamps are nanoseconds since the start of the
//! simulation. Two newtypes keep instants and durations from being mixed up:
//! [`Time`] is a point on the virtual clock, [`Dur`] is a span between two
//! points. The arithmetic mirrors `std::time::{Instant, Duration}` but is
//! `Copy`, `Ord`, and cheap enough to live inside event-queue keys.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Builds an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Builds a span from nanoseconds.
    pub const fn nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Builds a span from microseconds.
    pub const fn micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Builds a span from milliseconds.
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Builds a span from seconds.
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Builds a span from fractional milliseconds (negative values clamp to zero).
    pub fn from_millis_f64(ms: f64) -> Dur {
        Dur((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Element-wise maximum of two spans.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000) {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Dur::micros(3).as_nanos(), 3_000);
        assert_eq!(Dur::millis(7).as_micros(), 7_000);
        assert_eq!(Dur::secs(2).as_millis(), 2_000);
        assert_eq!(Dur::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Dur::millis(5);
        assert_eq!(t.as_millis(), 5);
        let later = t + Dur::micros(250);
        assert_eq!(later - t, Dur::micros(250));
        assert_eq!(t.saturating_since(later), Dur::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Dur::millis(2) * 3;
        assert_eq!(d.as_millis(), 6);
        assert_eq!(d / 2, Dur::millis(3));
        assert_eq!(d - Dur::millis(10), Dur::ZERO, "saturating subtraction");
    }

    #[test]
    fn negative_float_clamps() {
        assert_eq!(Dur::from_millis_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::nanos(17)), "17ns");
        assert_eq!(format!("{}", Dur::micros(2)), "2.000us");
        assert_eq!(format!("{}", Dur::millis(3)), "3.000ms");
        assert_eq!(format!("{}", Dur::secs(4)), "4.000s");
    }
}
