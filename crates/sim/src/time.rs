//! Virtual time for the simulation kernel.
//!
//! All simulated components express latency in nanoseconds through the
//! [`Ns`] newtype. Using an integer newtype (rather than `f64` seconds or a
//! bare `u64`) keeps timeline arithmetic exact and prevents accidentally
//! mixing simulated durations with byte counts or cycle counts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated nanoseconds.
///
/// `Ns` is used for both points on the virtual timeline (measured from the
/// simulation epoch) and durations between points; the arithmetic is the
/// same and the simulation kernel never needs wall-clock anchoring.
///
/// # Examples
///
/// ```
/// use hyperion_sim::time::Ns;
///
/// let start = Ns::from_micros(3);
/// let service = Ns(500);
/// assert_eq!(start + service, Ns(3_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// The simulation epoch (time zero).
    pub const ZERO: Ns = Ns(0);

    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Ns = Ns(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Ns {
        Ns(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns `ZERO` instead of wrapping below zero.
    pub fn saturating_sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Ns) -> Option<Ns> {
        self.0.checked_add(rhs.0).map(Ns)
    }

    /// Returns the larger of two instants.
    pub fn max(self, rhs: Ns) -> Ns {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two instants.
    pub fn min(self, rhs: Ns) -> Ns {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Scales the duration by a rational factor `num / den`, rounding up.
    ///
    /// Rounding up keeps service-time models conservative (a resource is
    /// never modeled as faster than its parameters).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn scale(self, num: u64, den: u64) -> Ns {
        assert!(den != 0, "Ns::scale denominator must be non-zero");
        let v = (self.0 as u128 * num as u128).div_ceil(den as u128);
        Ns(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl SubAssign for Ns {
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        iter.fold(Ns::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if v >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if v >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{v}ns")
        }
    }
}

/// Converts a byte count and a bandwidth (in bits per second) into the
/// serialization delay, rounding up to whole nanoseconds.
///
/// # Panics
///
/// Panics if `bits_per_sec` is zero.
///
/// # Examples
///
/// ```
/// use hyperion_sim::time::{serialization_delay, Ns};
///
/// // 1500 bytes at 100 Gbps = 120 ns.
/// assert_eq!(serialization_delay(1500, 100_000_000_000), Ns(120));
/// ```
pub const fn serialization_delay(bytes: u64, bits_per_sec: u64) -> Ns {
    assert!(bits_per_sec != 0, "bandwidth must be non-zero");
    // Exact in `u64` while `bytes * 8e9` fits (up to about 2.3 GB): every
    // link transmit and flash access takes this path. Larger counts take
    // the `u128` one, whose division is a library call several times
    // slower, and saturate.
    if bytes <= u64::MAX / BIT_NS_PER_BYTE {
        return Ns((bytes * BIT_NS_PER_BYTE).div_ceil(bits_per_sec));
    }
    let ns = (bytes as u128 * BIT_NS_PER_BYTE as u128).div_ceil(bits_per_sec as u128);
    Ns(if ns > u64::MAX as u128 {
        u64::MAX
    } else {
        ns as u64
    })
}

/// Bits per byte times nanoseconds per second.
const BIT_NS_PER_BYTE: u64 = 8 * 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_raw_nanos() {
        assert_eq!(Ns::from_micros(1), Ns(1_000));
        assert_eq!(Ns::from_millis(2), Ns(2_000_000));
        assert_eq!(Ns::from_secs(3), Ns(3_000_000_000));
    }

    #[test]
    fn arithmetic_is_exact() {
        let a = Ns(100);
        let b = Ns(40);
        assert_eq!(a + b, Ns(140));
        assert_eq!(a - b, Ns(60));
        assert_eq!(a * 3, Ns(300));
        assert_eq!(a / 3, Ns(33));
        assert_eq!(Ns(10).saturating_sub(Ns(20)), Ns::ZERO);
    }

    #[test]
    fn scale_rounds_up() {
        assert_eq!(Ns(10).scale(1, 3), Ns(4));
        assert_eq!(Ns(9).scale(1, 3), Ns(3));
        assert_eq!(Ns(0).scale(7, 3), Ns(0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Ns = [Ns(1), Ns(2), Ns(3)].into_iter().sum();
        assert_eq!(total, Ns(6));
    }

    #[test]
    fn serialization_delay_100gbe() {
        // 64-byte minimum frame at 100 Gbps: 5.12 ns, rounded up to 6.
        assert_eq!(serialization_delay(64, 100_000_000_000), Ns(6));
        // 4 KiB at 10 Gbps: 3276.8 ns, rounded up.
        assert_eq!(serialization_delay(4096, 10_000_000_000), Ns(3_277));
    }

    #[test]
    fn serialization_delay_matches_the_u128_formula() {
        fn reference(bytes: u64, bits_per_sec: u64) -> Ns {
            let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bits_per_sec as u128);
            Ns(u64::try_from(ns).unwrap_or(u64::MAX))
        }
        // The largest count whose bit-nanoseconds fit in a u64.
        let edge = u64::MAX / 8_000_000_000;
        for bytes in [0, 1, edge - 1, edge, edge + 1, u64::MAX] {
            for bits_per_sec in [1, 100_000_000_000, u64::MAX] {
                assert_eq!(
                    serialization_delay(bytes, bits_per_sec),
                    reference(bytes, bits_per_sec),
                    "{bytes} bytes at {bits_per_sec} bps"
                );
            }
        }
        let mut rng = crate::rng::Rng::seeded(7);
        for _ in 0..10_000 {
            // Counts on both sides of the edge, and bandwidths of any width.
            let bytes = rng.next_u64() >> rng.next_below(64);
            let bits_per_sec = (rng.next_u64() >> rng.next_below(64)).max(1);
            assert_eq!(
                serialization_delay(bytes, bits_per_sec),
                reference(bytes, bits_per_sec),
                "{bytes} bytes at {bits_per_sec} bps"
            );
        }
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Ns(900)), "900ns");
        assert_eq!(format!("{}", Ns(1_500)), "1.500us");
        assert_eq!(format!("{}", Ns(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", Ns(3_000_000_000)), "3.000s");
    }
}
