//! Energy units.
//!
//! The paper's headline quantitative claim is energy: Hyperion's maximum
//! TDP is ~230 W against ~1,600 W for a 1U server, a 4–8x efficiency band
//! once throughput differences are folded in (§2). Power is held in
//! integer milliwatts and energy in integer picojoules, so power × `Ns`
//! is exact. Two figures use them: E1's TDP envelope (a platform's max
//! TDP over the run) and the telemetry recorder's per-hop energy (a
//! component's active power over each hop).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use crate::time::Ns;

/// Energy in picojoules.
///
/// One watt for one nanosecond is exactly 1,000 pJ, so power integration
/// over the `Ns` timeline is exact in integer math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pj(pub u128);

impl Pj {
    /// Zero energy.
    pub const ZERO: Pj = Pj(0);

    /// Energy in fractional joules.
    pub fn as_joules_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }
}

impl Add for Pj {
    type Output = Pj;
    fn add(self, rhs: Pj) -> Pj {
        Pj(self.0 + rhs.0)
    }
}

impl AddAssign for Pj {
    fn add_assign(&mut self, rhs: Pj) {
        self.0 += rhs.0;
    }
}

impl Sum for Pj {
    fn sum<I: Iterator<Item = Pj>>(iter: I) -> Pj {
        iter.fold(Pj::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Pj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1_000_000_000_000 {
            write!(f, "{:.3}J", self.as_joules_f64())
        } else if v >= 1_000_000_000 {
            write!(f, "{:.3}mJ", v as f64 / 1e9)
        } else if v >= 1_000_000 {
            write!(f, "{:.3}uJ", v as f64 / 1e6)
        } else if v >= 1_000 {
            write!(f, "{:.3}nJ", v as f64 / 1e3)
        } else {
            write!(f, "{v}pJ")
        }
    }
}

/// Power in milliwatts (integer so that `power × Ns` stays exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MilliWatts(pub u64);

impl MilliWatts {
    /// Creates a power figure from whole watts.
    pub const fn from_watts(w: u64) -> MilliWatts {
        MilliWatts(w * 1_000)
    }

    /// Energy dissipated at this power over `dt`.
    ///
    /// 1 mW × 1 ns is exactly 1 pJ, so the integration is exact in u128.
    pub fn energy_over(self, dt: Ns) -> Pj {
        Pj(self.0 as u128 * dt.0 as u128)
    }
}

impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}W", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_watt_one_second_is_one_joule() {
        let p = MilliWatts::from_watts(1);
        let e = p.energy_over(Ns::from_secs(1));
        assert_eq!(e, Pj(1_000_000_000_000));
    }

    #[test]
    fn milliwatt_nanosecond_is_one_picojoule() {
        assert_eq!(MilliWatts(1).energy_over(Ns(1)), Pj(1));
        assert_eq!(MilliWatts(1).energy_over(Ns(1000)), Pj(1000));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Pj(500)), "500pJ");
        assert_eq!(format!("{}", Pj(2_000_000)), "2.000uJ");
        assert_eq!(format!("{}", MilliWatts::from_watts(230)), "230.000W");
    }
}
