//! Platform specifications: the physical claims of the paper.
//!
//! Paper §2: "In comparison to a conventional 1U rack-mounted server like
//! SuperMicro X12, Hyperion is 5-10x more compact in volume, and 4-8x more
//! energy efficient with the maximum TDP energy specifications (approx.
//! 230 Watts vs 1,600 Watts)." These specs drive experiment E1.

use hyperion_sim::energy::MilliWatts;

/// Physical and electrical envelope of one compute unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Maximum TDP.
    pub max_tdp: MilliWatts,
    /// Occupied volume in cubic centimetres.
    pub volume_cm3: u64,
    /// Rack units consumed (x10 to keep integers: 1U = 10).
    pub rack_units_x10: u64,
}

/// The Hyperion DPU assembly: U280 + crossover board + 4 M.2 SSDs.
///
/// Figure 1 shows the assembly against an A4 sheet (29.7 cm x 20.7 cm);
/// with a full-height card profile (~2.5 cm including the riser stack)
/// that is ~1.5 litres.
pub const HYPERION: PlatformSpec = PlatformSpec {
    name: "hyperion",
    max_tdp: MilliWatts::from_watts(230),
    volume_cm3: 29 * 21 * 3,
    rack_units_x10: 2, // a fraction of a shelf slot
};

/// A SuperMicro X12-class 1U server: 438 x 450 x 43 mm, dual-socket with
/// a 1,600 W platform envelope.
pub const SERVER_1U: PlatformSpec = PlatformSpec {
    name: "server-1u",
    max_tdp: MilliWatts::from_watts(1_600),
    volume_cm3: 44 * 45 * 5,
    rack_units_x10: 10,
};

impl PlatformSpec {
    /// Volume ratio of `other` over `self`.
    pub fn volume_ratio_vs(&self, other: &PlatformSpec) -> f64 {
        other.volume_cm3 as f64 / self.volume_cm3 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tdp_figures() {
        assert_eq!(HYPERION.max_tdp, MilliWatts::from_watts(230));
        assert_eq!(SERVER_1U.max_tdp, MilliWatts::from_watts(1_600));
    }

    #[test]
    fn paper_compactness_band() {
        let ratio = HYPERION.volume_ratio_vs(&SERVER_1U);
        assert!(
            (5.0..=10.0).contains(&ratio),
            "volume ratio {ratio} should land in the paper's 5-10x band"
        );
    }
}
