//! # hyperion-sim — deterministic simulation kernel
//!
//! The foundation substrate for the Hyperion reproduction of *CPU-free
//! Computing: A Vision with a Blueprint* (HotOS '23). Every hardware model
//! in the workspace (FPGA fabric, PCIe, 100 GbE, NVMe flash, host CPU) is
//! built on the primitives in this crate:
//!
//! * [`time`] — the `Ns` virtual-time newtype and serialization math;
//! * [`resource`] — k-server FIFO timelines and bandwidth links, the
//!   composition-friendly queueing primitive;
//! * [`rng`] — seeded SplitMix64/Xoshiro256** generators and a Zipf
//!   sampler, so timelines are reproducible bit-for-bit;
//! * [`fault`] — seeded, virtual-clock-scheduled fault injection
//!   (Bernoulli sites and failure windows) for the self-healing paths;
//! * [`stats`] — log-bucketed histograms, run summaries, and structural
//!   counters (hops/copies/RTTs);
//! * [`energy`] — picojoule-exact energy meters for the paper's 4–8x
//!   efficiency claim.
//!
//! Nothing in this crate reads wall-clock time or environment state: a
//! seeded scenario always replays the same timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod fault;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use energy::{EnergyMeter, MilliWatts, Pj};
pub use fault::FaultPlan;
pub use resource::{Link, Resource};
pub use rng::{Rng, Zipf};
pub use stats::{Counters, Histogram, Summary};
pub use time::{serialization_delay, Ns};
