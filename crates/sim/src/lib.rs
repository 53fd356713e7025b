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
//! * [`hash`] — a fixed integer hasher (`IntMap`/`IntSet`) for tables
//!   keyed by simulator-generated ids;
//! * [`rng`] — seeded SplitMix64/Xoshiro256** generators and a Zipf
//!   sampler, so timelines are reproducible bit-for-bit;
//! * [`fault`] — seeded, virtual-clock-scheduled fault injection
//!   (Bernoulli sites and failure windows) for the self-healing paths;
//! * [`stats`] — log-bucketed histograms and structural counters
//!   (hops/copies/RTTs);
//! * [`energy`] — picojoule-exact energy and milliwatt power units for
//!   the paper's 4–8x efficiency claim.
//!
//! Nothing in this crate reads wall-clock time or environment state: a
//! seeded scenario always replays the same timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod fault;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use energy::{MilliWatts, Pj};
pub use fault::FaultPlan;
pub use hash::{IntMap, IntSet};
pub use resource::{Link, Resource};
pub use rng::{Rng, Zipf};
pub use stats::{Counters, Histogram};
pub use time::{serialization_delay, Ns};
