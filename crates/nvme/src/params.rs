//! Calibration constants for the NVMe flash model.
//!
//! Figures follow published TLC NAND datasheets and NVMe SSD measurements
//! (e.g. the device classes used in the ReFlex/i10/ZNS literature the paper
//! cites). As everywhere in this reproduction, experiments report ratios
//! and shapes, not these constants.

use hyperion_sim::time::Ns;

/// Logical block size.
pub const LBA_SIZE: u64 = 4_096;

/// NAND page size.
pub const PAGE_SIZE: u64 = 16_384;

/// Flash channels per SSD.
pub const CHANNELS: usize = 8;

/// Dies per channel.
pub const DIES_PER_CHANNEL: usize = 4;

/// TLC read (tR): time to sense a page inside a die.
pub const READ_LATENCY: Ns = Ns(60_000);

/// TLC program (tProg): time to program a page inside a die.
pub const PROGRAM_LATENCY: Ns = Ns(600_000);

/// Block erase time.
pub const ERASE_LATENCY: Ns = Ns(3_000_000);

/// Channel bus transfer rate (ONFI-class, ~1.2 GB/s).
pub const CHANNEL_BPS: u64 = 9_600_000_000;

/// Controller fixed overhead per command (firmware, FTL lookup, DMA setup).
pub const CONTROLLER_OVERHEAD: Ns = Ns(2_500);
