//! Calibration constants for the FPGA fabric model.
//!
//! All figures are taken from the Xilinx Alveo U280 data sheet (the board
//! the Hyperion prototype is built around, paper §2 and Figure 1) and from
//! the partial-reconfiguration timescales the paper cites (10–100 ms, §2).
//! They are model *inputs*; experiments report ratios and shapes, never
//! these constants themselves.

use hyperion_sim::energy::MilliWatts;
use hyperion_sim::time::Ns;

use crate::resources::ResourceBudget;

/// Total programmable resources of an Alveo U280 (XCU280 die).
pub const U280_BUDGET: ResourceBudget = ResourceBudget {
    luts: 1_304_000,
    ffs: 2_607_000,
    brams: 2_016,
    urams: 960,
    dsps: 9_024,
};

/// Default kernel clock for synthesized pipelines (a typical closed
/// frequency for data-path kernels on UltraScale+).
pub const DEFAULT_CLOCK_MHZ: u64 = 250;

/// HBM2 stack capacity on the U280 (8 GiB).
pub const HBM_CAPACITY: u64 = 8 << 30;

/// HBM2 aggregate bandwidth (~460 GB/s) expressed in bits/s.
pub const HBM_BANDWIDTH_BPS: u64 = 3_680_000_000_000;

/// HBM2 random access latency seen from fabric logic.
pub const HBM_LATENCY: Ns = Ns(120);

/// On-board DDR4 capacity (2 x 16 GiB DIMMs).
pub const DDR_CAPACITY: u64 = 32 << 30;

/// DDR4-2400 dual-channel bandwidth (~38 GB/s) in bits/s.
pub const DDR_BANDWIDTH_BPS: u64 = 304_000_000_000;

/// DDR4 random access latency seen from fabric logic.
pub const DDR_LATENCY: Ns = Ns(200);

/// Aggregate BRAM bandwidth is effectively wire-speed for our flows; model
/// a deep on-chip SRAM port (~1 TB/s class) with single-cycle-ish latency.
pub const BRAM_BANDWIDTH_BPS: u64 = 8_000_000_000_000;

/// BRAM access latency (one 250 MHz cycle).
pub const BRAM_LATENCY: Ns = Ns(4);

/// BRAM capacity: 2,016 blocks x 36 Kib = ~8.9 MiB usable.
pub const BRAM_CAPACITY: u64 = 2_016 * (36 * 1024) / 8;

/// URAM capacity: 960 blocks x 288 Kib = 33.75 MiB.
pub const URAM_CAPACITY: u64 = 960 * (288 * 1024) / 8;

/// ICAP (Internal Configuration Access Port) programming throughput.
///
/// ~800 MB/s for UltraScale+ ICAP at 200 MHz x 32 bit; together with
/// partial-bitstream sizes this lands reconfiguration in the paper's
/// 10–100 ms band.
pub const ICAP_BANDWIDTH_BPS: u64 = 6_400_000_000;

/// Fixed overhead of a partial reconfiguration (shutdown, decouple,
/// startup sequencing) on top of bitstream streaming time.
pub const RECONFIG_OVERHEAD: Ns = Ns::from_millis(8);

/// Maximum TDP of the Hyperion DPU assembly as reported in the paper
/// (~230 W including SSDs).
pub const HYPERION_MAX_TDP: MilliWatts = MilliWatts::from_watts(230);

/// Dynamic energy per LUT per cycle of active logic, in picojoules.
///
/// Order-of-magnitude figure for UltraScale+ logic toggling at moderate
/// activity factors; used to scale pipeline energy with occupied area.
pub const LUT_DYNAMIC_PJ_PER_CYCLE_MILLI: u64 = 5; // 0.005 pJ

/// Energy per byte moved through HBM (pJ/B).
pub const HBM_PJ_PER_BYTE: u64 = 4;

/// Energy per byte moved through DDR4 (pJ/B).
pub const DDR_PJ_PER_BYTE: u64 = 20;

/// Boot-time JTAG/self-test duration before the DPU is standalone (§2:
/// "boots in a stand-alone mode ... when power is applied and FPGA JTAG
/// self-tests are passed").
pub const SELF_TEST_DURATION: Ns = Ns::from_millis(250);
