//! Calibration constants for the FPGA fabric model.
//!
//! All figures are taken from the Xilinx Alveo U280 data sheet (the board
//! the Hyperion prototype is built around, paper §2 and Figure 1) and from
//! the partial-reconfiguration timescales the paper cites (10–100 ms, §2).
//! They are model *inputs*; experiments report ratios and shapes, never
//! these constants themselves.

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

/// ICAP (Internal Configuration Access Port) programming throughput.
///
/// ~800 MB/s for UltraScale+ ICAP at 200 MHz x 32 bit; together with
/// partial-bitstream sizes this lands reconfiguration in the paper's
/// 10–100 ms band.
pub const ICAP_BANDWIDTH_BPS: u64 = 6_400_000_000;

/// Fixed overhead of a partial reconfiguration (shutdown, decouple,
/// startup sequencing) on top of bitstream streaming time.
pub const RECONFIG_OVERHEAD: Ns = Ns::from_millis(8);

/// Boot-time JTAG/self-test duration before the DPU is standalone (§2:
/// "boots in a stand-alone mode ... when power is applied and FPGA JTAG
/// self-tests are passed").
pub const SELF_TEST_DURATION: Ns = Ns::from_millis(250);
