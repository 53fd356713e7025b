//! NAND flash timing: channels, dies, and the read/program/erase asymmetry.
//!
//! The device's parallelism structure is what makes queueing behaviour
//! realistic: a read occupies its die for tR and the channel bus for the
//! transfer; programs occupy the die for ~10x longer; erases for ~50x.
//! Logical pages stripe across channels then dies, so sequential workloads
//! spread while single-die hot spots queue.

use hyperion_sim::resource::Resource;
use hyperion_sim::time::{serialization_delay, Ns};

use crate::params;

/// Time one page takes on the channel bus.
const BUS: Ns = serialization_delay(params::PAGE_SIZE, params::CHANNEL_BPS);

/// Which flash operation a die performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOp {
    /// Page read (tR + bus transfer).
    Read,
    /// Page program (bus transfer + tProg).
    Program,
    /// Block erase.
    Erase,
}

/// One busy window recorded while flash tracing is active: which station
/// (channel bus or die) was occupied, and for what interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashClaim {
    /// True for a channel-bus window, false for a die window.
    pub channel: bool,
    /// Channel or die index.
    pub index: usize,
    /// Window start.
    pub start: Ns,
    /// Window end (exclusive).
    pub end: Ns,
}

/// The timing model of one SSD's NAND array.
#[derive(Debug)]
pub struct FlashArray {
    channels: Vec<Resource>,
    dies: Vec<Resource>,
    reads: u64,
    programs: u64,
    erases: u64,
    /// Busy windows accumulated while tracing is on (utilization plane);
    /// `None` means tracing is off and accesses pay no logging cost.
    log: Option<Vec<FlashClaim>>,
}

impl FlashArray {
    /// Creates an array of [`params::CHANNELS`] channels with
    /// [`params::DIES_PER_CHANNEL`] dies each.
    pub fn new() -> FlashArray {
        FlashArray {
            channels: (0..params::CHANNELS)
                .map(|_| Resource::new("nand-ch", 1))
                .collect(),
            dies: (0..params::CHANNELS * params::DIES_PER_CHANNEL)
                .map(|_| Resource::new("nand-die", 1))
                .collect(),
            reads: 0,
            programs: 0,
            erases: 0,
            log: None,
        }
    }

    /// Starts recording busy windows; pair with [`FlashArray::end_trace`].
    pub fn begin_trace(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Stops recording and returns the busy windows claimed since
    /// [`FlashArray::begin_trace`], in execution order.
    pub fn end_trace(&mut self) -> Vec<FlashClaim> {
        self.log.take().unwrap_or_default()
    }

    fn log_claim(&mut self, channel: bool, index: usize, start: Ns, end: Ns) {
        if let Some(log) = &mut self.log {
            log.push(FlashClaim {
                channel,
                index,
                start,
                end,
            });
        }
    }

    /// The `(channel, die)` a page maps to — the resource ids utilization
    /// accounting and edge labels use.
    pub fn placement(&self, page: u64) -> (usize, usize) {
        self.locate(page)
    }

    fn locate(&self, page: u64) -> (usize, usize) {
        const CHANNELS: u64 = params::CHANNELS as u64;
        let ch = (page % CHANNELS) as usize;
        let die_in_ch = (page / CHANNELS % params::DIES_PER_CHANNEL as u64) as usize;
        (ch, ch + die_in_ch * params::CHANNELS)
    }

    /// Executes one page-granular operation on the die holding `page`,
    /// arriving at `now`; returns the completion instant.
    pub fn access(&mut self, op: FlashOp, page: u64, now: Ns) -> Ns {
        let (ch, die) = self.locate(page);
        match op {
            FlashOp::Read => {
                self.reads += 1;
                // Sense in the die, then move the page over the channel.
                let (ds, de) = self.dies[die].access_interval(now, params::READ_LATENCY);
                let (cs, ce) = self.channels[ch].access_interval(de, BUS);
                self.log_claim(false, die, ds, de);
                self.log_claim(true, ch, cs, ce);
                ce
            }
            FlashOp::Program => {
                self.programs += 1;
                // Move data over the channel into the die's page register,
                // then program.
                let (cs, ce) = self.channels[ch].access_interval(now, BUS);
                let (ds, de) = self.dies[die].access_interval(ce, params::PROGRAM_LATENCY);
                self.log_claim(true, ch, cs, ce);
                self.log_claim(false, die, ds, de);
                de
            }
            FlashOp::Erase => {
                self.erases += 1;
                let (ds, de) = self.dies[die].access_interval(now, params::ERASE_LATENCY);
                self.log_claim(false, die, ds, de);
                de
            }
        }
    }

    /// Queue wait an operation on `page` arriving at `now` would see
    /// before its die frees up (zero when the die is idle). Used by the
    /// traced submission path to emit queueing edges.
    pub fn queue_wait(&self, page: u64, now: Ns) -> Ns {
        let (_, die) = self.locate(page);
        self.dies[die].earliest_start(now).saturating_sub(now)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// (reads, programs, erases) executed so far.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.reads, self.programs, self.erases)
    }
}

impl Default for FlashArray {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_is_much_faster_than_program() {
        let mut f = FlashArray::new();
        let r = f.access(FlashOp::Read, 0, Ns::ZERO);
        let mut f2 = FlashArray::new();
        let p = f2.access(FlashOp::Program, 0, Ns::ZERO);
        assert!(p > r * 5, "program {p} vs read {r}");
    }

    #[test]
    fn striped_pages_proceed_in_parallel() {
        let mut f = FlashArray::new();
        // Pages 0..8 land on 8 distinct channels/dies.
        let times: Vec<Ns> = (0..8)
            .map(|p| f.access(FlashOp::Read, p, Ns::ZERO))
            .collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_die_reads_queue() {
        let mut f = FlashArray::new();
        let a = f.access(FlashOp::Read, 0, Ns::ZERO);
        // Page 0 and page channels*dies_per_channel*... same die: page 0 and
        // page (channels * dies_per_channel) share channel AND die.
        let stride = (params::CHANNELS * params::DIES_PER_CHANNEL) as u64;
        let b = f.access(FlashOp::Read, stride, Ns::ZERO);
        assert!(b > a);
    }

    #[test]
    fn op_counters_track() {
        let mut f = FlashArray::new();
        f.access(FlashOp::Read, 0, Ns::ZERO);
        f.access(FlashOp::Program, 1, Ns::ZERO);
        f.access(FlashOp::Erase, 2, Ns::ZERO);
        assert_eq!(f.op_counts(), (1, 1, 1));
    }
}
