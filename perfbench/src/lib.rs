//! Host-clock benchmark of the Hyperion simulator.
//!
//! One run builds a workload's state (set-up), then drives its measured
//! phase against the simulator's public, untraced entry points, and
//! repeats set-up plus measured phase ("an episode") until the run's time
//! is spent. Every episode of a run replays the same seeded inputs, so
//! host timings are samples of identical work and the model's outputs
//! must repeat exactly; a mismatch fails the run. End-to-end host times
//! are rescaled by a fixed reference kernel timed alongside them (see
//! `reference.rs`), so that other load on a shared host does not move them.
//!
//! The untraced run (`trace == false`) reports the end-to-end metrics.
//! The traced run alternates traced and untraced episodes and reports the
//! per-layer metrics: host-time spans at each layer boundary, the model's
//! virtual-clock outputs and work counts, and the tracing overhead.
//! See `README.md` for the workloads, metrics and predictions.

pub mod dpu;
pub mod lb;
pub mod probe;
mod reference;

use std::time::{Duration, Instant};

use probe::{Off, Spans};
use reference::Reference;

/// The seeded workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-0.9 steers over 4x more flows than the DRAM table holds.
    LbZipfSpill,
    /// New flows only, one spill page written per eviction.
    LbNewFlowBurst,
    /// Four closed-loop clients over NVMe-oF, tree, KV-SSD and fail2ban.
    DpuServices,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LbZipfSpill,
        Workload::LbNewFlowBurst,
        Workload::DpuServices,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LbZipfSpill => "lb_zipf_spill",
            Workload::LbNewFlowBurst => "lb_new_flow_burst",
            Workload::DpuServices => "dpu_services",
        }
    }

    /// Simulated ops per timed block: at least 100 blocks per episode, so
    /// that ten block positions lie beyond the p90.
    fn block_ops(self) -> u64 {
        match self {
            Workload::LbNewFlowBurst => 500,
            Workload::LbZipfSpill | Workload::DpuServices => 1_000,
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. The benchmark runs [`Size::FULL`]; tests use
/// [`Size::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `lb_zipf_spill`: flows installed by set-up.
    pub zipf_flows: u64,
    /// `lb_zipf_spill`: DRAM table capacity in flows.
    pub zipf_dram: usize,
    /// `lb_zipf_spill`: steers in the measured phase.
    pub zipf_ops: usize,
    /// `lb_new_flow_burst`: DRAM table capacity, filled by set-up.
    pub burst_dram: usize,
    /// `lb_new_flow_burst`: new flows in the measured phase.
    pub burst_ops: usize,
    /// `dpu_services`: keys in the B+ tree.
    pub dpu_keys: u64,
    /// `dpu_services`: ops in the measured phase.
    pub dpu_ops: usize,
}

impl Size {
    /// The benchmark's sizes (E7b's 4x-DRAM row; E11c's batch-1 row with
    /// 50k measured flows instead of 150k, so that the NVMe backlog peaks
    /// at 400 KB and an episode takes about a second).
    pub const FULL: Size = Size {
        zipf_flows: 200_000,
        zipf_dram: 50_000,
        zipf_ops: 100_000,
        burst_dram: 50_000,
        burst_ops: 50_000,
        dpu_keys: 50_000,
        dpu_ops: 400_000,
    };

    /// A smoke-test size that exercises every path in well under a second.
    pub const TINY: Size = Size {
        zipf_flows: 2_000,
        zipf_dram: 500,
        zipf_ops: 3_000,
        burst_dram: 500,
        burst_ops: 2_000,
        dpu_keys: 2_000,
        dpu_ops: 4_000,
    };
}

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_ops_per_s", "ops/s"),
    ("host_ms_per_kop_p50", "ms"),
    ("host_ms_per_kop_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_op_frac", "frac"),
];

/// Per-layer metrics (traced run): name and unit. A metric of a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("lb.steer_hit.host_ns_p50", "ns"),
    ("lb.steer_flush.host_ns_p50", "ns"),
    ("lb.steer_flush.host_ns_p90", "ns"),
    ("lb.steer_flush.host_growth", "ratio"),
    ("lb.steer_promote.host_ns_p50", "ns"),
    ("lb.hits_dram", "count"),
    ("lb.promotions", "count"),
    ("lb.spills", "count"),
    ("lb.spill_pages", "count"),
    ("lb.new_flows", "count"),
    ("lb.virt_pps", "1/s"),
    ("lb.virt_steer_p50_ns", "ns"),
    ("lb.virt_steer_p99_ns", "ns"),
    ("nvmeof.read.host_ns_p50", "ns"),
    ("nvmeof.write.host_ns_p50", "ns"),
    ("nvmeof.attempts_per_exchange", "ratio"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("nvme.queue_depth_max", "count"),
    ("nvme.flash_reads", "count"),
    ("nvme.flash_programs", "count"),
    ("svc.tree_lookup.host_ns_p50", "ns"),
    ("svc.node_read.host_ns_p50", "ns"),
    ("svc.kv.host_ns_p50", "ns"),
    ("rpc.call.host_ns_p50", "ns"),
    ("setup.boot_s", "s"),
    ("setup.tree_populate_s", "s"),
    ("f2b.pipeline.host_ns_p50", "ns"),
    ("f2b.insns_per_packet", "insns"),
    ("corfu.append.host_ns_p50", "ns"),
    ("f2b.bans", "count"),
    ("corfu.appends", "count"),
    ("nvmeof.virt_read_p50_us", "us"),
    ("nvmeof.virt_read_p99_us", "us"),
    ("chase.virt_offloaded_p50_us", "us"),
    ("chase.virt_client_p50_us", "us"),
    ("chase.rtts_client", "count"),
    ("chase.rtts_offloaded", "count"),
    ("f2b.virt_pps", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("failed_op_frac", "frac"),
    ("op.self_ns_p50", "ns"),
    ("ref.kernel_ms_p50", "ms"),
];

/// Host-time per-layer metrics: metric, span name, percentile.
const SPAN_METRICS: [(&str, &str, f64); 12] = [
    ("lb.steer_hit.host_ns_p50", "lb.steer_hit", 0.50),
    ("lb.steer_flush.host_ns_p50", "lb.steer_flush", 0.50),
    ("lb.steer_flush.host_ns_p90", "lb.steer_flush", 0.90),
    ("lb.steer_promote.host_ns_p50", "lb.steer_promote", 0.50),
    ("nvmeof.read.host_ns_p50", "nvmeof.read", 0.50),
    ("nvmeof.write.host_ns_p50", "nvmeof.write", 0.50),
    ("svc.tree_lookup.host_ns_p50", "svc.tree_lookup", 0.50),
    ("svc.node_read.host_ns_p50", "svc.node_read", 0.50),
    ("svc.kv.host_ns_p50", "svc.kv", 0.50),
    ("rpc.call.host_ns_p50", "rpc.call", 0.50),
    ("f2b.pipeline.host_ns_p50", "f2b.pipeline", 0.50),
    ("corfu.append.host_ns_p50", "corfu.append", 0.50),
];

/// Episodes per run at least, whatever the time budget: the per-block
/// median needs repeats, and the traced run needs a traced and an
/// untraced episode.
const MIN_EPISODES: usize = 3;

/// Host seconds of set-up each episode times at least. Where set-up takes
/// milliseconds, an episode repeats it, drops all but the last state, and
/// times every repeat, so `setup_s` is a median of samples spread over
/// the whole run rather than over one moment of machine load.
const SETUP_SECONDS_PER_EPISODE: f64 = 0.1;

/// Times consecutive blocks of simulated ops, and runs the reference
/// kernel after each block, outside the block's time.
#[derive(Debug)]
pub(crate) struct BlockTimer<'a> {
    last: Instant,
    ops: u64,
    block_ops: u64,
    ms: Vec<f64>,
    reference: &'a mut Reference,
    ref_ms: Vec<f64>,
}

impl<'a> BlockTimer<'a> {
    fn start(block_ops: u64, reference: &'a mut Reference) -> BlockTimer<'a> {
        BlockTimer {
            last: Instant::now(),
            ops: 0,
            block_ops,
            ms: Vec::new(),
            reference,
            ref_ms: Vec::new(),
        }
    }

    /// Counts one completed op, closing a block every `block_ops`.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(self.block_ops) {
            let now = Instant::now();
            self.ms.push((now - self.last).as_secs_f64() * 1e3);
            self.ref_ms.push(self.reference.run());
            self.last = Instant::now();
        }
    }
}

/// Named values, in report order.
pub type Named = Vec<(&'static str, f64)>;

/// What one measured phase did.
#[derive(Debug)]
pub(crate) struct Episode {
    /// Ops attempted.
    ops: u64,
    /// Ops that failed their correctness check.
    failed: u64,
    /// The model's outputs: virtual-clock values and work counts. These
    /// depend only on the inputs, so they must repeat exactly.
    model: Named,
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub(crate) fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count; 0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the generated inputs.
    pub seed: u64,
    /// Time budget for set-ups plus measured phases.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    /// Every op passed its check and every episode's model outputs agreed.
    pub correct: bool,
    /// Ops attempted over all episodes.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// `END_TO_END` (untraced) or `PER_LAYER` (traced), in order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The model outputs of the first episode (for determinism tests).
    pub model: Named,
    /// The traced episodes' spans (traced runs only).
    pub spans: Option<Spans>,
}

enum Inputs {
    Zipf(lb::Inputs),
    Burst(lb::Inputs),
    Dpu(dpu::Inputs),
}

enum State {
    Lb(Box<lb::State>),
    Dpu(Box<dpu::State>),
}

fn generate(w: Workload, seed: u64, size: &Size) -> Inputs {
    match w {
        Workload::LbZipfSpill => Inputs::Zipf(lb::zipf_inputs(seed, size)),
        Workload::LbNewFlowBurst => Inputs::Burst(lb::burst_inputs(seed, size)),
        Workload::DpuServices => Inputs::Dpu(dpu::inputs(seed, size)),
    }
}

/// Builds the workload's state; returns it with any timed set-up stages.
fn setup(inputs: &Inputs, size: &Size) -> Result<(State, Named), String> {
    Ok(match inputs {
        Inputs::Zipf(i) => (State::Lb(Box::new(lb::zipf_setup(i, size))), vec![]),
        Inputs::Burst(i) => (State::Lb(Box::new(lb::burst_setup(i, size))), vec![]),
        Inputs::Dpu(_) => {
            let (st, stages) = dpu::setup(size)?;
            (State::Dpu(Box::new(st)), stages)
        }
    })
}

fn measure<P: probe::Probe>(
    state: &mut State,
    inputs: &Inputs,
    probe: &mut P,
    blocks: &mut BlockTimer,
) -> Episode {
    match (state, inputs) {
        (State::Lb(st), Inputs::Zipf(i) | Inputs::Burst(i)) => lb::measure(st, i, probe, blocks),
        (State::Dpu(st), Inputs::Dpu(i)) => dpu::measure(st, i, probe, blocks),
        _ => unreachable!("state is set up for the workload"),
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Mean of the last tenth of `samples` over the mean of the first tenth.
fn growth(samples: &[u32]) -> Option<f64> {
    let tenth = samples.len() / 10;
    if tenth == 0 {
        return None;
    }
    let mean = |s: &[u32]| s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
    Some(mean(&samples[samples.len() - tenth..]) / mean(&samples[..tenth]))
}

/// One measured phase's rescaled block times, with the median kernel time
/// over its blocks.
type Timed = (f64, Vec<f64>);

/// Per block position, the median rescaled block time over the half of
/// the episodes (rounded up) that ran while the kernel was fastest. Every
/// episode replays the same ops, so block `i` is the same work each time.
/// The rescaling corrects most of what other load on the host costs, but
/// not all; the episodes on the quietest host need the least correction.
fn median_by_position(mut episodes: Vec<Timed>) -> Vec<f64> {
    episodes.sort_by(|a, b| a.0.total_cmp(&b.0));
    episodes.truncate(episodes.len().div_ceil(2));
    let blocks = episodes.iter().map(|e| e.1.len()).min().unwrap_or(0);
    (0..blocks)
        .map(|i| median(&episodes.iter().map(|e| e.1[i]).collect::<Vec<_>>()))
        .collect()
}

/// Simulated ops per host second at the given times of blocks of
/// `block_ops` ops.
fn ops_per_s(block_ms: &[f64], block_ops: u64) -> f64 {
    let ms: f64 = block_ms.iter().sum();
    if ms == 0.0 {
        return 0.0;
    }
    (block_ms.len() as u64 * block_ops) as f64 / (ms / 1e3)
}

/// Runs one workload for `cfg.seconds` and reports its metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let inputs = generate(cfg.workload, cfg.seed, &cfg.size);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let clock = Instant::now();
    let mut setup_s = Vec::new();
    let mut setup_parts: Named = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut growths = Vec::new();
    let mut spans = Spans::default();
    let mut model: Option<Named> = None;
    let mut repeats = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut episodes = 0;
    let mut reference = Reference::new();
    let block_ops = cfg.workload.block_ops();
    while episodes < MIN_EPISODES || clock.elapsed() < budget {
        let mut spent = 0.0;
        let mut state = loop {
            let t = Instant::now();
            let (state, parts) = setup(&inputs, &cfg.size)?;
            let s = t.elapsed().as_secs_f64();
            let kernel = median(&[reference.run(), reference.run(), reference.run()]);
            setup_s.push(s * reference::NOMINAL_MS / kernel);
            setup_parts.extend(parts);
            spent += s;
            if spent >= SETUP_SECONDS_PER_EPISODE {
                break state;
            }
        };
        let traced = cfg.trace && episodes % 2 == 0;
        let flushes_before = spans.samples("lb.steer_flush").len();
        let mut blocks = BlockTimer::start(block_ops, &mut reference);
        let ep = if traced {
            measure(&mut state, &inputs, &mut spans, &mut blocks)
        } else {
            measure(&mut state, &inputs, &mut Off, &mut blocks)
        };
        drop(state);
        let rescaled = reference::rescale_blocks(&blocks.ms, &blocks.ref_ms);
        eprintln!(
            "episode {episodes}: setup {:.4} s, {:.0} ops/s raw, kernel {:.4} ms, {:.0} ops/s rescaled{}",
            spent,
            ops_per_s(&blocks.ms, block_ops),
            median(&blocks.ref_ms),
            ops_per_s(&rescaled, block_ops),
            if traced { " (traced)" } else { "" }
        );
        let timed = (median(&blocks.ref_ms), rescaled);
        kernel_ms.extend(blocks.ref_ms);
        if traced {
            traced_ms.push(timed);
            growths.extend(growth(&spans.samples("lb.steer_flush")[flushes_before..]));
        } else {
            untraced_ms.push(timed);
        }
        attempted += ep.ops;
        failed += ep.failed;
        match &model {
            None => model = Some(ep.model),
            Some(first) => repeats &= *first == ep.model,
        }
        episodes += 1;
    }
    let model = model.unwrap_or_default();
    let metrics = if cfg.trace {
        let mut values = model.clone();
        for &(metric, span, p) in &SPAN_METRICS {
            let mut s = spans.samples(span).to_vec();
            s.sort_unstable();
            values.push((metric, percentile(&s, p) as f64));
        }
        values.push(("lb.steer_flush.host_growth", median(&growths)));
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("setup.")) {
            let samples: Vec<f64> = setup_parts
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            values.push((name, median(&samples)));
        }
        values.push((
            "trace.overhead_frac",
            ops_per_s(&median_by_position(traced_ms), block_ops)
                / ops_per_s(&median_by_position(untraced_ms), block_ops)
                - 1.0,
        ));
        values.push(("ref.kernel_ms_p50", median(&kernel_ms)));
        values.push(("failed_op_frac", failed as f64 / attempted as f64));
        let mut self_ns = spans.op_self_ns().to_vec();
        self_ns.sort_unstable();
        values.push(("op.self_ns_p50", percentile(&self_ns, 0.50) as f64));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |e| e.1);
                (name, v, unit)
            })
            .collect()
    } else {
        let mut block_ms = median_by_position(untraced_ms);
        let rate = ops_per_s(&block_ms, block_ops);
        block_ms.sort_by(f64::total_cmp);
        let per_kop = 1_000.0 / block_ops as f64;
        let values = [
            rate,
            percentile(&block_ms, 0.50) * per_kop,
            percentile(&block_ms, 0.90) * per_kop,
            median(&setup_s),
            peak_rss_mib()?,
            (attempted - failed) as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Report {
        correct: failed == 0 && repeats,
        attempted,
        failed,
        metrics,
        model,
        spans: cfg.trace.then_some(spans),
    })
}
