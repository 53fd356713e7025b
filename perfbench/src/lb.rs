//! The two load-balancer workloads: `lb_zipf_spill` and
//! `lb_new_flow_burst`.
//!
//! Both drive `LoadBalancer::steer` closed-loop on the virtual clock (each
//! steer is issued at the previous one's completion instant) and check
//! connection affinity: a flow's backend never changes across steers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hyperion_apps::loadbalancer::{BackendId, LoadBalancer};
use hyperion_apps::trafficgen::TrafficGen;
use hyperion_sim::rng::SplitMix64;
use hyperion_sim::time::Ns;

use crate::probe::Probe;
use crate::{percentile, BlockTimer, Episode, Named, Size};

/// Spill-SSD capacity in LBAs (the E7b/E11c configuration).
const SPILL_LBAS: u64 = 1 << 20;

/// Flow ids for one run: set-up flows, then the measured phase's flows.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    setup: Vec<u64>,
    measured: Vec<u64>,
}

/// `lb_zipf_spill` inputs: set-up installs flows `0..flows` in order (the
/// E7b connection-setup phase); the measured phase steers Zipf-0.9
/// `TrafficGen` packets over those flows.
pub fn zipf_inputs(seed: u64, size: &Size) -> Inputs {
    let mut gen = TrafficGen::new(seed, size.zipf_flows, 0.0, 16);
    Inputs {
        setup: (0..size.zipf_flows).collect(),
        measured: (0..size.zipf_ops).map(|_| gen.next_packet().0).collect(),
    }
}

/// `lb_new_flow_burst` inputs: distinct seeded flow hashes, enough to
/// fill the DRAM table and then `burst_ops` more, each of them new.
pub fn burst_inputs(seed: u64, size: &Size) -> Inputs {
    // SplitMix64 is a bijection of its counter, so the hashes are distinct.
    let mut ids = SplitMix64::new(seed);
    let mut flows = (0..size.burst_dram + size.burst_ops).map(|_| ids.next_u64());
    Inputs {
        setup: flows.by_ref().take(size.burst_dram).collect(),
        measured: flows.collect(),
    }
}

/// A balancer after set-up, with the backend each installed flow got.
#[derive(Debug)]
pub(crate) struct State {
    lb: LoadBalancer,
    now: Ns,
    affinity: HashMap<u64, BackendId>,
}

/// `lb_zipf_spill` set-up: `LoadBalancer::new(16, dram, 1<<20)` with the
/// default spill batch.
pub(crate) fn zipf_setup(inputs: &Inputs, size: &Size) -> State {
    install(LoadBalancer::new(16, size.zipf_dram, SPILL_LBAS), inputs)
}

/// `lb_new_flow_burst` set-up: `LoadBalancer::with_spill_batch(8, dram,
/// 1<<20, 1)`, one flash page per eviction, filled to DRAM capacity.
pub(crate) fn burst_setup(inputs: &Inputs, size: &Size) -> State {
    install(
        LoadBalancer::with_spill_batch(8, size.burst_dram, SPILL_LBAS, 1),
        inputs,
    )
}

fn install(mut lb: LoadBalancer, inputs: &Inputs) -> State {
    let mut now = Ns::ZERO;
    let mut affinity = HashMap::with_capacity(inputs.setup.len() + inputs.measured.len());
    for &flow in &inputs.setup {
        let (backend, done) = lb.steer(flow, now);
        affinity.insert(flow, backend);
        now = done;
    }
    State { lb, now, affinity }
}

const PATH_COUNTERS: [&str; 3] = ["spill_pages", "promotions", "hits_dram"];

fn path_counts(lb: &LoadBalancer) -> [u64; 3] {
    PATH_COUNTERS.map(|c| lb.counters.get(c))
}

/// Names a steer's span by the path its counter deltas show; a steer that
/// flushed a spill page counts as a flush even if it also promoted.
fn steer_path(before: [u64; 3], after: [u64; 3]) -> &'static str {
    if after[0] > before[0] {
        "lb.steer_flush"
    } else if after[1] > before[1] {
        "lb.steer_promote"
    } else if after[2] > before[2] {
        "lb.steer_hit"
    } else {
        "lb.steer_other"
    }
}

const WORK_COUNTERS: [(&str, &str); 5] = [
    ("lb.hits_dram", "hits_dram"),
    ("lb.promotions", "promotions"),
    ("lb.spills", "spills"),
    ("lb.spill_pages", "spill_pages"),
    ("lb.new_flows", "new_flows"),
];

/// The measured phase: steers every measured flow once, in order.
pub(crate) fn measure<P: Probe>(
    st: &mut State,
    inputs: &Inputs,
    probe: &mut P,
    blocks: &mut BlockTimer,
) -> Episode {
    let counts_before = WORK_COUNTERS.map(|(_, c)| st.lb.counters.get(c));
    let start = st.now;
    let mut virt = Vec::with_capacity(inputs.measured.len());
    let mut failed = 0;
    for &flow in &inputs.measured {
        probe.open();
        let path_before = if P::ENABLED {
            path_counts(&st.lb)
        } else {
            [0; 3]
        };
        probe.open();
        let (backend, done) = st.lb.steer(flow, st.now);
        probe.close_with(|| steer_path(path_before, path_counts(&st.lb)));
        match st.affinity.entry(flow) {
            Entry::Occupied(e) => failed += u64::from(*e.get() != backend),
            Entry::Vacant(e) => {
                e.insert(backend);
            }
        }
        virt.push((done - st.now).0);
        st.now = done;
        probe.close("op.steer");
        blocks.tick();
    }
    let ops = inputs.measured.len() as u64;
    virt.sort_unstable();
    let mut model: Named = WORK_COUNTERS
        .iter()
        .zip(counts_before)
        .map(|(&(metric, c), before)| (metric, (st.lb.counters.get(c) - before) as f64))
        .collect();
    model.extend([
        ("lb.virt_pps", ops as f64 / (st.now - start).as_secs_f64()),
        ("lb.virt_steer_p50_ns", percentile(&virt, 0.50) as f64),
        ("lb.virt_steer_p99_ns", percentile(&virt, 0.99) as f64),
    ]);
    Episode { ops, failed, model }
}
