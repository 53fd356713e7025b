//! The [`Recorder`]: the lightweight telemetry handle threaded through
//! the request path.
//!
//! One recorder per experiment/run. Instrumented layers open a span when
//! a hop starts and close it when the hop's virtual-time work is known;
//! the recorder turns closed spans into per-hop latency histograms and
//! time-integrated energy attribution, and keeps the raw span tree (up to
//! a bound) for the JSON dump.
//!
//! Determinism contract: a recorder's state is a pure function of the
//! sequence of calls made against it. No wall-clock, no randomness, no
//! map iteration order — every table below is an insertion-ordered `Vec`
//! and every dump sorts by stable keys.

use hyperion_sim::energy::Pj;
use hyperion_sim::stats::Histogram;
use hyperion_sim::time::Ns;

use crate::power;
use crate::span::{Component, Span, SpanId};
use crate::util::UtilPlane;

/// Retained-span bound: histograms and energy keep aggregating past it,
/// only the raw tree stops growing (long experiments stay bounded).
const MAX_RETAINED_SPANS: usize = 65_536;

/// Min/max/last/mean aggregation of a sampled level (queue depth, slot
/// occupancy).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    samples: u64,
    sum: u128,
    min: u64,
    max: u64,
    last: u64,
}

impl Gauge {
    /// Records one sample.
    pub fn sample(&mut self, value: u64) {
        if self.samples == 0 {
            self.min = value;
        } else {
            self.min = self.min.min(value);
        }
        self.samples += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.last = value;
    }

    /// Number of samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Most recent sample.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Arithmetic mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum as f64 / self.samples as f64
    }
}

/// One row of a per-hop breakdown: everything a report needs to print
/// "where did the nanoseconds go" for one hop.
#[derive(Debug, Clone)]
pub struct HopRow {
    /// Component the hop belongs to.
    pub component: Component,
    /// Hop label.
    pub name: &'static str,
    /// Number of times the hop ran.
    pub count: u64,
    /// Median hop latency (ns).
    pub p50: u64,
    /// 99th-percentile hop latency (ns).
    pub p99: u64,
    /// Total virtual time spent in the hop.
    pub total: Ns,
    /// Energy attributed to the hop: its component's active power over
    /// the hop's total time.
    pub energy: Pj,
}

/// Where a modelled operation runs: the virtual instant it starts at and,
/// when it is traced, the recorder it reports to.
///
/// Every modelled operation takes `at: impl Into<At>`, so an untraced
/// caller passes a plain [`Ns`] and a traced one passes
/// `At::new(now, Some(&mut rec))`. Tracing is a runtime choice of the
/// caller; recording never changes an operation's timing.
#[derive(Debug)]
pub struct At<'r> {
    /// The instant the operation starts at.
    pub now: Ns,
    /// The recorder the operation reports to; `None` records nothing.
    pub rec: Option<&'r mut Recorder>,
}

impl<'r> At<'r> {
    /// An operation at `now` reporting to `rec`.
    pub fn new(now: Ns, rec: Option<&'r mut Recorder>) -> At<'r> {
        At { now, rec }
    }
}

impl From<Ns> for At<'_> {
    fn from(now: Ns) -> Self {
        At { now, rec: None }
    }
}

/// Aggregated telemetry for one run.
#[derive(Debug, Clone)]
pub struct Recorder {
    label: String,
    spans: Vec<Span>,
    /// Open spans, innermost last: each with what its close aggregates,
    /// so spans past the retention bound still reach the hop tables.
    stack: Vec<(SpanId, Component, &'static str, Ns)>,
    /// Spans opened so far: the next span's id. Equals `spans.len()`
    /// below the retention bound and keeps counting past it.
    opened: u32,
    /// (component, hop name) → latency histogram + totals. Linear lookup:
    /// the hop set is small (tens) and insertion-ordered.
    hops: Vec<(Component, &'static str, Histogram, Ns, Pj)>,
    /// Service-op label → latency histogram.
    ops: Vec<(String, Histogram)>,
    gauges: Vec<(&'static str, Gauge)>,
    /// Named monotonic event counters (faults injected, retries, timeouts,
    /// give-ups). Insertion-ordered; the JSON dump sorts by name.
    counters: Vec<(String, u64)>,
    /// Queueing edges: `(span, ready_at)` — the work inside `span` could
    /// not start before `ready_at` because an earlier request held the
    /// resource (link occupancy, flash die, protocol grant rounds).
    queue_edges: Vec<(SpanId, Ns)>,
    /// Which utilization-plane resource a queue edge waited on — the join
    /// key for bottleneck attribution. Recorded only while the plane is
    /// enabled, so disabled runs dump byte-identically.
    edge_resources: Vec<(SpanId, String)>,
    /// Zero-duration events (fault injections, epoch bumps, failover
    /// decisions) exported as Perfetto instants. Insertion order is
    /// virtual-time order by construction at the call sites.
    instants: Vec<(String, Ns)>,
    /// The utilization plane (busy intervals + depth timelines); disabled
    /// by default.
    util: UtilPlane,
}

impl Recorder {
    /// Creates an empty recorder for a labeled run.
    pub fn new(label: impl Into<String>) -> Recorder {
        Recorder {
            label: label.into(),
            spans: Vec::new(),
            stack: Vec::new(),
            opened: 0,
            hops: Vec::new(),
            ops: Vec::new(),
            gauges: Vec::new(),
            counters: Vec::new(),
            queue_edges: Vec::new(),
            edge_resources: Vec::new(),
            instants: Vec::new(),
            util: UtilPlane::new(),
        }
    }

    /// The run label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Opens a span at `start`, nested under the currently open span.
    /// Returns the handle to pass to [`Recorder::close`].
    pub fn open(&mut self, component: Component, name: &'static str, start: Ns) -> SpanId {
        let id = SpanId(self.opened);
        self.opened += 1;
        if self.spans.len() < MAX_RETAINED_SPANS {
            self.spans.push(Span {
                name,
                component,
                start,
                end: None,
                parent: self.stack.last().map(|open| open.0),
            });
        }
        self.stack.push((id, component, name, start));
        id
    }

    /// Closes a span at `end`: pops it from the open stack, records the
    /// duration in the hop's histogram, and attributes time-integrated
    /// energy at the component's active power.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (mis-nested
    /// instrumentation is a bug worth failing loudly on).
    pub fn close(&mut self, id: SpanId, end: Ns) {
        let (top, component, name, start) = self.stack.pop().expect("close with no open span");
        assert_eq!(top, id, "spans must close innermost-first");
        if let Some(span) = self.spans.get_mut(id.as_index()) {
            span.end = Some(end);
        }
        let dur = end.saturating_sub(start);
        let energy = power::active_power(component).energy_over(dur);
        let row = self.hop_entry(component, name);
        row.2.record_ns(dur);
        row.3 += dur;
        row.4 += energy;
    }

    /// Opens and immediately closes a span covering `[start, end)` — for
    /// layers whose work is computed in one shot.
    pub fn record_hop(&mut self, component: Component, name: &'static str, start: Ns, end: Ns) {
        let id = self.open(component, name, start);
        self.close(id, end);
    }

    fn hop_entry(
        &mut self,
        component: Component,
        name: &'static str,
    ) -> &mut (Component, &'static str, Histogram, Ns, Pj) {
        if let Some(i) = self
            .hops
            .iter()
            .position(|(c, n, ..)| *c == component && *n == name)
        {
            return &mut self.hops[i];
        }
        self.hops
            .push((component, name, Histogram::new(), Ns::ZERO, Pj::ZERO));
        self.hops.last_mut().expect("just pushed")
    }

    /// Records a completed service operation's end-to-end latency.
    pub fn record_op(&mut self, op: &str, latency: Ns) {
        if let Some(i) = self.ops.iter().position(|(n, _)| n == op) {
            self.ops[i].1.record_ns(latency);
            return;
        }
        let mut h = Histogram::new();
        h.record_ns(latency);
        self.ops.push((op.to_string(), h));
    }

    /// Samples a named gauge (queue depth, slot occupancy, window size).
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == name) {
            self.gauges[i].1.sample(value);
            return;
        }
        let mut g = Gauge::default();
        g.sample(value);
        self.gauges.push((name, g));
    }

    /// Adds `n` to the named event counter, creating it at zero first.
    /// Counters record discrete recovery events — faults injected,
    /// retries, timeouts, give-ups — that have no duration of their own.
    pub fn count(&mut self, name: &str, n: u64) {
        if let Some(i) = self.counters.iter().position(|(m, _)| m == name) {
            self.counters[i].1 += n;
            return;
        }
        self.counters.push((name.to_string(), n));
    }

    /// Increments the named event counter by one.
    pub fn bump(&mut self, name: &str) {
        self.count(name, 1);
    }

    /// Named event counters, in first-recorded order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// The value of one counter (zero when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(m, _)| m == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Marks a queueing edge on an open or closed span: the work inside
    /// `id` could not start before `ready_at` because an earlier request
    /// held the underlying resource. The critical-path analyzer splits
    /// the span's attributed time at this instant into queueing vs.
    /// service; the Perfetto dump carries it as an argument.
    ///
    /// Edges on spans past the retention bound are dropped (there is no
    /// span record to anchor them to); a second edge on the same span
    /// replaces the first (the latest resource wait wins).
    pub fn queue_edge(&mut self, id: SpanId, ready_at: Ns) {
        if id.as_index() >= self.spans.len() {
            return;
        }
        if let Some(e) = self.queue_edges.iter_mut().find(|(s, _)| *s == id) {
            e.1 = ready_at;
            return;
        }
        self.queue_edges.push((id, ready_at));
    }

    /// [`Recorder::queue_edge`] plus the utilization-plane resource the
    /// span waited on — the join key the bottleneck-attribution pass uses
    /// (see [`crate::util::blame`]). The label is recorded only while the
    /// plane is enabled (same determinism contract as the plane itself);
    /// a second labeled edge on the same span replaces the label too.
    pub fn queue_edge_labeled(&mut self, id: SpanId, ready_at: Ns, resource: &str) {
        self.queue_edge(id, ready_at);
        if !self.util.enabled() || id.as_index() >= self.spans.len() {
            return;
        }
        if let Some(e) = self.edge_resources.iter_mut().find(|(s, _)| *s == id) {
            resource.clone_into(&mut e.1);
            return;
        }
        self.edge_resources.push((id, resource.to_string()));
    }

    /// Recorded queueing edges, in insertion order.
    pub fn queue_edges(&self) -> &[(SpanId, Ns)] {
        &self.queue_edges
    }

    /// Labeled queue edges `(span, resource)`, in insertion order.
    pub fn edge_resources(&self) -> &[(SpanId, String)] {
        &self.edge_resources
    }

    /// Records a zero-duration event (fault injection, epoch bump,
    /// failover decision) at `at`, exported as a Perfetto instant.
    pub fn instant(&mut self, name: &str, at: Ns) {
        self.instants.push((name.to_string(), at));
    }

    /// Recorded instants `(name, at)`, in insertion order.
    pub fn instants(&self) -> &[(String, Ns)] {
        &self.instants
    }

    /// Turns the utilization plane on; claims and depth samples before
    /// this call are dropped, after it they accumulate.
    pub fn enable_util(&mut self) {
        self.util.enable();
    }

    /// Whether the utilization plane is sampling.
    pub fn util_enabled(&self) -> bool {
        self.util.enabled()
    }

    /// The utilization plane (read side).
    pub fn util(&self) -> &UtilPlane {
        &self.util
    }

    /// Claims `[start, end)` busy on a utilization-plane resource. No-op
    /// while the plane is disabled; zero-duration claims are ignored and
    /// overlapping claims merge deterministically.
    pub fn claim_busy(&mut self, resource: &str, start: Ns, end: Ns) {
        self.util.claim(resource, start, end);
    }

    /// Appends a queue-depth / occupancy step sample on a utilization-
    /// plane resource. No-op while the plane is disabled.
    pub fn depth_sample(&mut self, resource: &str, at: Ns, value: u64) {
        self.util.depth(resource, at, value);
    }

    /// The queueing edge on one span, if any.
    pub fn queue_edge_of(&self, id: SpanId) -> Option<Ns> {
        self.queue_edges
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, t)| *t)
    }

    /// The retained span tree (insertion order; parents precede children).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Per-hop breakdown rows, in first-recorded order.
    pub fn hop_rows(&self) -> Vec<HopRow> {
        self.hops
            .iter()
            .map(|(component, name, h, total, energy)| HopRow {
                component: *component,
                name,
                count: h.count(),
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
                total: *total,
                energy: *energy,
            })
            .collect()
    }

    /// Per-service-op latency histograms, in first-recorded order.
    pub fn op_histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.ops.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Named gauges, in first-recorded order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &Gauge)> {
        self.gauges.iter().map(|(n, g)| (*n, g))
    }

    /// Total energy attributed to `component`: the sum over its hops.
    pub fn component_energy(&self, component: Component) -> Pj {
        self.hops
            .iter()
            .filter(|(c, ..)| *c == component)
            .map(|(.., e)| *e)
            .sum()
    }

    /// Total energy across all components.
    pub fn total_energy(&self) -> Pj {
        Component::ALL
            .iter()
            .map(|c| self.component_energy(*c))
            .sum()
    }

    /// Merges another recorder's aggregates into this one (span trees are
    /// concatenated up to the retention bound; open stacks must be empty).
    ///
    /// # Panics
    ///
    /// Panics if either recorder still has open spans.
    pub fn merge(&mut self, other: &Recorder) {
        assert!(
            self.stack.is_empty() && other.stack.is_empty(),
            "merge requires fully closed span trees"
        );
        let base = self.spans.len() as u32;
        for s in &other.spans {
            if self.spans.len() >= MAX_RETAINED_SPANS {
                break;
            }
            let mut s = s.clone();
            s.parent = s.parent.map(|SpanId(p)| SpanId(p + base));
            self.spans.push(s);
        }
        self.opened += other.opened;
        for (SpanId(s), ready) in &other.queue_edges {
            // Only edges whose rebased span survived the retention bound.
            if ((*s + base) as usize) < self.spans.len() {
                self.queue_edges.push((SpanId(s + base), *ready));
            }
        }
        for (SpanId(s), resource) in &other.edge_resources {
            if ((*s + base) as usize) < self.spans.len() {
                self.edge_resources
                    .push((SpanId(s + base), resource.clone()));
            }
        }
        self.instants
            .extend(other.instants.iter().map(|(n, t)| (n.clone(), *t)));
        self.util.merge(&other.util);
        for (c, n, h, t, e) in &other.hops {
            let row = self.hop_entry(*c, n);
            row.2.merge(h);
            row.3 += *t;
            row.4 += *e;
        }
        for (n, h) in &other.ops {
            if let Some(i) = self.ops.iter().position(|(m, _)| m == n) {
                self.ops[i].1.merge(h);
            } else {
                self.ops.push((n.clone(), h.clone()));
            }
        }
        for (n, g) in &other.gauges {
            if let Some(i) = self.gauges.iter().position(|(m, _)| m == n) {
                let mine = &mut self.gauges[i].1;
                if g.samples > 0 {
                    if mine.samples == 0 {
                        *mine = g.clone();
                    } else {
                        mine.min = mine.min.min(g.min);
                        mine.max = mine.max.max(g.max);
                        mine.sum += g.sum;
                        mine.samples += g.samples;
                        mine.last = g.last;
                    }
                }
            } else {
                self.gauges.push((n, g.clone()));
            }
        }
        for (n, v) in &other.counters {
            self.count(n, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut r = Recorder::new("t");
        let outer = r.open(Component::Service, "kv.get", Ns(0));
        let inner = r.open(Component::Nvme, "flash:read", Ns(10));
        r.close(inner, Ns(110));
        r.close(outer, Ns(200));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].duration(), Ns(100));
        assert_eq!(r.open_spans(), 0);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn misnested_close_panics() {
        let mut r = Recorder::new("t");
        let a = r.open(Component::Net, "a", Ns(0));
        let _b = r.open(Component::Net, "b", Ns(1));
        r.close(a, Ns(2));
    }

    #[test]
    fn hop_histograms_aggregate_per_name() {
        let mut r = Recorder::new("t");
        r.record_hop(Component::Net, "udp:req", Ns(0), Ns(100));
        r.record_hop(Component::Net, "udp:req", Ns(100), Ns(400));
        r.record_hop(Component::Pcie, "dma", Ns(0), Ns(50));
        let rows = r.hop_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total, Ns(400));
        assert_eq!(rows[1].count, 1);
        // 9 W x 50 ns = 450,000 pJ.
        assert_eq!(rows[1].energy, Pj(9_000 * 50));
    }

    #[test]
    fn hops_keep_aggregating_past_the_retention_bound() {
        let mut r = Recorder::new("t");
        for i in 0..70_000u64 {
            r.record_hop(Component::Pcie, "dma", Ns(i), Ns(i + 1));
        }
        assert_eq!(r.spans().len(), MAX_RETAINED_SPANS);
        let rows = r.hop_rows();
        assert_eq!(rows[0].count, 70_000);
        assert_eq!(rows[0].total, Ns(70_000));
        assert_eq!(rows[0].energy, Pj(9_000 * 70_000));
        // Past the bound, nested spans still get distinct ids.
        let outer = r.open(Component::Service, "kv.get", Ns(0));
        let inner = r.open(Component::Nvme, "flash:read", Ns(1));
        assert_ne!(outer, inner);
        r.close(inner, Ns(2));
        r.close(outer, Ns(3));
        assert_eq!(r.open_spans(), 0);
    }

    #[test]
    fn gauges_track_min_max_mean_last() {
        let mut r = Recorder::new("t");
        r.gauge("sq_depth", 3);
        r.gauge("sq_depth", 9);
        r.gauge("sq_depth", 6);
        let (_, g) = r.gauges().next().expect("gauge");
        assert_eq!(g.min(), 3);
        assert_eq!(g.max(), 9);
        assert_eq!(g.last(), 6);
        assert_eq!(g.mean(), 6.0);
        assert_eq!(g.samples(), 3);
    }

    #[test]
    fn merge_combines_hops_ops_and_energy() {
        let mut a = Recorder::new("a");
        a.record_hop(Component::Net, "udp:req", Ns(0), Ns(100));
        a.record_op("kv.get", Ns(500));
        let mut b = Recorder::new("b");
        b.record_hop(Component::Net, "udp:req", Ns(0), Ns(300));
        b.record_hop(Component::Nvme, "flash:read", Ns(0), Ns(40));
        b.record_op("kv.get", Ns(700));
        b.record_op("kv.put", Ns(900));
        b.gauge("depth", 4);
        a.merge(&b);
        let rows = a.hop_rows();
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total, Ns(400));
        assert_eq!(rows.len(), 2);
        let ops: Vec<_> = a.op_histograms().collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].1.count(), 2);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(
            a.component_energy(Component::Net),
            power::active_power(Component::Net).energy_over(Ns(400))
        );
    }

    #[test]
    fn queue_edges_attach_and_rebase_on_merge() {
        let mut a = Recorder::new("a");
        let s = a.open(Component::Pcie, "pcie-x4-0", Ns(100));
        a.queue_edge(s, Ns(140));
        a.queue_edge(s, Ns(150)); // latest wait wins
        a.close(s, Ns(200));
        assert_eq!(a.queue_edge_of(s), Some(Ns(150)));
        let mut b = Recorder::new("b");
        let sb = b.open(Component::Nvme, "nvme:read", Ns(0));
        b.queue_edge(sb, Ns(30));
        b.close(sb, Ns(90));
        a.merge(&b);
        // The merged edge re-anchors to the rebased span id.
        assert_eq!(a.queue_edge_of(SpanId::index(1)), Some(Ns(30)));
        assert_eq!(a.queue_edges().len(), 2);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Recorder::new("a");
        a.bump("nvmeof:retries");
        a.count("nvmeof:retries", 2);
        a.bump("nvme:media_error");
        assert_eq!(a.counter("nvmeof:retries"), 3);
        assert_eq!(a.counter("never"), 0);
        let mut b = Recorder::new("b");
        b.count("nvmeof:retries", 4);
        b.bump("nvmeof:gave_up");
        a.merge(&b);
        assert_eq!(a.counter("nvmeof:retries"), 7);
        assert_eq!(a.counter("nvmeof:gave_up"), 1);
        assert_eq!(a.counters().count(), 3);
    }

    #[test]
    fn edge_labels_require_an_enabled_util_plane() {
        let mut r = Recorder::new("gated");
        let s = r.open(Component::Pcie, "xfer", Ns(0));
        r.queue_edge_labeled(s, Ns(40), "pcie:x4");
        r.close(s, Ns(100));
        // Plane disabled: the edge lands, the label does not.
        assert_eq!(r.queue_edge_of(s), Some(Ns(40)));
        assert!(r.edge_resources().is_empty());
        let mut r = Recorder::new("on");
        r.enable_util();
        let s = r.open(Component::Pcie, "xfer", Ns(0));
        r.queue_edge_labeled(s, Ns(40), "pcie:x4");
        r.queue_edge_labeled(s, Ns(50), "pcie:x8"); // latest label wins
        r.close(s, Ns(100));
        assert_eq!(r.edge_resources(), &[(s, "pcie:x8".to_string())]);
        assert_eq!(r.queue_edge_of(s), Some(Ns(50)));
    }

    #[test]
    fn instants_and_util_survive_merge() {
        let mut a = Recorder::new("a");
        a.enable_util();
        a.claim_busy("net:uplink:0", Ns(0), Ns(10));
        a.instant("fault:net:drop", Ns(5));
        let mut b = Recorder::new("b");
        b.enable_util();
        b.claim_busy("net:uplink:0", Ns(5), Ns(20));
        b.instant("cluster:epoch_bump", Ns(9));
        let sb = b.open(Component::Net, "send", Ns(0));
        b.queue_edge_labeled(sb, Ns(3), "net:uplink:0");
        b.close(sb, Ns(20));
        a.merge(&b);
        assert_eq!(a.instants().len(), 2);
        assert_eq!(
            a.util().resource("net:uplink:0").unwrap().intervals(),
            &[(0, 20)]
        );
        // The labeled edge re-anchored to the rebased span id.
        assert_eq!(a.edge_resources()[0].0, SpanId::index(0));
        assert_eq!(a.edge_resources()[0].1, "net:uplink:0");
    }

    #[test]
    fn ops_record_latency_distributions() {
        let mut r = Recorder::new("t");
        for i in 1..=100u64 {
            r.record_op("tree.lookup", Ns(i * 10));
        }
        let (name, h) = r.op_histograms().next().expect("op");
        assert_eq!(name, "tree.lookup");
        assert_eq!(h.count(), 100);
        assert!(h.percentile(50.0) >= 400);
    }
}
