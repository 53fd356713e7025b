//! `telemetry::util` — the utilization plane: deterministic, virtual-clock
//! busy/occupancy accounting and bottleneck attribution.
//!
//! The span tree answers "where did *this request's* nanoseconds go"; this
//! module answers the fleet-level questions next to it: *which resource
//! saturated first*, and *which resource gated the critical path*. Two
//! kinds of samples feed it, both opt-in via [`crate::Recorder::enable_util`]
//! and both pure functions of the simulated event sequence (no wall clock,
//! no RNG, no map iteration order):
//!
//! * **busy intervals** — an instrumented layer claims `[start, end)` on a
//!   named resource ("pcie:pcie-x4-0", "net:downlink:0", "nvme:ch3",
//!   "fabric:icap") whenever the underlying `sim::Resource` serves work.
//!   Claims are kept as a coalesced interval union, so overlapping claims
//!   on one resource merge deterministically and the busy fraction can
//!   never exceed 1. Zero-duration claims are ignored.
//! * **depth samples** — a step timeline of queue depth / slot occupancy,
//!   appended in virtual-time order.
//!
//! The [`blame`] pass joins these intervals with the critical-path queue
//! edges ([`crate::Recorder::queue_edge_labeled`]): a span that waited on a
//! labeled resource contributes its queued window, intersected with the
//! resource's busy intervals, and a deterministic sweep assigns every
//! gated instant to exactly one resource — so the per-resource blamed
//! fractions always sum to ≤ 1.0 of wall-clock.
//!
//! When the plane is disabled (the default) every entry point is a no-op
//! that allocates nothing and records nothing, so the gated baseline
//! dumps stay byte-identical.

use hyperion_sim::time::Ns;

use crate::recorder::Recorder;

/// Busy/occupancy accounting for one named resource.
#[derive(Debug, Clone)]
pub struct ResourceUtil {
    id: String,
    /// Coalesced busy intervals `[start, end)`, sorted, non-overlapping.
    busy: Vec<(u64, u64)>,
    /// Number of `claim` calls folded into `busy` (merged claims count).
    claims: u64,
    /// Step samples `(at, value)` of queue depth / occupancy, in sample
    /// order (virtual-time order by construction at the call sites).
    depth: Vec<(Ns, u64)>,
}

impl ResourceUtil {
    fn new(id: &str) -> ResourceUtil {
        ResourceUtil {
            id: id.to_string(),
            busy: Vec::new(),
            claims: 0,
            depth: Vec::new(),
        }
    }

    /// The resource id (`component:instance`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of busy claims recorded (including ones merged away).
    pub fn claims(&self) -> u64 {
        self.claims
    }

    /// The coalesced busy intervals, sorted and non-overlapping.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.busy
    }

    /// Total busy time (the measure of the interval union).
    pub fn busy_ns(&self) -> Ns {
        Ns(self.busy.iter().map(|(s, e)| e - s).sum())
    }

    /// Busy fraction of a horizon (0 when the horizon is empty).
    pub fn busy_fraction(&self, horizon: Ns) -> f64 {
        if horizon == Ns::ZERO {
            return 0.0;
        }
        self.busy_ns().0 as f64 / horizon.0 as f64
    }

    /// Depth samples `(at, value)` in sample order.
    pub fn depth_samples(&self) -> &[(Ns, u64)] {
        &self.depth
    }

    /// Largest depth sample (0 when none were taken).
    pub fn peak_depth(&self) -> u64 {
        self.depth.iter().map(|(_, v)| *v).max().unwrap_or(0)
    }

    /// Claims `[start, end)` busy, merging into the interval union.
    fn claim(&mut self, start: Ns, end: Ns) {
        if end <= start {
            // Zero-duration (or inverted) claims carry no occupancy.
            return;
        }
        self.claims += 1;
        let (mut s, mut e) = (start.0, end.0);
        // First interval whose end reaches the new start: everything
        // before it is strictly to the left. Touching intervals coalesce
        // too — busy is busy, and fewer intervals keep dumps small.
        let i = self.busy.partition_point(|&(_, ie)| ie < s);
        let mut j = i;
        while j < self.busy.len() && self.busy[j].0 <= e {
            s = s.min(self.busy[j].0);
            e = e.max(self.busy[j].1);
            j += 1;
        }
        self.busy.splice(i..j, std::iter::once((s, e)));
    }
}

/// The per-run utilization plane: a set of [`ResourceUtil`]s, disabled by
/// default so uninstrumented runs pay nothing and dump nothing.
#[derive(Debug, Clone, Default)]
pub struct UtilPlane {
    enabled: bool,
    /// Insertion-ordered; the JSON dump sorts by id.
    resources: Vec<ResourceUtil>,
}

impl UtilPlane {
    /// Creates a disabled (empty, zero-cost) plane.
    pub fn new() -> UtilPlane {
        UtilPlane::default()
    }

    /// Turns sampling on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// True when no resource recorded anything (the dump elides the plane).
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// All tracked resources, in first-claim order.
    pub fn resources(&self) -> &[ResourceUtil] {
        &self.resources
    }

    /// One resource by id.
    pub fn resource(&self, id: &str) -> Option<&ResourceUtil> {
        self.resources.iter().find(|r| r.id == id)
    }

    fn entry(&mut self, id: &str) -> &mut ResourceUtil {
        if let Some(i) = self.resources.iter().position(|r| r.id == id) {
            return &mut self.resources[i];
        }
        self.resources.push(ResourceUtil::new(id));
        self.resources.last_mut().expect("just pushed")
    }

    /// Claims `[start, end)` busy on `id`. No-op when disabled or when the
    /// interval is empty; overlapping claims merge deterministically.
    pub fn claim(&mut self, id: &str, start: Ns, end: Ns) {
        if !self.enabled || end <= start {
            return;
        }
        self.entry(id).claim(start, end);
    }

    /// Appends a depth/occupancy step sample on `id`. No-op when disabled.
    pub fn depth(&mut self, id: &str, at: Ns, value: u64) {
        if !self.enabled {
            return;
        }
        self.entry(id).depth.push((at, value));
    }

    /// Merges another plane's samples into this one.
    pub fn merge(&mut self, other: &UtilPlane) {
        self.enabled |= other.enabled;
        for r in &other.resources {
            let mine = self.entry(&r.id);
            for &(s, e) in &r.busy {
                mine.claim(Ns(s), Ns(e));
            }
            // `claim` counted each merged interval once; restore the
            // original claim count so merged planes report call totals.
            mine.claims = mine.claims - r.busy.len() as u64 + r.claims;
            mine.depth.extend(r.depth.iter().copied());
        }
    }
}

/// One row of the bottleneck blame table.
#[derive(Debug, Clone)]
pub struct BlameRow {
    /// Resource id (`component:instance`).
    pub resource: String,
    /// Total busy time of the resource over the run.
    pub busy: Ns,
    /// Wall-clock during which this resource gated the critical path.
    pub blamed: Ns,
    /// `blamed` as a fraction of wall-clock.
    pub share: f64,
}

/// The bottleneck-attribution result for one recorder.
#[derive(Debug, Clone)]
pub struct BlameReport {
    /// Run extent: earliest span start.
    pub start: Ns,
    /// Run extent: latest span end.
    pub end: Ns,
    /// Per-resource rows, sorted by blamed time (desc), then id.
    pub rows: Vec<BlameRow>,
}

impl BlameReport {
    /// Wall-clock covered by the run (span extent).
    pub fn wall(&self) -> Ns {
        Ns(self.end.0.saturating_sub(self.start.0))
    }

    /// Sum of the blamed times (always ≤ wall by construction).
    pub fn blamed_total(&self) -> Ns {
        Ns(self.rows.iter().map(|r| r.blamed.0).sum())
    }

    /// The most-blamed resource, if anything was blamed.
    pub fn top(&self) -> Option<&BlameRow> {
        self.rows.first().filter(|r| r.blamed > Ns::ZERO)
    }
}

/// Joins the utilization plane with the critical-path queue edges to
/// attribute wall-clock to the resources that gated it.
///
/// For every closed span carrying a labeled queue edge, the queued window
/// `[span.start, min(ready, span.end))` is intersected with the labeled
/// resource's busy intervals (the window where the wait was demonstrably
/// contention, not protocol latency); when the plane tracked nothing for
/// that resource the whole queued window counts. A deterministic sweep
/// then assigns each gated instant to exactly one resource — the segment
/// that started earliest (ties: earliest end, then lexicographic id) —
/// so the per-resource fractions sum to ≤ 1.0 of wall-clock.
pub fn blame(rec: &Recorder) -> BlameReport {
    let closed = rec.spans().iter().filter_map(|s| s.end.map(|e| (s, e)));
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (s, e) in closed.clone() {
        lo = lo.min(s.start.0);
        hi = hi.max(e.0);
    }
    if lo > hi {
        return BlameReport {
            start: Ns::ZERO,
            end: Ns::ZERO,
            rows: Vec::new(),
        };
    }

    // Candidate segments: (start, end, resource).
    let mut segments: Vec<(u64, u64, &str)> = Vec::new();
    for (id, resource) in rec.edge_resources() {
        let Some(span) = rec.spans().get(id.as_index()) else {
            continue;
        };
        let Some(end) = span.end else { continue };
        let Some(ready) = rec.queue_edge_of(*id) else {
            continue;
        };
        let q_lo = span.start.0;
        let q_hi = ready.0.min(end.0);
        if q_hi <= q_lo {
            continue;
        }
        match rec.util().resource(resource) {
            Some(r) if !r.intervals().is_empty() => {
                for &(s, e) in r.intervals() {
                    let s = s.max(q_lo);
                    let e = e.min(q_hi);
                    if e > s {
                        segments.push((s, e, resource.as_str()));
                    }
                }
            }
            // Untracked resource: the whole queued window is its wait.
            _ => segments.push((q_lo, q_hi, resource.as_str())),
        }
    }
    segments.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));

    // Elementary-interval sweep: each instant goes to the first covering
    // segment in the sorted order above.
    let mut bounds: Vec<u64> = segments.iter().flat_map(|&(s, e, _)| [s, e]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut blamed: Vec<(&str, u64)> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let Some(&(_, _, res)) = segments.iter().find(|&&(s, e, _)| s <= a && e >= b) else {
            continue;
        };
        match blamed.iter_mut().find(|(r, _)| *r == res) {
            Some(row) => row.1 += b - a,
            None => blamed.push((res, b - a)),
        }
    }

    // One row per blamed resource plus every tracked-but-unblamed one.
    let mut rows: Vec<BlameRow> = Vec::new();
    let wall = hi - lo;
    for r in rec.util().resources() {
        rows.push(BlameRow {
            resource: r.id().to_string(),
            busy: r.busy_ns(),
            blamed: Ns::ZERO,
            share: 0.0,
        });
    }
    for (res, ns) in blamed {
        match rows.iter_mut().find(|r| r.resource == res) {
            Some(row) => row.blamed = Ns(ns),
            None => rows.push(BlameRow {
                resource: res.to_string(),
                busy: Ns::ZERO,
                blamed: Ns(ns),
                share: 0.0,
            }),
        }
    }
    for row in &mut rows {
        row.share = if wall == 0 {
            0.0
        } else {
            row.blamed.0 as f64 / wall as f64
        };
    }
    rows.sort_by(|a, b| b.blamed.cmp(&a.blamed).then(a.resource.cmp(&b.resource)));
    BlameReport {
        start: Ns(lo),
        end: Ns(hi),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Component;

    #[test]
    fn disabled_plane_records_nothing() {
        let mut p = UtilPlane::new();
        p.claim("net:uplink:0", Ns(0), Ns(100));
        p.depth("net:uplink:0", Ns(0), 3);
        assert!(p.is_empty());
        assert!(!p.enabled());
    }

    #[test]
    fn zero_duration_claims_are_ignored() {
        let mut p = UtilPlane::new();
        p.enable();
        p.claim("r", Ns(10), Ns(10));
        p.claim("r", Ns(10), Ns(5));
        // Nothing to account: no entry is even created.
        assert!(p.is_empty());
        // A real claim afterwards records normally.
        p.claim("r", Ns(10), Ns(20));
        let r = p.resource("r").expect("entry");
        assert_eq!(r.claims(), 1);
        assert_eq!(r.busy_ns(), Ns(10));
    }

    #[test]
    fn overlapping_claims_merge_deterministically() {
        let mut p = UtilPlane::new();
        p.enable();
        p.claim("r", Ns(10), Ns(20));
        p.claim("r", Ns(15), Ns(30)); // overlap
        p.claim("r", Ns(30), Ns(40)); // touching coalesces
        p.claim("r", Ns(50), Ns(60)); // disjoint
        p.claim("r", Ns(0), Ns(100)); // swallows everything
        let r = p.resource("r").expect("r");
        assert_eq!(r.intervals(), &[(0, 100)]);
        assert_eq!(r.claims(), 5);
        assert_eq!(r.busy_ns(), Ns(100));
        // Same claims in a different order produce the same union.
        let mut q = UtilPlane::new();
        q.enable();
        q.claim("r", Ns(0), Ns(100));
        q.claim("r", Ns(50), Ns(60));
        q.claim("r", Ns(30), Ns(40));
        q.claim("r", Ns(15), Ns(30));
        q.claim("r", Ns(10), Ns(20));
        assert_eq!(q.resource("r").expect("r").intervals(), r.intervals());
    }

    #[test]
    fn busy_fraction_of_a_horizon() {
        let mut p = UtilPlane::new();
        p.enable();
        p.claim("r", Ns(0), Ns(50));
        p.claim("r", Ns(100), Ns(150));
        let r = p.resource("r").expect("r");
        assert_eq!(r.busy_fraction(Ns(200)), 0.5);
        assert_eq!(r.busy_fraction(Ns::ZERO), 0.0);
    }

    #[test]
    fn depth_timeline_tracks_peak() {
        let mut p = UtilPlane::new();
        p.enable();
        p.depth("q", Ns(0), 1);
        p.depth("q", Ns(10), 4);
        p.depth("q", Ns(20), 2);
        let r = p.resource("q").expect("q");
        assert_eq!(r.depth_samples().len(), 3);
        assert_eq!(r.peak_depth(), 4);
    }

    #[test]
    fn merge_unions_intervals_and_keeps_claim_totals() {
        let mut a = UtilPlane::new();
        a.enable();
        a.claim("r", Ns(0), Ns(10));
        a.claim("r", Ns(20), Ns(30));
        let mut b = UtilPlane::new();
        b.enable();
        b.claim("r", Ns(5), Ns(25));
        b.claim("s", Ns(0), Ns(1));
        b.depth("r", Ns(7), 9);
        a.merge(&b);
        let r = a.resource("r").expect("r");
        assert_eq!(r.intervals(), &[(0, 30)]);
        assert_eq!(r.claims(), 3);
        assert_eq!(r.peak_depth(), 9);
        assert_eq!(a.resource("s").expect("s").busy_ns(), Ns(1));
    }

    #[test]
    fn blame_assigns_each_instant_to_one_resource() {
        let mut rec = Recorder::new("blame");
        rec.enable_util();
        // Two resources busy over overlapping windows.
        rec.claim_busy("pcie:x4", Ns(0), Ns(100));
        rec.claim_busy("nvme:ch0", Ns(50), Ns(200));
        // Span A queued on pcie for [0, 80).
        let a = rec.open(Component::Pcie, "xfer", Ns(0));
        rec.queue_edge_labeled(a, Ns(80), "pcie:x4");
        rec.close(a, Ns(120));
        // Span B queued on nvme for [60, 150).
        let b = rec.open(Component::Nvme, "read", Ns(60));
        rec.queue_edge_labeled(b, Ns(150), "nvme:ch0");
        rec.close(b, Ns(200));
        let report = blame(&rec);
        assert_eq!(report.wall(), Ns(200));
        // pcie gets [0,80); nvme gets only [80,150) — the overlap went to
        // the earlier-starting segment.
        let pcie = report
            .rows
            .iter()
            .find(|r| r.resource == "pcie:x4")
            .unwrap();
        let nvme = report
            .rows
            .iter()
            .find(|r| r.resource == "nvme:ch0")
            .unwrap();
        assert_eq!(pcie.blamed, Ns(80));
        assert_eq!(nvme.blamed, Ns(70));
        assert!(report.blamed_total() <= report.wall());
        assert_eq!(report.top().unwrap().resource, "pcie:x4");
    }

    #[test]
    fn blame_fractions_never_exceed_wall() {
        let mut rec = Recorder::new("cap");
        rec.enable_util();
        rec.claim_busy("r:a", Ns(0), Ns(1_000));
        rec.claim_busy("r:b", Ns(0), Ns(1_000));
        for i in 0..10u64 {
            let s = rec.open(Component::Net, "op", Ns(i * 100));
            let res = if i % 2 == 0 { "r:a" } else { "r:b" };
            rec.queue_edge_labeled(s, Ns(i * 100 + 90), res);
            rec.close(s, Ns(i * 100 + 100));
        }
        let report = blame(&rec);
        let total: f64 = report.rows.iter().map(|r| r.share).sum();
        assert!(total <= 1.0 + 1e-12, "shares sum to {total}");
    }

    #[test]
    fn blame_on_untracked_resource_uses_the_queued_window() {
        let mut rec = Recorder::new("untracked");
        rec.enable_util();
        let s = rec.open(Component::Fabric, "icap", Ns(10));
        rec.queue_edge_labeled(s, Ns(60), "fabric:icap");
        rec.close(s, Ns(100));
        let report = blame(&rec);
        let row = report
            .rows
            .iter()
            .find(|r| r.resource == "fabric:icap")
            .unwrap();
        assert_eq!(row.blamed, Ns(50));
    }

    #[test]
    fn blame_of_empty_recorder_is_empty() {
        let rec = Recorder::new("empty");
        let report = blame(&rec);
        assert_eq!(report.wall(), Ns::ZERO);
        assert!(report.rows.is_empty());
        assert!(report.top().is_none());
    }
}
