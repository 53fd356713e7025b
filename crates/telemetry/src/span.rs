//! Spans: one timed hop on the request path.

use hyperion_sim::time::Ns;

/// The hardware component a span attributes to — the hops of the
/// Figure-2 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Component {
    /// The 100 GbE wire and transport endpoints.
    Net,
    /// The reconfigurable fabric: slots, AXIS switch, pipelines.
    Fabric,
    /// The FPGA-hosted root complex and its links.
    Pcie,
    /// NVMe controllers and flash channels.
    Nvme,
    /// The service layer itself (dispatch + structure work on the DPU).
    Service,
    /// A CPU-centric host on the baseline side of a comparison.
    Host,
    /// Cluster availability machinery: heartbeats, failure detection,
    /// epoch changes, and replica repair traffic.
    Cluster,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 7] = [
        Component::Net,
        Component::Fabric,
        Component::Pcie,
        Component::Nvme,
        Component::Service,
        Component::Host,
        Component::Cluster,
    ];

    /// Short stable label used in dumps and tables.
    pub fn name(self) -> &'static str {
        match self {
            Component::Net => "net",
            Component::Fabric => "fabric",
            Component::Pcie => "pcie",
            Component::Nvme => "nvme",
            Component::Service => "service",
            Component::Host => "host",
            Component::Cluster => "cluster",
        }
    }
}

/// Handle to an open span (index into the recorder's span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// The id addressing the `i`-th recorded span (the order
    /// `Recorder::spans` returns them, and the `id` field of the JSON
    /// dump).
    pub fn index(i: u32) -> SpanId {
        SpanId(i)
    }

    /// This id's position in the recorder's span table.
    pub fn as_index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded hop: a named interval on the virtual clock, attributed to
/// a component, nested under the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Hop label (e.g. `"udp:request"`, `"dma:direct"`, `"kv.put"`).
    pub name: &'static str,
    /// Component the interval attributes to.
    pub component: Component,
    /// Start instant.
    pub start: Ns,
    /// End instant (`None` while open).
    pub end: Option<Ns>,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration of a closed span; `Ns::ZERO` while still open.
    pub fn duration(&self) -> Ns {
        match self.end {
            Some(end) => end.saturating_sub(self.start),
            None => Ns::ZERO,
        }
    }
}
