//! Host-clock spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! Workloads are generic over [`Probe`]. The untraced run uses [`Off`],
//! whose methods compile to nothing, so end-to-end numbers carry no
//! tracing cost. The traced run uses [`Spans`]: every `open`/`close` pair
//! is one span with a name, start, end and parent. Spans nest strictly
//! (the benchmark is single-threaded and calls one layer at a time), so a
//! stack gives each span its parent, and the root span of each simulated
//! op gives every span under it a shared op id.

use std::io::Write;
use std::time::Instant;

/// Span recording seen by the workloads.
pub trait Probe {
    /// Whether spans are recorded; workloads skip trace-only glue (such as
    /// classifying a steer by counter deltas) when this is false.
    const ENABLED: bool;
    /// Opens a span; its parent is the innermost open span, if any.
    fn open(&mut self);
    /// Closes the innermost open span, then names it with `name()`, so
    /// working out the name is not timed as part of the span.
    fn close_with(&mut self, name: impl FnOnce() -> &'static str);
    /// Closes the innermost open span and names it.
    #[inline(always)]
    fn close(&mut self, name: &'static str) {
        self.close_with(|| name);
    }
}

/// Tracing off.
#[derive(Debug)]
pub struct Off;

impl Probe for Off {
    const ENABLED: bool = false;
    #[inline(always)]
    fn open(&mut self) {}
    #[inline(always)]
    fn close_with(&mut self, _name: impl FnOnce() -> &'static str) {}
}

/// Spans kept for the trace file; later spans only feed the statistics.
const KEPT_SPANS: usize = 300_000;

/// Duration samples kept per span name (the statistics are medians and
/// tail percentiles over repeated, identical episodes).
const SAMPLES_PER_NAME: usize = 2_000_000;

#[derive(Debug)]
struct OpenSpan {
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// One closed span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    /// Id of the op's root span; shared by every span of one op.
    op: u32,
    id: u32,
    /// The enclosing span, `None` for an op's root.
    parent: Option<u32>,
    /// Layer-boundary name, e.g. `rpc.call`.
    name: &'static str,
    /// Host nanoseconds since the probe was created.
    start_ns: u64,
    end_ns: u64,
}

/// Tracing on: spans in memory, per-name duration samples, and each op's
/// self time (its root span minus the time covered by its children).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    stack: Vec<OpenSpan>,
    next_id: u32,
    op: u32,
    kept: Vec<SpanRecord>,
    samples: Vec<(&'static str, Vec<u32>)>,
    self_ns: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            stack: Vec::new(),
            next_id: 0,
            op: 0,
            kept: Vec::new(),
            samples: Vec::new(),
            self_ns: Vec::new(),
        }
    }
}

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Probe for Spans {
    const ENABLED: bool = true;

    fn open(&mut self) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if self.stack.is_empty() {
            self.op = id;
        }
        self.stack.push(OpenSpan {
            id,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            child_ns: 0,
        });
    }

    fn close_with(&mut self, name: impl FnOnce() -> &'static str) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let name = name();
        let span = self.stack.pop().expect("close matches an open span");
        let dur = end_ns - span.start_ns;
        let samples = match self.samples.iter().position(|(n, _)| *n == name) {
            Some(i) => &mut self.samples[i].1,
            None => {
                self.samples.push((name, Vec::new()));
                &mut self.samples.last_mut().expect("just pushed").1
            }
        };
        if samples.len() < SAMPLES_PER_NAME {
            samples.push(clamp_ns(dur));
        }
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                Some(p.id)
            }
            None => {
                if self.self_ns.len() < SAMPLES_PER_NAME {
                    self.self_ns.push(clamp_ns(dur - span.child_ns));
                }
                None
            }
        };
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(SpanRecord {
                op: self.op,
                id: span.id,
                parent,
                name,
                start_ns: span.start_ns,
                end_ns,
            });
        }
    }
}

impl Spans {
    /// Duration samples (ns) of every closed span called `name`, in order.
    pub(crate) fn samples(&self, name: &str) -> &[u32] {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.as_slice())
            .unwrap_or(&[])
    }

    /// Self time (ns) of every op: root span minus its children.
    pub(crate) fn op_self_ns(&self) -> &[u32] {
        &self.self_ns
    }

    /// Writes the kept spans as tab-separated values:
    /// `op span parent name start_ns end_ns` (`-` for a root's parent).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.kept {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_op_and_self_time_excludes_children() {
        let mut p = Spans::default();
        p.open();
        p.open();
        p.close("child");
        p.open();
        p.close("child");
        p.close("op.root");
        p.open();
        p.close("op.root");
        let kept = &p.kept;
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].parent, Some(kept[2].id));
        assert_eq!(kept[1].parent, Some(kept[2].id));
        assert!(kept[..3].iter().all(|s| s.op == kept[2].id));
        assert_eq!(kept[3].op, kept[3].id);
        assert_eq!(p.samples("child").len(), 2);
        let root = (kept[2].end_ns - kept[2].start_ns) as u32;
        let children = p.samples("child").iter().sum::<u32>();
        assert_eq!(p.op_self_ns()[0], root - children);
        assert_eq!(p.op_self_ns().len(), 2);
    }
}
