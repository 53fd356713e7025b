//! "Where did the nanoseconds go": renders a [`Recorder`]'s aggregates
//! into report [`Table`]s.
//!
//! The instrumented experiments (E1, E4, E6, E7, E13, E14, E15) return,
//! beside their tables, the recorder of one configuration those tables
//! run (see [`crate::experiments::REGISTRY`]); the `report` binary turns
//! each one into tables — per-hop latency/energy, per-op latency,
//! per-component energy share, and, where recorded, gauges, counters and
//! the critical path — via [`tables`]. Row order is deterministic: hops sort
//! by (component, name), ops and gauges keep first-recorded order, and
//! the energy table follows [`Component::ALL`].

use hyperion_telemetry::{Component, Recorder};

use crate::table::{fmt_ns, Table};

/// All breakdown tables for one recorder, in print order. Sections with
/// no rows (a run that sampled no ops or gauges, or recorded no closed
/// root spans) are omitted.
pub fn tables(rec: &Recorder) -> Vec<Table> {
    let mut out = vec![hop_table(rec)];
    let ops = op_table(rec);
    if !ops.rows.is_empty() {
        out.push(ops);
    }
    out.push(energy_table(rec));
    if let Some(g) = gauge_table(rec) {
        out.push(g);
    }
    if let Some(c) = counter_table(rec) {
        out.push(c);
    }
    if let Some(c) = critical_path_table(rec) {
        out.push(c);
    }
    out
}

/// Critical-path summary: exclusive ("self") time per hop aggregated
/// across every request (root span) the recorder captured, with the
/// queue-wait share split out. `None` when the run recorded no closed
/// root spans. Rows sort by total self time descending — the top row is
/// where optimisation effort pays off first.
pub fn critical_path_table(rec: &Recorder) -> Option<Table> {
    let hops = hyperion_telemetry::critical_path::summary(rec);
    if hops.is_empty() {
        return None;
    }
    let total: u64 = hops.iter().map(|h| h.ns.0).sum();
    let mut t = Table::new(
        format!("{} — critical path (self time per hop)", rec.label()),
        &["component", "hop", "self", "queue", "share"],
    );
    for h in hops {
        t.row(vec![
            h.component.name().to_string(),
            h.name.to_string(),
            fmt_ns(h.ns.0),
            fmt_ns(h.queue_ns.0),
            format!("{:.1}%", 100.0 * h.ns.0 as f64 / total as f64),
        ]);
    }
    Some(t)
}

/// Per-hop breakdown: count, p50/p99 latency, total occupancy, energy.
pub fn hop_table(rec: &Recorder) -> Table {
    let mut t = Table::new(
        format!("{} — per-hop latency and energy", rec.label()),
        &["component", "hop", "count", "p50", "p99", "total", "energy"],
    );
    let mut rows = rec.hop_rows();
    rows.sort_by_key(|r| (r.component, r.name));
    for r in rows {
        t.row(vec![
            r.component.name().to_string(),
            r.name.to_string(),
            r.count.to_string(),
            fmt_ns(r.p50),
            fmt_ns(r.p99),
            fmt_ns(r.total.0),
            r.energy.to_string(),
        ]);
    }
    t
}

/// Per-service-op end-to-end latency distribution.
pub fn op_table(rec: &Recorder) -> Table {
    let mut t = Table::new(
        format!("{} — per-op latency", rec.label()),
        &["op", "count", "p50", "p99", "max"],
    );
    for (name, h) in rec.op_histograms() {
        t.row(vec![
            name.to_string(),
            h.count().to_string(),
            fmt_ns(h.percentile(50.0)),
            fmt_ns(h.percentile(99.0)),
            fmt_ns(h.max()),
        ]);
    }
    t
}

/// Per-component energy attribution with shares of the total.
pub fn energy_table(rec: &Recorder) -> Table {
    let mut t = Table::new(
        format!("{} — energy by component", rec.label()),
        &["component", "energy", "share"],
    );
    let total = rec.total_energy();
    for c in Component::ALL {
        let e = rec.component_energy(c);
        if e.0 == 0 {
            continue;
        }
        let share = if total.0 == 0 {
            0.0
        } else {
            100.0 * e.0 as f64 / total.0 as f64
        };
        t.row(vec![
            c.name().to_string(),
            e.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    t
}

/// Sampled levels (queue depths, slot occupancy); `None` when the run
/// sampled no gauges.
pub fn gauge_table(rec: &Recorder) -> Option<Table> {
    let mut t = Table::new(
        format!("{} — gauges", rec.label()),
        &["gauge", "samples", "min", "mean", "max", "last"],
    );
    for (name, g) in rec.gauges() {
        t.row(vec![
            name.to_string(),
            g.samples().to_string(),
            g.min().to_string(),
            format!("{:.2}", g.mean()),
            g.max().to_string(),
            g.last().to_string(),
        ]);
    }
    if t.rows.is_empty() {
        None
    } else {
        Some(t)
    }
}

/// Event counters (faults injected, retries, remaps); `None` when the
/// run counted nothing. Rows sort by name for deterministic output.
pub fn counter_table(rec: &Recorder) -> Option<Table> {
    let mut rows: Vec<(&str, u64)> = rec.counters().collect();
    if rows.is_empty() {
        return None;
    }
    rows.sort_by_key(|&(name, _)| name);
    let mut t = Table::new(format!("{} — counters", rec.label()), &["counter", "count"]);
    for (name, v) in rows {
        t.row(vec![name.to_string(), v.to_string()]);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_sim::time::Ns;

    fn sample_rec() -> Recorder {
        let mut r = Recorder::new("T0");
        r.record_hop(Component::Net, "udp:send", Ns(0), Ns(100));
        r.record_hop(Component::Nvme, "nvme:read", Ns(100), Ns(8_100));
        r.record_op("kv.get", Ns(8_200));
        r.gauge("nvme:queue_depth", 3);
        r
    }

    #[test]
    fn hop_rows_sort_by_component_then_name() {
        let t = hop_table(&sample_rec());
        assert_eq!(t.rows[0][0], "net");
        assert_eq!(t.rows[1][0], "nvme");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn energy_shares_sum_to_about_100() {
        let t = energy_table(&sample_rec());
        let total: f64 = (0..t.rows.len()).map(|i| t.cell(i, 2).percent()).sum();
        assert!((99.0..=101.0).contains(&total), "shares sum {total}");
    }

    #[test]
    fn counter_rows_sort_by_name() {
        let mut r = sample_rec();
        r.bump("nvmeof:timeouts");
        r.count("nvmeof:retries", 3);
        let t = counter_table(&r).expect("counters present");
        assert_eq!(
            t.rows[0],
            vec!["nvmeof:retries".to_string(), "3".to_string()]
        );
        assert_eq!(
            t.rows[1],
            vec!["nvmeof:timeouts".to_string(), "1".to_string()]
        );
        assert!(counter_table(&sample_rec()).is_none());
    }

    #[test]
    fn empty_sections_are_omitted() {
        // Hops, ops, energy, gauges, critical path.
        assert_eq!(tables(&sample_rec()).len(), 5);
        // No ops, no gauges, no spans: only the (empty) hop and energy
        // tables stay.
        assert_eq!(tables(&Recorder::new("empty")).len(), 2);
    }

    #[test]
    fn critical_path_shares_cover_every_nanosecond() {
        let mut r = Recorder::new("cp");
        let root = r.open(Component::Net, "request", Ns(0));
        r.record_hop(Component::Nvme, "nvme:read", Ns(10), Ns(90));
        r.close(root, Ns(100));
        let t = critical_path_table(&r).expect("one closed root");
        // Two hops: the read's 80 ns and the root's remaining 20 ns.
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][1], "nvme:read");
        assert_eq!(t.rows[0][4], "80.0%");
        assert_eq!(t.rows[1][4], "20.0%");
    }
}
