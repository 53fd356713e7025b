//! The counter-name registry: the closed set of `component:metric` names
//! the instrumented layers may emit.
//!
//! Counter names are the contract between the instrumentation and every
//! consumer downstream (breakdown tables, the JSON dump, dashboards built
//! on it). A typo'd or ad-hoc name silently forks that contract, so the
//! registry pins the scheme in one place — `<component>:<metric>`, both
//! lowercase `snake_case` — and `hyperion-bench` asserts that every
//! counter a real telemetry run emits is registered (see DESIGN §5.4).
//!
//! Adding a counter is a two-line change: bump it at the call site and
//! list it here. The test failing on an unregistered name is the point.

/// Every counter the instrumented layers may emit, grouped by component,
/// sorted within each group.
pub const COUNTERS: &[&str] = &[
    // cluster:* — failure detection, fencing, failover (core::cluster).
    "cluster:epoch_bumps",
    "cluster:failed_requests",
    "cluster:retried_requests",
    "cluster:shed_requests",
    "cluster:suspicions",
    // corfu:* — shared-log repair (core::cluster failover).
    "corfu:repaired_positions",
    // nvme:* — device recovery (nvme::device).
    "nvme:latency_spikes",
    "nvme:media_errors",
    "nvme:media_failures",
    "nvme:read_retries",
    "nvme:remapped_lbas",
    "nvme:remaps",
    // nvmeof:* — initiator-side whole-command retries (core::nvmeof).
    "nvmeof:corrupt",
    "nvmeof:gave_up",
    "nvmeof:link_down",
    "nvmeof:retries",
    "nvmeof:timeouts",
    // pcie:* — link retrain stalls (pcie).
    "pcie:retrain_stalls",
    // service:* — admission control (core::services).
    "service:shed",
];

/// Every gauge name the instrumented layers may sample.
pub const GAUGES: &[&str] = &["nvme:queue_depth", "pcie:link_queue_wait_ns"];

/// Whether `name` is a registered counter.
pub fn is_registered_counter(name: &str) -> bool {
    COUNTERS.contains(&name)
}

/// Whether `name` is a registered gauge.
pub fn is_registered_gauge(name: &str) -> bool {
    GAUGES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every registry entry follows `component:metric` with a known
    /// component prefix, lowercase snake_case on both sides.
    #[test]
    fn registry_names_follow_the_scheme() {
        const COMPONENTS: &[&str] = &[
            "cluster", "corfu", "fabric", "net", "nvme", "nvmeof", "pcie", "service",
        ];
        for name in COUNTERS.iter().chain(GAUGES) {
            let (component, metric) = name.split_once(':').expect("component:metric");
            assert!(
                COMPONENTS.contains(&component),
                "unknown component prefix in {name}"
            );
            assert!(
                !metric.is_empty()
                    && metric
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "metric not lowercase snake_case in {name}"
            );
        }
    }

    #[test]
    fn registry_is_sorted_within_groups_and_duplicate_free() {
        let mut seen = COUNTERS.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), COUNTERS.len(), "duplicate counter registered");
    }

    #[test]
    fn membership_checks() {
        assert!(is_registered_counter("nvmeof:retries"));
        assert!(!is_registered_counter("nvmeof:retrys"));
        assert!(is_registered_gauge("nvme:queue_depth"));
        assert!(!is_registered_gauge("nvme:depth"));
    }
}
