//! End-to-end flight-recorder properties over real traced workloads.
//!
//! Two acceptance checks for the observability pipeline:
//!
//! 1. the Perfetto export is **byte-identical** across two same-seed runs
//!    of a real workload (the simulator's virtual clock is deterministic,
//!    so the trace must be too);
//! 2. the critical-path analyzer attributes **every nanosecond** of each
//!    request to exactly one hop: per request, the hop attributions sum
//!    to the end-to-end latency.

use hyperion::dpu::DpuBuilder;
use hyperion_apps::pointer_chase::{client_driven_lookup, offloaded_lookup, populate_tree};
use hyperion_net::rpc::RpcChannel;
use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_net::Network;
use hyperion_sim::time::Ns;
use hyperion_telemetry::critical_path::analyze;
use hyperion_telemetry::{to_perfetto, At, Recorder};

const KEYS: u64 = 20_000;
const LOOKUPS: u64 = 16;

/// One deterministic traced pointer-chase run: client-driven and
/// offloaded lookups interleaved over the same tree and network.
fn chase_run() -> Recorder {
    let mut dpu = DpuBuilder::new().auth_key(7).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let t0 = populate_tree(&mut dpu, KEYS, t0);
    let mut net = Network::new();
    let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
    let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let mut ch = RpcChannel::new(client, server, Transport::new(TransportKind::Udp));
    let mut rec = Recorder::new("trace-critical-path");
    let mut t = t0;
    for i in 0..LOOKUPS {
        let key = (i * KEYS / LOOKUPS).min(KEYS - 1);
        let cli =
            client_driven_lookup(&mut dpu, &mut ch, &mut net, key, At::new(t, Some(&mut rec)));
        assert_eq!(cli.value, Some(key * 7));
        let off = offloaded_lookup(
            &mut dpu,
            &mut ch,
            &mut net,
            key,
            At::new(cli.done, Some(&mut rec)),
        );
        assert_eq!(off.value, Some(key * 7));
        t = off.done;
    }
    assert_eq!(rec.open_spans(), 0, "all request spans must close");
    rec
}

#[test]
fn perfetto_export_is_byte_identical_across_same_seed_runs() {
    let a = to_perfetto(&chase_run());
    let b = to_perfetto(&chase_run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce the same trace bytes");
    // Sanity: the export is the Chrome trace_event envelope and carries
    // the request root spans.
    assert!(a.starts_with('{') && a.ends_with("}\n"));
    assert!(a.contains("\"chase:client\""));
    assert!(a.contains("\"chase:offloaded\""));
}

#[test]
fn critical_path_attribution_sums_to_end_to_end_latency_per_request() {
    let rec = chase_run();
    let paths = analyze(&rec);
    // One path per root span: a client-driven and an offloaded lookup
    // per iteration.
    assert_eq!(paths.len(), 2 * LOOKUPS as usize);
    for p in &paths {
        assert!(p.duration() > Ns::ZERO, "{}: empty request", p.name);
        let total: u64 = p.hops.iter().map(|h| h.ns.0).sum();
        assert_eq!(
            Ns(total),
            p.duration(),
            "{}: hop attributions must sum exactly to the end-to-end latency",
            p.name
        );
        for h in &p.hops {
            assert!(
                h.queue_ns <= h.ns,
                "{}/{}: queue time cannot exceed attributed time",
                p.name,
                h.name
            );
        }
    }
    // The offloaded path must actually decompose: one wire hop plus the
    // on-DPU work (the RPC legs sit deeper than the pre-simulated
    // service span, so they win the overlap).
    let off = paths
        .iter()
        .find(|p| p.name == "chase:offloaded")
        .expect("offloaded request traced");
    let hop_names: Vec<&str> = off.hops.iter().map(|h| h.name).collect();
    assert!(
        hop_names.contains(&"udp:send") && hop_names.contains(&"server:work"),
        "expected wire + server-work hops, got {hop_names:?}"
    );
}
