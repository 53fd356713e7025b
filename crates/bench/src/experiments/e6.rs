//! E6 — Network pointer chasing (paper §2.4): client-driven traversal
//! (one RTT per B+ tree level) vs. on-DPU traversal (one RTT total),
//! across tree sizes and all four transports.

use hyperion::dpu::DpuBuilder;
use hyperion_apps::pointer_chase::{client_driven_lookup, offloaded_lookup, populate_tree};
use hyperion_net::rpc::RpcChannel;
use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_net::Network;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Recorder};

use crate::table::{fmt_ns, fmt_ratio, Table};

/// Lookups per configuration.
const LOOKUPS: u64 = 32;

fn channel(net: &mut Network, kind: TransportKind) -> RpcChannel {
    let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
    let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    RpcChannel::new(client, server, Transport::new(kind))
}

/// Runs E6: tree-depth sweep (UDP) and a transport sweep (fixed depth),
/// plus the recorder of the 5k-key depth row: both lookup styles traced
/// end to end — wire legs, service dispatch, per-level node fetches, and
/// whole-lookup op samples.
pub fn run() -> (Vec<Table>, Recorder) {
    let mut rec = Recorder::new("E6: pointer chasing, client-driven vs offloaded (5k keys, UDP)");
    let mut depth_table = Table::new(
        "E6: pointer chasing vs tree size (UDP transport)",
        &[
            "keys",
            "height",
            "client-driven lat",
            "client rtts",
            "offloaded lat",
            "offload rtts",
            "speedup",
        ],
    );
    for &keys in &[100u64, 5_000, 50_000] {
        let mut trace = (keys == 5_000).then_some(&mut rec);
        let mut dpu = DpuBuilder::new().auth_key(1).build();
        let t0 = dpu.boot(Ns::ZERO).expect("boot");
        let t0 = populate_tree(&mut dpu, keys, t0);
        let height = dpu.btree.as_ref().expect("tree").height();
        let mut net = Network::new();
        let mut ch = channel(&mut net, TransportKind::Udp);
        let mut cli_total = 0u64;
        let mut off_total = 0u64;
        let mut cli_rtts = 0u64;
        let mut off_rtts = 0u64;
        let mut t = t0;
        for i in 0..LOOKUPS {
            let key = (i * keys / LOOKUPS).min(keys - 1);
            let cli = client_driven_lookup(
                &mut dpu,
                &mut ch,
                &mut net,
                key,
                At::new(t, trace.as_deref_mut()),
            );
            cli_total += (cli.done - t).0;
            cli_rtts += cli.rtts;
            t = cli.done;
            let off = offloaded_lookup(
                &mut dpu,
                &mut ch,
                &mut net,
                key,
                At::new(t, trace.as_deref_mut()),
            );
            off_total += (off.done - t).0;
            off_rtts += off.rtts;
            t = off.done;
        }
        let cli_avg = cli_total / LOOKUPS;
        let off_avg = off_total / LOOKUPS;
        depth_table.row(vec![
            keys.to_string(),
            height.to_string(),
            fmt_ns(cli_avg),
            format!("{:.1}", cli_rtts as f64 / LOOKUPS as f64),
            fmt_ns(off_avg),
            format!("{:.1}", off_rtts as f64 / LOOKUPS as f64),
            fmt_ratio(cli_avg as f64 / off_avg as f64),
        ]);
    }

    let mut transport_table = Table::new(
        "E6b: pointer chasing by transport (50k keys)",
        &["transport", "client-driven lat", "offloaded lat", "speedup"],
    );
    let mut dpu = DpuBuilder::new().auth_key(1).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    // The flash timeline is shared across the sweep; thread time forward
    // so no transport is measured against a back-dated device state.
    let mut t = populate_tree(&mut dpu, 50_000, t0);
    for kind in TransportKind::ALL {
        let mut net = Network::new();
        let mut ch = channel(&mut net, kind);
        let mut cli_total = 0u64;
        let mut off_total = 0u64;
        for i in 0..LOOKUPS {
            let key = i * 1_500;
            let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, key, t);
            cli_total += (cli.done - t).0;
            t = cli.done;
            let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, key, t);
            off_total += (off.done - t).0;
            t = off.done;
        }
        transport_table.row(vec![
            kind.name().to_string(),
            fmt_ns(cli_total / LOOKUPS),
            fmt_ns(off_total / LOOKUPS),
            fmt_ratio(cli_total as f64 / off_total as f64),
        ]);
    }
    // E6c: the memory-resident flavour (nodes in HBM/DRAM, Clio-style):
    // round trips dominate, so the offload win tracks the tree height.
    let mut mem_table = Table::new(
        "E6c: memory-resident pointer chasing (DRAM nodes, UDP)",
        &["height", "client-driven lat", "offloaded lat", "speedup"],
    );
    let mut net = Network::new();
    let mut ch = channel(&mut net, TransportKind::Udp);
    let mut tm = Ns::ZERO;
    for height in [2u32, 4, 6, 8] {
        let (cli, off) =
            hyperion_apps::pointer_chase::cached_chase(&mut ch, &mut net, height, Ns(200), tm);
        let cli_lat = (cli.done - tm).0;
        let off_lat = (off.done - cli.done).0;
        tm = off.done;
        mem_table.row(vec![
            height.to_string(),
            fmt_ns(cli_lat),
            fmt_ns(off_lat),
            fmt_ratio(cli_lat as f64 / off_lat as f64),
        ]);
    }
    (vec![depth_table, transport_table, mem_table], rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cached;

    fn tables() -> &'static [Table] {
        cached("e6").0
    }

    #[test]
    fn telemetry_separates_the_two_lookup_styles() {
        let rec = cached("e6").1;
        let ops: Vec<(&str, u64, u64)> = rec
            .op_histograms()
            .map(|(n, h)| (n, h.count(), h.percentile(50.0)))
            .collect();
        let cli = ops.iter().find(|(n, ..)| *n == "e6.client_driven").unwrap();
        let off = ops.iter().find(|(n, ..)| *n == "e6.offloaded").unwrap();
        assert_eq!(cli.1, LOOKUPS);
        assert_eq!(off.1, LOOKUPS);
        // The whole point of E6: client-driven median latency is worse.
        assert!(cli.2 > off.2, "client {} vs offloaded {}", cli.2, off.2);
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn offload_always_wins_and_grows_with_depth() {
        let tables = tables();
        let t = &tables[0];
        let speedup = |i: usize| -> f64 { t.cell(i, t.headers.len() - 1).ratio() };
        for i in 0..t.rows.len() {
            assert!(speedup(i) > 1.0, "row {i}: {}", speedup(i));
        }
        // Deeper trees widen the gap.
        assert!(speedup(t.rows.len() - 1) >= speedup(0));
    }

    #[test]
    fn offload_uses_one_rtt() {
        let tables = tables();
        for row in &tables[0].rows {
            assert_eq!(row[5], "1.0", "offloaded rtts: {row:?}");
        }
    }

    #[test]
    fn all_transports_show_the_effect() {
        let tables = tables();
        let t = &tables[1];
        for i in 0..t.rows.len() {
            let s = t.cell(i, 3).ratio();
            assert!(s > 1.0, "{:?}", t.rows[i]);
        }
    }
}
