//! Network pointer chasing: client-driven vs. on-DPU traversal.
//!
//! Paper §2.4, workload 2: "In a disaggregated storage, pointer chasing
//! over B+ trees ... results in multiple network RTTs with significant
//! performance degradation. These latency-sensitive applications can now
//! be deployed in the FPGA even if they access higher-level data objects."
//!
//! Two drivers over the *same* tree on the *same* DPU:
//!
//! * [`client_driven_lookup`] — the remote client walks the tree itself,
//!   fetching one node per RPC (`TreeNodeRead`): `height` round trips;
//! * [`offloaded_lookup`] — one RPC (`TreeLookup`); the traversal runs
//!   next to the flash.

use hyperion::dpu::HyperionDpu;
use hyperion::services::{ServiceResponse, TreeOp};
use hyperion_ebpf::{assemble, MapId, Program, Vm};
use hyperion_net::rpc::{MethodId, RpcChannel};
use hyperion_net::Network;
use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::BLOCK;
use hyperion_telemetry::{At, Component};

/// Steps the in-fabric walker is unrolled to. The verifier requires DAG
/// control flow, so the chase loop is fully unrolled with forward exits
/// — every iteration is its own basic block, which is exactly what makes
/// this program a good `report --profile` subject.
pub const CHASE_STEPS: u64 = 8;

/// Context bytes the walker declares (the 8-byte start key).
pub const CHASE_CTX_LEN: u64 = 8;

/// The in-fabric pointer chaser: follows `key -> next` links in map 0
/// for up to [`CHASE_STEPS`] hops and returns the number of hops walked.
/// A missing link (lookup returns 0) terminates the walk.
///
/// ABI: the first 8 context bytes are the start key; keys must be
/// non-zero so absence is distinguishable.
pub const POINTER_CHASE_EBPF: &str = r"
    ; r9 = ctx, r6 = current key, r7 = hops walked
    mov r9, r1
    ldxdw r6, [r9+0]
    mov r7, 0
    ; step 1
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 2
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 3
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 4
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 5
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 6
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 7
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
    ; step 8
    mov r1, 0
    mov r2, r6
    call map_lookup
    jeq r0, 0, done
    mov r6, r0
    add r7, 1
done:
    mov r0, r7
    exit
";

/// Assembles the walker ([`POINTER_CHASE_EBPF`]) under its ABI.
pub fn chase_program() -> Program {
    assemble("pointer-chase", POINTER_CHASE_EBPF, CHASE_CTX_LEN).expect("walker assembles")
}

/// Populates the VM's map 0 with a `len`-node chain
/// `start -> start+1 -> ...`, terminated by absence. `start` must be
/// non-zero (0 is the walker's miss sentinel).
pub fn build_chain(vm: &mut Vm, start: u64, len: u64) {
    assert!(start > 0, "0 is the walker's miss sentinel");
    if vm.maps.lookup(MapId(0), start).is_err() {
        vm.maps.add_hash(1 << 10);
    }
    for i in 0..len {
        vm.maps
            .update(MapId(0), start + i, start + i + 1)
            .expect("chain fits");
    }
}

/// The walker's context for a chase starting at `start`.
pub fn chase_ctx(start: u64) -> Vec<u8> {
    start.to_le_bytes().to_vec()
}

/// Result of one remote lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseResult {
    /// The value found (None on miss).
    pub value: Option<u64>,
    /// Completion instant at the client.
    pub done: Ns,
    /// Request/response round trips consumed.
    pub rtts: u64,
}

/// Loads `n` keys (`key -> key * 7`) into the DPU's tree.
pub fn populate_tree(dpu: &mut HyperionDpu, n: u64, now: Ns) -> Ns {
    let mut t = now;
    for k in 0..n {
        let insert = TreeOp::Insert {
            key: k,
            value: k * 7,
        };
        (_, t) = dpu.dispatch(t, insert).expect("insert");
    }
    t
}

/// One offloaded lookup: a single RPC, full traversal at the DPU.
///
/// With a recorder, the whole lookup is one `chase:offloaded` root span
/// (the per-request unit the critical-path analyzer decomposes), the
/// on-DPU traversal records its service span and `tree.lookup` op sample,
/// the single RPC records its per-leg wire spans, and the whole lookup
/// lands as an `e6.offloaded` op sample.
pub fn offloaded_lookup<'r>(
    dpu: &mut HyperionDpu,
    channel: &mut RpcChannel,
    net: &mut Network,
    key: u64,
    at: impl Into<At<'r>>,
) -> ChaseResult {
    let At { now, mut rec } = at.into();
    let root = rec
        .as_deref_mut()
        .map(|rec| rec.open(Component::Service, "chase:offloaded", now));
    // Server work = the on-DPU traversal time.
    let (resp, served) = dpu
        .dispatch(At::new(now, rec.as_deref_mut()), TreeOp::Lookup { key })
        .expect("lookup");
    let ServiceResponse::Value(value) = resp else {
        unreachable!("lookup returns a value");
    };
    let work = served - now;
    let d = channel
        .call(
            net,
            MethodId(1),
            At::new(now, rec.as_deref_mut()),
            16,
            16,
            work,
        )
        .expect("rpc");
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.close(root, d.done);
        rec.record_op("e6.offloaded", d.done.saturating_sub(now));
    }
    ChaseResult {
        value,
        done: d.done,
        rtts: d.wire_rounds,
    }
}

/// One client-driven lookup: fetch each node over the network and parse
/// it at the client, exactly as a disaggregated-storage client would.
///
/// With a recorder, the whole walk is one `chase:client` root span, every
/// per-level node fetch records its service span (`tree.node_read`) and
/// wire spans, and the walk lands as an `e6.client_driven` op sample.
pub fn client_driven_lookup<'r>(
    dpu: &mut HyperionDpu,
    channel: &mut RpcChannel,
    net: &mut Network,
    key: u64,
    at: impl Into<At<'r>>,
) -> ChaseResult {
    let At { now, mut rec } = at.into();
    let root = rec
        .as_deref_mut()
        .map(|rec| rec.open(Component::Service, "chase:client", now));
    let tree = dpu.btree.as_ref().expect("tree exists");
    // The client knows the root address (cached from an earlier open).
    let mut lba = tree.root_lba();
    let height = tree.height();
    let mut t = now;
    let mut rtts = 0;
    let mut value = None;
    for level in 0..height {
        // Fetch one node: the server-side work is the single block read.
        let (resp, served) = dpu
            .dispatch(At::new(t, rec.as_deref_mut()), TreeOp::NodeRead { lba })
            .expect("node read");
        let ServiceResponse::Node(data) = resp else {
            unreachable!("node read returns bytes");
        };
        let work = served - t;
        let d = channel
            .call(
                net,
                MethodId(2),
                At::new(t, rec.as_deref_mut()),
                16,
                BLOCK,
                work,
            )
            .expect("rpc");
        t = d.done;
        rtts += d.wire_rounds;
        // Parse the node at the client (same format as storage::btree).
        let tag = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
        let word = |i: usize| -> u64 {
            u64::from_le_bytes(data[16 + i * 8..24 + i * 8].try_into().expect("8 bytes"))
        };
        if tag == 1 {
            // Leaf.
            for i in 0..n {
                if word(i) == key {
                    value = Some(word(n + i));
                }
            }
            debug_assert_eq!(level + 1, height);
        } else {
            // Internal: binary search the separator keys.
            let mut idx = 0;
            while idx < n && word(idx) <= key {
                idx += 1;
            }
            lba = word(n + idx);
        }
    }
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.close(root, t);
        rec.record_op("e6.client_driven", t.saturating_sub(now));
    }
    ChaseResult {
        value,
        done: t,
        rtts,
    }
}

/// Memory-resident pointer chasing: the tree's nodes live in the DPU's
/// HBM/DRAM (the disaggregated-*memory* flavour of §2.4, as in Clio),
/// so per-node work is a DRAM access and the network round trips
/// dominate. `height` levels at `node_cost` each.
///
/// Returns (client-driven result, offloaded result).
pub fn cached_chase(
    channel: &mut RpcChannel,
    net: &mut Network,
    height: u32,
    node_cost: Ns,
    now: Ns,
) -> (ChaseResult, ChaseResult) {
    // Client-driven: one RPC per level.
    let mut t = now;
    let mut rtts = 0;
    for _ in 0..height {
        let d = channel
            .call(net, MethodId(3), t, 16, BLOCK, node_cost)
            .expect("rpc");
        t = d.done;
        rtts += d.wire_rounds;
    }
    let client = ChaseResult {
        value: Some(0),
        done: t,
        rtts,
    };
    // Offloaded: one RPC, height node accesses at the server.
    let d = channel
        .call(net, MethodId(4), t, 16, 16, node_cost * height as u64)
        .expect("rpc");
    let offloaded = ChaseResult {
        value: Some(0),
        done: d.done,
        rtts: d.wire_rounds,
    };
    (client, offloaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
    use hyperion_telemetry::Recorder;

    fn setup(keys: u64) -> (HyperionDpu, Network, RpcChannel, Ns) {
        let mut dpu = hyperion::dpu::DpuBuilder::new().auth_key(1).build();
        let t = dpu.boot(Ns::ZERO).unwrap();
        let t = populate_tree(&mut dpu, keys, t);
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let channel = RpcChannel::new(client, server, Transport::new(TransportKind::Udp));
        (dpu, net, channel, t)
    }

    #[test]
    fn both_strategies_find_the_same_values() {
        let (mut dpu, mut net, mut ch, t) = setup(5_000);
        for key in [0u64, 17, 499, 4_999] {
            let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, key, t);
            let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, key, t);
            assert_eq!(off.value, Some(key * 7));
            assert_eq!(cli.value, Some(key * 7));
        }
        let miss = offloaded_lookup(&mut dpu, &mut ch, &mut net, 999_999, t);
        assert_eq!(miss.value, None);
    }

    #[test]
    fn client_driven_pays_height_rtts() {
        let (mut dpu, mut net, mut ch, t) = setup(5_000);
        let height = dpu.btree.as_ref().unwrap().height() as u64;
        assert!(height >= 2);
        let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, 100, t);
        let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, 100, t);
        assert_eq!(off.rtts, 1);
        assert_eq!(cli.rtts, height);
    }

    #[test]
    fn cached_chase_speedup_approaches_height() {
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let mut ch = RpcChannel::new(client, server, Transport::new(TransportKind::Udp));
        let t = Ns::ZERO;
        let (cli, off) = cached_chase(&mut ch, &mut net, 6, Ns(200), t);
        let cli_lat = (cli.done - t).0 as f64;
        let off_lat = (off.done - cli.done).0 as f64;
        let speedup = cli_lat / off_lat;
        assert_eq!(cli.rtts, 6);
        assert_eq!(off.rtts, 1);
        assert!(
            (4.0..7.0).contains(&speedup),
            "memory-resident speedup tracks height: {speedup}"
        );
    }

    #[test]
    fn traced_lookups_match_untraced_timing() {
        let (mut dpu1, mut net1, mut ch1, t1) = setup(5_000);
        let (mut dpu2, mut net2, mut ch2, t2) = setup(5_000);
        assert_eq!(t1, t2);
        let mut rec = Recorder::new("t");
        let off1 = offloaded_lookup(&mut dpu1, &mut ch1, &mut net1, 499, t1);
        let off2 = offloaded_lookup(
            &mut dpu2,
            &mut ch2,
            &mut net2,
            499,
            At::new(t2, Some(&mut rec)),
        );
        assert_eq!(off1, off2);
        let cli1 = client_driven_lookup(&mut dpu1, &mut ch1, &mut net1, 499, off1.done);
        let cli2 = client_driven_lookup(
            &mut dpu2,
            &mut ch2,
            &mut net2,
            499,
            At::new(off2.done, Some(&mut rec)),
        );
        assert_eq!(cli1, cli2);
        // Instrumentation closed every span and sampled both op families.
        assert_eq!(rec.open_spans(), 0);
        assert!(rec.spans().len() > 3, "spans: {}", rec.spans().len());
        let ops: Vec<&str> = rec.op_histograms().map(|(n, _)| n).collect();
        assert!(ops.contains(&"e6.offloaded"), "{ops:?}");
        assert!(ops.contains(&"e6.client_driven"), "{ops:?}");
    }

    #[test]
    fn ebpf_walker_verifies_and_counts_hops() {
        let p = chase_program();
        hyperion_ebpf::verify(&p).expect("walker verifies (DAG control flow)");
        let mut vm = Vm::new();
        build_chain(&mut vm, 1, 5);
        let r = vm.run(&p, &mut chase_ctx(1)).unwrap();
        assert_eq!(r.ret, 5, "five links, five hops");
        // A chain longer than the unroll caps at CHASE_STEPS.
        let mut vm = Vm::new();
        build_chain(&mut vm, 1, 100);
        let r = vm.run(&p, &mut chase_ctx(1)).unwrap();
        assert_eq!(r.ret, CHASE_STEPS);
        // Starting off-chain walks nowhere.
        let r = vm.run(&p, &mut chase_ctx(500)).unwrap();
        assert_eq!(r.ret, 0);
    }

    #[test]
    fn ebpf_walker_profile_counts_sum_to_retired() {
        let p = chase_program();
        let mut vm = Vm::new();
        build_chain(&mut vm, 1, 3);
        let mut prof = hyperion_ebpf::Profile::new(&p);
        let r = vm.run_profiled(&p, &mut chase_ctx(1), &mut prof).unwrap();
        assert_eq!(prof.retired(), r.insns);
        assert_eq!(prof.retired(), prof.insn_counts().iter().sum::<u64>());
        assert_eq!(prof.map_reads(), 4, "three hops plus the terminating miss");
        // Early blocks ran, late blocks did not: cycle share is skewed.
        let rows = hyperion_ebpf::block_report(&p, &prof);
        assert!(rows.iter().any(|b| b.cycles == 0), "unreached unroll tail");
    }

    #[test]
    fn offload_wins_on_latency_for_deep_trees() {
        let (mut dpu, mut net, mut ch, t) = setup(5_000);
        let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, 2_500, t);
        let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, 2_500, t);
        assert!(
            cli.done - t > off.done - t,
            "client-driven {} vs offloaded {}",
            cli.done - t,
            off.done - t
        );
    }
}
