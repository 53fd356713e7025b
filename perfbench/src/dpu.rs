//! The `dpu_services` workload: one booted `HyperionDpu` plus an
//! `NvmeOfTarget`, serving four closed-loop virtual clients.
//!
//! Each client issues its next op when its previous one completes, and
//! the clients are dispatched in order of their next issue instant (ties
//! go to the lowest client index). The seeded mix:
//!
//! * ~35% NVMe-oF 4 KiB exchanges over UDP, one in four of them writes;
//! * ~25% B+-tree lookups, alternating offloaded (`TreeOp::Lookup` plus
//!   one RPC) and client-driven (one `TreeOp::NodeRead` RPC per level,
//!   nodes parsed by the client) on the same key;
//! * ~15% KV-SSD puts and gets, half each;
//! * ~25% fail2ban packets through the deployed slot's `HwPipeline`, with
//!   each ban appended to the Corfu log.

use std::time::Instant;

use bytes::Bytes;
use hyperion::control::ControlPlane;
use hyperion::dpu::{DpuBuilder, HyperionDpu};
use hyperion::nvmeof::{FabricStatus, Initiator, NvmeOfTarget};
use hyperion::services::{KvOp, ServiceResponse, TreeOp};
use hyperion_apps::fail2ban::{self, CTX_LEN};
use hyperion_apps::trafficgen::TrafficGen;
use hyperion_fabric::slots::SlotId;
use hyperion_net::rpc::{MethodId, RpcChannel};
use hyperion_net::transport::{Endpoint, EndpointKind, RetryPolicy, Transport, TransportKind};
use hyperion_net::Network;
use hyperion_sim::rng::Rng;
use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::BLOCK;
use hyperion_storage::corfu::LogEntry;

use crate::probe::Probe;
use crate::{percentile, BlockTimer, Episode, Named, Size};

const AUTH_KEY: u64 = 0xC0FFEE;
const CLIENTS: usize = 4;
/// NVMe-oF target namespace size.
const TARGET_LBAS: u64 = 1 << 20;
/// LBAs the exchanges address: small enough that most reads find data.
const EXCHANGE_LBAS: u64 = 4_096;
const KV_KEYS: u64 = 1_024;
const KV_VALUE_BYTES: usize = 64;
const F2B_FLOWS: u64 = 20_000;
const F2B_ATTACK_FRACTION: f64 = 0.1;
/// Keeps the packet stream independent of the op-mix stream.
const PACKET_STREAM: u64 = 0xF2B;
const TREE_LOOKUP: MethodId = MethodId(1);
const TREE_NODE_READ: MethodId = MethodId(2);

/// One generated client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    NvmeRead {
        lba: u64,
    },
    NvmeWrite {
        lba: u64,
        fill: u8,
    },
    TreeOffloaded {
        key: u64,
    },
    /// Always follows the `TreeOffloaded` of the same key.
    TreeClient {
        key: u64,
    },
    KvPut {
        key: u16,
        fill: u8,
    },
    KvGet {
        key: u16,
    },
    Packet {
        flow: u64,
        hash: u64,
        marker: u8,
    },
}

/// The op sequence plus the payloads it refers to.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    ops: Vec<Op>,
    /// One 4 KiB write payload per fill byte.
    pages: Vec<Bytes>,
    /// One KV value per fill byte.
    values: Vec<Bytes>,
}

/// Generates the op mix from `seed`.
pub fn inputs(seed: u64, size: &Size) -> Inputs {
    let mut rng = Rng::seeded(seed);
    let mut packets = TrafficGen::new(seed ^ PACKET_STREAM, F2B_FLOWS, F2B_ATTACK_FRACTION, 16);
    let mut pending_key = None;
    let ops = (0..size.dpu_ops)
        .map(|_| match rng.next_below(100) {
            0..35 => {
                let lba = rng.next_below(EXCHANGE_LBAS);
                if rng.next_below(4) == 0 {
                    Op::NvmeWrite {
                        lba,
                        fill: rng.next_below(256) as u8,
                    }
                } else {
                    Op::NvmeRead { lba }
                }
            }
            35..60 => match pending_key.take() {
                Some(key) => Op::TreeClient { key },
                None => {
                    let key = rng.next_below(size.dpu_keys);
                    pending_key = Some(key);
                    Op::TreeOffloaded { key }
                }
            },
            60..75 => {
                let key = rng.next_below(KV_KEYS) as u16;
                if rng.next_below(2) == 0 {
                    Op::KvPut {
                        key,
                        fill: rng.next_below(256) as u8,
                    }
                } else {
                    Op::KvGet { key }
                }
            }
            _ => {
                let (flow, packet) = packets.next_packet();
                Op::Packet {
                    flow,
                    hash: packet.flow.hash64(),
                    marker: packet.payload[0],
                }
            }
        })
        .collect();
    Inputs {
        ops,
        pages: (0..=255u8)
            .map(|b| Bytes::from(vec![b; BLOCK as usize]))
            .collect(),
        values: (0..=255u8)
            .map(|b| Bytes::from(vec![b; KV_VALUE_BYTES]))
            .collect(),
    }
}

#[derive(Debug)]
struct Client {
    ep: Endpoint,
    rpc: RpcChannel,
    initiator: Initiator,
    next: Ns,
}

/// The DPU, the NVMe-oF target, the network and the clients after
/// set-up, plus the last value written to each LBA and KV key.
#[derive(Debug)]
pub(crate) struct State {
    dpu: HyperionDpu,
    cp: ControlPlane,
    slot: SlotId,
    target: NvmeOfTarget,
    net: Network,
    server: Endpoint,
    transport: Transport,
    clients: Vec<Client>,
    written: Vec<Option<u8>>,
    kv: Vec<Option<u8>>,
    last_offloaded: Option<(u64, Option<u64>)>,
    tally: Tally,
}

/// Boots the DPU, inserts `key -> key * 7` for every tree key, deploys
/// fail2ban into a slot, and wires four clients to one hardware endpoint.
/// Also returns the host seconds of its boot and tree-populate stages.
pub(crate) fn setup(size: &Size) -> Result<(State, Named), String> {
    let clock = Instant::now();
    let mut dpu = DpuBuilder::new().auth_key(AUTH_KEY).build();
    let mut t = dpu.boot(Ns::ZERO).map_err(|e| format!("boot: {e}"))?;
    let boot_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    for key in 0..size.dpu_keys {
        let insert = TreeOp::Insert {
            key,
            value: key * 7,
        };
        t = dpu
            .dispatch(t, insert)
            .map_err(|e| format!("tree insert: {e}"))?
            .1;
    }
    let tree_populate_s = clock.elapsed().as_secs_f64();
    let mut cp = ControlPlane::new(AUTH_KEY);
    let (slot, live) =
        fail2ban::deploy(&mut dpu, &mut cp, t).map_err(|e| format!("deploy: {e}"))?;
    let mut net = Network::new();
    let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let transport = Transport::new(TransportKind::Udp);
    let clients = (0..CLIENTS)
        .map(|_| {
            let ep = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            Client {
                ep,
                rpc: RpcChannel::new(ep, server, transport),
                initiator: Initiator::new(),
                next: live,
            }
        })
        .collect();
    let state = State {
        dpu,
        cp,
        slot,
        target: NvmeOfTarget::new(TARGET_LBAS),
        net,
        server,
        transport,
        clients,
        written: vec![None; EXCHANGE_LBAS as usize],
        kv: vec![None; KV_KEYS as usize],
        last_offloaded: None,
        tally: Tally::default(),
    };
    let stages = vec![
        ("setup.boot_s", boot_s),
        ("setup.tree_populate_s", tree_populate_s),
    ];
    Ok((state, stages))
}

/// Model outputs gathered during one measured phase.
#[derive(Debug, Default)]
struct Tally {
    exchanges: u64,
    attempts: u64,
    queue_depth_max: usize,
    read_virt_ns: Vec<u64>,
    offloaded_virt_ns: Vec<u64>,
    client_virt_ns: Vec<u64>,
    rtts_offloaded: u64,
    rtts_client: u64,
    packets: u64,
    insns: u64,
    bans: u64,
    appends: u64,
}

fn word(node: &[u8], i: usize) -> Option<u64> {
    let at = 16 + i * 8;
    Some(u64::from_le_bytes(node.get(at..at + 8)?.try_into().ok()?))
}

/// Where a client-driven walk goes after reading `node`: `Ok(value)` at a
/// leaf, `Err(child_lba)` at an internal node. `None` if malformed. Same
/// node format as `hyperion_storage::btree`.
fn step(node: &[u8], key: u64) -> Option<Result<Option<u64>, u64>> {
    let tag = u32::from_le_bytes(node.get(0..4)?.try_into().ok()?);
    let n = u32::from_le_bytes(node.get(4..8)?.try_into().ok()?) as usize;
    if tag == 1 {
        for i in 0..n {
            if word(node, i)? == key {
                return Some(Ok(Some(word(node, n + i)?)));
            }
        }
        return Some(Ok(None));
    }
    let mut idx = 0;
    while idx < n && word(node, idx)? <= key {
        idx += 1;
    }
    Some(Err(word(node, n + idx)?))
}

impl State {
    /// One NVMe-oF exchange; a read must return `Ok` and the bytes last
    /// written to its LBA (zeros if never written).
    fn exchange<P: Probe>(
        &mut self,
        c: usize,
        now: Ns,
        lba: u64,
        write: Option<u8>,
        inputs: &Inputs,
        probe: &mut P,
    ) -> Option<Ns> {
        let client = &mut self.clients[c];
        let capsule = match write {
            Some(fill) => client
                .initiator
                .write(lba, inputs.pages[fill as usize].clone()),
            None => client.initiator.read(lba, 1),
        };
        let depth = self.target.device().queue_depth_at(now);
        self.tally.queue_depth_max = self.tally.queue_depth_max.max(depth);
        probe.open();
        let out = client.initiator.exchange(
            &mut self.net,
            &self.transport,
            client.ep,
            self.server,
            &mut self.target,
            capsule,
            now,
            &RetryPolicy::DEFAULT,
        );
        probe.close(if write.is_some() {
            "nvmeof.write"
        } else {
            "nvmeof.read"
        });
        let (resp, x) = out.ok()?;
        self.tally.exchanges += 1;
        self.tally.attempts += u64::from(x.attempts);
        if resp.status != FabricStatus::Ok {
            return None;
        }
        let slot = &mut self.written[lba as usize];
        match write {
            Some(fill) => *slot = Some(fill),
            None => {
                self.tally.read_virt_ns.push((x.done - now).0);
                let ok = match *slot {
                    Some(fill) => resp.data == inputs.pages[fill as usize],
                    None => resp.data.len() == BLOCK as usize && resp.data.iter().all(|&b| b == 0),
                };
                if !ok {
                    return None;
                }
            }
        }
        Some(x.done)
    }

    /// Offloaded lookup: the traversal runs on the DPU, then one RPC
    /// carries the answer. Must return `key * 7`.
    fn tree_offloaded<P: Probe>(
        &mut self,
        c: usize,
        now: Ns,
        key: u64,
        probe: &mut P,
    ) -> Option<Ns> {
        self.last_offloaded = None;
        probe.open();
        let out = self.dpu.dispatch(now, TreeOp::Lookup { key });
        probe.close("svc.tree_lookup");
        let (ServiceResponse::Value(value), served) = out.ok()? else {
            return None;
        };
        probe.open();
        let out = self.clients[c]
            .rpc
            .call(&mut self.net, TREE_LOOKUP, now, 16, 16, served - now);
        probe.close("rpc.call");
        let d = out.ok()?;
        self.tally.offloaded_virt_ns.push((d.done - now).0);
        self.tally.rtts_offloaded += d.wire_rounds;
        self.last_offloaded = Some((key, value));
        (value == Some(key * 7)).then_some(d.done)
    }

    /// Client-driven lookup: one node-read RPC per level, each node
    /// parsed at the client. Must return `key * 7`, as the preceding
    /// offloaded lookup of the same key did.
    fn tree_client<P: Probe>(&mut self, c: usize, now: Ns, key: u64, probe: &mut P) -> Option<Ns> {
        let tree = self.dpu.btree.as_ref()?;
        let (mut lba, height) = (tree.root_lba(), tree.height());
        let mut t = now;
        let mut rtts = 0;
        let mut value = None;
        for _ in 0..height {
            probe.open();
            let out = self.dpu.dispatch(t, TreeOp::NodeRead { lba });
            probe.close("svc.node_read");
            let (ServiceResponse::Node(node), served) = out.ok()? else {
                return None;
            };
            probe.open();
            let out =
                self.clients[c]
                    .rpc
                    .call(&mut self.net, TREE_NODE_READ, t, 16, BLOCK, served - t);
            probe.close("rpc.call");
            let d = out.ok()?;
            t = d.done;
            rtts += d.wire_rounds;
            match step(&node, key)? {
                Ok(v) => value = v,
                Err(child) => lba = child,
            }
        }
        self.tally.client_virt_ns.push((t - now).0);
        self.tally.rtts_client += rtts;
        let agrees = self.last_offloaded.take() == Some((key, value));
        (agrees && value == Some(key * 7)).then_some(t)
    }

    /// KV-SSD put or get; a get must return the last value put.
    fn kv<P: Probe>(
        &mut self,
        now: Ns,
        key: u16,
        put: Option<u8>,
        inputs: &Inputs,
        probe: &mut P,
    ) -> Option<Ns> {
        let key_bytes = key.to_le_bytes().to_vec();
        let op = match put {
            Some(fill) => KvOp::SsdPut {
                key: key_bytes,
                value: inputs.values[fill as usize].clone(),
            },
            None => KvOp::SsdGet { key: key_bytes },
        };
        probe.open();
        let out = self.dpu.dispatch(now, op);
        probe.close("svc.kv");
        let (resp, done) = out.ok()?;
        let last = &mut self.kv[key as usize];
        let ok = match (put, resp) {
            (Some(fill), ServiceResponse::Ok) => {
                *last = Some(fill);
                true
            }
            (None, ServiceResponse::KvValue(v)) => {
                v.as_ref() == last.map(|f| &inputs.values[f as usize])
            }
            _ => false,
        };
        ok.then_some(done)
    }

    /// One packet through the fail2ban pipeline; a ban is appended to the
    /// Corfu log and must read back at its position.
    fn packet<P: Probe>(
        &mut self,
        now: Ns,
        flow: u64,
        hash: u64,
        marker: u8,
        probe: &mut P,
    ) -> Option<Ns> {
        let mut ctx = [0u8; CTX_LEN as usize];
        ctx[0..8].copy_from_slice(&hash.to_le_bytes());
        ctx[8] = marker;
        let kernel = self.cp.kernel_mut(self.slot)?;
        probe.open();
        let out = kernel.pipeline.process(&mut kernel.vm, &mut ctx, now);
        probe.close("f2b.pipeline");
        let (result, done) = out.ok()?;
        self.tally.packets += 1;
        self.tally.insns += result.insns;
        if result.ret == 1 {
            self.tally.bans += 1;
            let mut entry = [0u8; 16];
            entry[..8].copy_from_slice(&flow.to_le_bytes());
            entry[8..].copy_from_slice(&done.0.to_le_bytes());
            probe.open();
            let out = self.dpu.log.append(&entry, done);
            probe.close("corfu.append");
            let (position, durable) = out.ok()?;
            self.tally.appends += 1;
            match self.dpu.log.read(position, durable).ok()?.0 {
                LogEntry::Data(d) if d[..] == entry[..] => {}
                _ => return None,
            }
        }
        Some(done)
    }
}

/// The measured phase: every generated op once, each issued by the
/// client whose previous op completed first.
pub(crate) fn measure<P: Probe>(
    st: &mut State,
    inputs: &Inputs,
    probe: &mut P,
    blocks: &mut BlockTimer,
) -> Episode {
    let messages = st.net.messages();
    let bytes = st.net.bytes();
    let (reads, programs, _) = st.target.device().flash_ops();
    let start = st.clients.iter().map(|c| c.next).min().unwrap_or(Ns::ZERO);
    let mut failed = 0;
    for &op in &inputs.ops {
        let mut c = 0;
        for (i, client) in st.clients.iter().enumerate() {
            if client.next < st.clients[c].next {
                c = i;
            }
        }
        let now = st.clients[c].next;
        probe.open();
        let (done, name) = match op {
            Op::NvmeRead { lba } => (
                st.exchange(c, now, lba, None, inputs, probe),
                "op.nvmeof_read",
            ),
            Op::NvmeWrite { lba, fill } => (
                st.exchange(c, now, lba, Some(fill), inputs, probe),
                "op.nvmeof_write",
            ),
            Op::TreeOffloaded { key } => {
                (st.tree_offloaded(c, now, key, probe), "op.tree_offloaded")
            }
            Op::TreeClient { key } => (st.tree_client(c, now, key, probe), "op.tree_client"),
            Op::KvPut { key, fill } => (st.kv(now, key, Some(fill), inputs, probe), "op.kv_put"),
            Op::KvGet { key } => (st.kv(now, key, None, inputs, probe), "op.kv_get"),
            Op::Packet { flow, hash, marker } => {
                (st.packet(now, flow, hash, marker, probe), "op.packet")
            }
        };
        probe.close(name);
        match done {
            Some(done) => st.clients[c].next = done,
            None => failed += 1,
        }
        blocks.tick();
    }
    let end = st.clients.iter().map(|c| c.next).max().unwrap_or(start);
    let (reads_after, programs_after, _) = st.target.device().flash_ops();
    let us = |ns: u64| ns as f64 / 1e3;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mut m = std::mem::take(&mut st.tally);
    m.read_virt_ns.sort_unstable();
    m.offloaded_virt_ns.sort_unstable();
    m.client_virt_ns.sort_unstable();
    let model = vec![
        ("nvmeof.attempts_per_exchange", per(m.exchanges, m.attempts)),
        ("net.messages", (st.net.messages() - messages) as f64),
        ("net.bytes", (st.net.bytes() - bytes) as f64),
        ("nvme.queue_depth_max", m.queue_depth_max as f64),
        ("nvme.flash_reads", (reads_after - reads) as f64),
        ("nvme.flash_programs", (programs_after - programs) as f64),
        ("f2b.insns_per_packet", per(m.insns, m.packets)),
        ("f2b.bans", m.bans as f64),
        ("corfu.appends", m.appends as f64),
        (
            "nvmeof.virt_read_p50_us",
            us(percentile(&m.read_virt_ns, 0.50)),
        ),
        (
            "nvmeof.virt_read_p99_us",
            us(percentile(&m.read_virt_ns, 0.99)),
        ),
        (
            "chase.virt_offloaded_p50_us",
            us(percentile(&m.offloaded_virt_ns, 0.50)),
        ),
        (
            "chase.virt_client_p50_us",
            us(percentile(&m.client_virt_ns, 0.50)),
        ),
        (
            "chase.rtts_client",
            per(m.rtts_client, m.client_virt_ns.len() as u64),
        ),
        (
            "chase.rtts_offloaded",
            per(m.rtts_offloaded, m.offloaded_virt_ns.len() as u64),
        ),
        (
            "f2b.virt_pps",
            m.packets as f64 / (end - start).as_secs_f64(),
        ),
    ];
    Episode {
        ops: inputs.ops.len() as u64,
        failed,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_pairs_every_client_lookup_with_an_offloaded_one() {
        let size = Size::TINY;
        let inputs = inputs(7, &size);
        let mut pending = None;
        let mut kinds = [0usize; 4];
        for op in &inputs.ops {
            match *op {
                Op::NvmeRead { .. } | Op::NvmeWrite { .. } => kinds[0] += 1,
                Op::TreeOffloaded { key } => {
                    kinds[1] += 1;
                    pending = Some(key);
                }
                Op::TreeClient { key } => {
                    kinds[1] += 1;
                    assert_eq!(pending.take(), Some(key));
                }
                Op::KvPut { .. } | Op::KvGet { .. } => kinds[2] += 1,
                Op::Packet { .. } => kinds[3] += 1,
            }
        }
        let n = inputs.ops.len() as f64;
        for (share, want) in kinds.iter().zip([0.35, 0.25, 0.15, 0.25]) {
            let got = *share as f64 / n;
            assert!((got - want).abs() < 0.05, "share {got} vs {want}");
        }
    }
}
