//! NVMe-over-Fabrics target: block storage exported straight from the DPU.
//!
//! Paper §2: "an application-defined network transport (TCP, UDP, RDMA,
//! HOMA), storage API (NVMoF, KV, ZNS)" and Table 1's storage-with-network
//! row (NVMe-oF today runs block-level protocols with the host CPU doing
//! everything above blocks). Hyperion's target parses command capsules in
//! fabric and funnels them through the FPGA-hosted root complex to the
//! SSDs — no host.
//!
//! The wire format is a compact capsule (not byte-compatible with the
//! NVMe-oF spec, but carrying the same information): a command header plus
//! inline data for writes, and a response capsule with status + inline
//! data for reads. Capsules serialize/deserialize exactly, so a remote
//! initiator and the target agree on bytes.

use bytes::{BufMut, Bytes, BytesMut};
use hyperion_net::transport::{Endpoint, RetryPolicy, Transport};
use hyperion_net::{NetError, Network};
use hyperion_nvme::device::{Command, NvmeDevice, NvmeError, Response};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

/// Capsule opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricOpcode {
    /// Block read.
    Read,
    /// Block write (inline data).
    Write,
    /// Flush.
    Flush,
}

impl FabricOpcode {
    fn to_byte(self) -> u8 {
        match self {
            FabricOpcode::Read => 0x02,
            FabricOpcode::Write => 0x01,
            FabricOpcode::Flush => 0x00,
        }
    }

    fn from_byte(b: u8) -> Option<FabricOpcode> {
        match b {
            0x02 => Some(FabricOpcode::Read),
            0x01 => Some(FabricOpcode::Write),
            0x00 => Some(FabricOpcode::Flush),
            _ => None,
        }
    }
}

/// A command capsule as sent by an initiator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandCapsule {
    /// Initiator-chosen command id (echoed in the response).
    pub cid: u16,
    /// Operation.
    pub opcode: FabricOpcode,
    /// Starting LBA.
    pub lba: u64,
    /// Block count (reads) — writes derive it from the data length.
    pub blocks: u32,
    /// Inline data for writes.
    pub data: Bytes,
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricStatus {
    /// Success.
    Ok,
    /// LBA out of range.
    LbaRange,
    /// Malformed capsule.
    InvalidField,
    /// Unrecoverable media error: the device retried the read and could
    /// not recover the data. Retrying the command does not help; the
    /// namespace keeps serving other LBAs (degraded, not down).
    MediaError,
}

/// A response capsule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseCapsule {
    /// Echoed command id.
    pub cid: u16,
    /// Completion status.
    pub status: FabricStatus,
    /// Inline data for reads.
    pub data: Bytes,
}

const CAPSULE_MAGIC: u16 = 0x4E46; // "NF"

impl CommandCapsule {
    /// Serializes the capsule to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(24 + self.data.len());
        out.put_u16_le(CAPSULE_MAGIC);
        out.put_u16_le(self.cid);
        out.put_u8(self.opcode.to_byte());
        out.put_u8(0); // reserved
        out.put_u16_le(0); // reserved
        out.put_u64_le(self.lba);
        out.put_u32_le(self.blocks);
        out.put_u32_le(self.data.len() as u32);
        out.put_slice(&self.data);
        out.freeze()
    }

    /// Parses a capsule from wire bytes. The inline data is a slice of
    /// `wire`, not a copy.
    pub fn decode(wire: &Bytes) -> Option<CommandCapsule> {
        if wire.len() < 24 {
            return None;
        }
        let magic = u16::from_le_bytes([wire[0], wire[1]]);
        if magic != CAPSULE_MAGIC {
            return None;
        }
        let cid = u16::from_le_bytes([wire[2], wire[3]]);
        let opcode = FabricOpcode::from_byte(wire[4])?;
        let lba = u64::from_le_bytes(wire[8..16].try_into().ok()?);
        let blocks = u32::from_le_bytes(wire[16..20].try_into().ok()?);
        let dlen = u32::from_le_bytes(wire[20..24].try_into().ok()?) as usize;
        if wire.len() < 24 + dlen {
            return None;
        }
        Some(CommandCapsule {
            cid,
            opcode,
            lba,
            blocks,
            data: wire.slice(24..24 + dlen),
        })
    }

    /// Total wire size.
    pub fn wire_len(&self) -> u64 {
        24 + self.data.len() as u64
    }
}

impl ResponseCapsule {
    /// Serializes the response to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(12 + self.data.len());
        out.put_u16_le(CAPSULE_MAGIC);
        out.put_u16_le(self.cid);
        out.put_u8(match self.status {
            FabricStatus::Ok => 0,
            FabricStatus::LbaRange => 1,
            FabricStatus::InvalidField => 2,
            FabricStatus::MediaError => 3,
        });
        out.put_u8(0);
        out.put_u16_le(0);
        out.put_u32_le(self.data.len() as u32);
        out.put_slice(&self.data);
        out.freeze()
    }

    /// Parses a response from wire bytes. The inline data is a slice of
    /// `wire`, not a copy.
    pub fn decode(wire: &Bytes) -> Option<ResponseCapsule> {
        if wire.len() < 12 {
            return None;
        }
        if u16::from_le_bytes([wire[0], wire[1]]) != CAPSULE_MAGIC {
            return None;
        }
        let cid = u16::from_le_bytes([wire[2], wire[3]]);
        let status = match wire[4] {
            0 => FabricStatus::Ok,
            1 => FabricStatus::LbaRange,
            3 => FabricStatus::MediaError,
            _ => FabricStatus::InvalidField,
        };
        let dlen = u32::from_le_bytes(wire[8..12].try_into().ok()?) as usize;
        if wire.len() < 12 + dlen {
            return None;
        }
        Some(ResponseCapsule {
            cid,
            status,
            data: wire.slice(12..12 + dlen),
        })
    }

    /// Total wire size.
    pub fn wire_len(&self) -> u64 {
        12 + self.data.len() as u64
    }
}

/// The in-fabric target: executes capsules against one namespace.
#[derive(Debug)]
pub struct NvmeOfTarget {
    device: NvmeDevice,
    served: u64,
}

impl NvmeOfTarget {
    /// Creates a target over a fresh block namespace of `capacity_lbas`.
    pub fn new(capacity_lbas: u64) -> NvmeOfTarget {
        NvmeOfTarget {
            device: NvmeDevice::new_block(capacity_lbas),
            served: 0,
        }
    }

    /// Commands served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Installs a fault plan on the backing namespace (see the
    /// `hyperion-nvme` fault sites).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.device.set_fault_plan(plan);
    }

    /// The backing device (e.g. to inspect degraded state after faults).
    pub fn device(&self) -> &NvmeDevice {
        &self.device
    }

    /// Executes one raw capsule arriving at `now`; returns the encoded
    /// response and its ready time. Malformed capsules get an
    /// `InvalidField` response rather than silence (the initiator must be
    /// able to time out deterministically in simulation).
    pub fn handle(&mut self, wire: &Bytes, now: Ns) -> (Bytes, Ns) {
        let Some(capsule) = CommandCapsule::decode(wire) else {
            let resp = ResponseCapsule {
                cid: 0,
                status: FabricStatus::InvalidField,
                data: Bytes::new(),
            };
            return (resp.encode(), now);
        };
        self.served += 1;
        let cid = capsule.cid;
        let outcome: Result<(Response, Ns), NvmeError> = match capsule.opcode {
            FabricOpcode::Read => self
                .device
                .submit(
                    Command::Read {
                        lba: capsule.lba,
                        blocks: capsule.blocks,
                    },
                    now,
                )
                .map(|c| (c.response, c.done)),
            FabricOpcode::Write => self
                .device
                .submit(
                    Command::Write {
                        lba: capsule.lba,
                        data: capsule.data,
                    },
                    now,
                )
                .map(|c| (c.response, c.done)),
            FabricOpcode::Flush => self
                .device
                .submit(Command::Flush, now)
                .map(|c| (c.response, c.done)),
        };
        let (resp, done) = match outcome {
            Ok((Response::Data(data), done)) => (
                ResponseCapsule {
                    cid,
                    status: FabricStatus::Ok,
                    data,
                },
                done,
            ),
            Ok((_, done)) => (
                ResponseCapsule {
                    cid,
                    status: FabricStatus::Ok,
                    data: Bytes::new(),
                },
                done,
            ),
            Err(NvmeError::OutOfRange { .. }) => (
                ResponseCapsule {
                    cid,
                    status: FabricStatus::LbaRange,
                    data: Bytes::new(),
                },
                now,
            ),
            Err(NvmeError::MediaError { .. }) => (
                ResponseCapsule {
                    cid,
                    status: FabricStatus::MediaError,
                    data: Bytes::new(),
                },
                now,
            ),
            Err(_) => (
                ResponseCapsule {
                    cid,
                    status: FabricStatus::InvalidField,
                    data: Bytes::new(),
                },
                now,
            ),
        };
        (resp.encode(), done)
    }
}

/// A remote initiator: issues capsules over a transport and decodes
/// responses (the client half used by tests and benches).
#[derive(Debug)]
pub struct Initiator {
    next_cid: u16,
}

impl Default for Initiator {
    fn default() -> Self {
        Self::new()
    }
}

/// How one fabric command exchange finished.
#[derive(Debug, Clone, Copy)]
pub struct FabricExchange {
    /// When the response capsule reached the initiator.
    pub done: Ns,
    /// When the winning attempt was issued (`> now` iff retries pushed
    /// the command out — time the critical path spends waiting, not
    /// working).
    pub started: Ns,
    /// Command attempts it took (1 = first try succeeded).
    pub attempts: u32,
}

/// When retrying after `e` helps, the earliest instant the next attempt
/// may be issued (timeout for silent drops, NACK/link-return otherwise,
/// plus backoff); `None` when the error is fatal to the exchange.
fn next_attempt_at(e: &NetError, t: Ns, policy: &RetryPolicy, attempt: u32) -> Option<Ns> {
    match e {
        NetError::Dropped => Some(t + policy.timeout + policy.backoff(attempt)),
        NetError::Corrupted { delivered_at } => {
            Some((*delivered_at).max(t) + policy.backoff(attempt))
        }
        NetError::LinkDown { until } => Some((*until).max(t) + policy.backoff(attempt)),
        _ => None,
    }
}

impl Initiator {
    /// Creates an initiator.
    pub fn new() -> Initiator {
        Initiator { next_cid: 1 }
    }

    fn alloc_cid(&mut self) -> u16 {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        cid
    }

    /// Builds a read capsule.
    pub fn read(&mut self, lba: u64, blocks: u32) -> CommandCapsule {
        CommandCapsule {
            cid: self.alloc_cid(),
            opcode: FabricOpcode::Read,
            lba,
            blocks,
            data: Bytes::new(),
        }
    }

    /// Builds a write capsule.
    pub fn write(&mut self, lba: u64, data: Bytes) -> CommandCapsule {
        CommandCapsule {
            cid: self.alloc_cid(),
            opcode: FabricOpcode::Write,
            lba,
            blocks: 0,
            data,
        }
    }

    /// Drives one command exchange (request over the fabric, execute on
    /// the target, response back) to completion under `policy`.
    ///
    /// Either leg failing re-issues the whole command — NVMe-oF command
    /// retry sits above transport loss — after the policy's timeout (for
    /// silent drops) or the failure's own resolution instant, plus capped
    /// exponential backoff. Each retry re-arms with a fresh `cid` so a
    /// stale response cannot be confused with the live attempt. Gives up
    /// with [`NetError::Exhausted`] after `policy.max_attempts` attempts.
    #[allow(clippy::too_many_arguments)]
    pub fn exchange(
        &mut self,
        net: &mut Network,
        tr: &Transport,
        client: Endpoint,
        target_ep: Endpoint,
        target: &mut NvmeOfTarget,
        mut capsule: CommandCapsule,
        now: Ns,
        policy: &RetryPolicy,
    ) -> Result<(ResponseCapsule, FabricExchange), NetError> {
        self.exchange_inner(
            net,
            tr,
            client,
            target_ep,
            target,
            &mut capsule,
            now,
            policy,
            None,
        )
    }

    /// [`Initiator::exchange`] with telemetry: an `nvmeof` span over the
    /// whole session, per-failure retry counters, and a queueing edge when
    /// retries delayed the start of the winning attempt.
    #[allow(clippy::too_many_arguments)]
    pub fn exchange_traced(
        &mut self,
        net: &mut Network,
        tr: &Transport,
        client: Endpoint,
        target_ep: Endpoint,
        target: &mut NvmeOfTarget,
        mut capsule: CommandCapsule,
        now: Ns,
        policy: &RetryPolicy,
        rec: &mut Recorder,
    ) -> Result<(ResponseCapsule, FabricExchange), NetError> {
        let label = match capsule.opcode {
            FabricOpcode::Read => "nvmeof:read",
            FabricOpcode::Write => "nvmeof:write",
            FabricOpcode::Flush => "nvmeof:flush",
        };
        let span = rec.open(Component::Service, label, now);
        let out = self.exchange_inner(
            net,
            tr,
            client,
            target_ep,
            target,
            &mut capsule,
            now,
            policy,
            Some(rec),
        );
        match &out {
            Ok((_, x)) => {
                if x.attempts > 1 {
                    rec.count("nvmeof:retries", (x.attempts - 1) as u64);
                }
                if x.started > now {
                    rec.queue_edge(span, x.started);
                }
                rec.close(span, x.done);
            }
            Err(_) => {
                rec.bump("nvmeof:gave_up");
                rec.close(span, now);
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn exchange_inner(
        &mut self,
        net: &mut Network,
        tr: &Transport,
        client: Endpoint,
        target_ep: Endpoint,
        target: &mut NvmeOfTarget,
        capsule: &mut CommandCapsule,
        now: Ns,
        policy: &RetryPolicy,
        mut rec: Option<&mut Recorder>,
    ) -> Result<(ResponseCapsule, FabricExchange), NetError> {
        let mut t = now;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                capsule.cid = self.alloc_cid();
            }
            let err = match tr.send(net, client, target_ep, t, capsule.wire_len()) {
                Ok(d) => {
                    let (resp_wire, ready) = target.handle(&capsule.encode(), d.done);
                    let resp =
                        ResponseCapsule::decode(&resp_wire).expect("target responses decode");
                    match tr.send(net, target_ep, client, ready, resp.wire_len()) {
                        Ok(back) => {
                            return Ok((
                                resp,
                                FabricExchange {
                                    done: back.done,
                                    started: t,
                                    attempts: attempt + 1,
                                },
                            ));
                        }
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            match next_attempt_at(&err, t, policy, attempt) {
                Some(next) => {
                    if let Some(rec) = rec.as_deref_mut() {
                        let counter = match &err {
                            NetError::Dropped => Some("nvmeof:timeouts"),
                            NetError::Corrupted { .. } => Some("nvmeof:corrupt"),
                            NetError::LinkDown { .. } => Some("nvmeof:link_down"),
                            _ => None,
                        };
                        if let Some(counter) = counter {
                            rec.bump(counter);
                            // Mark the fault arrival on the trace timeline
                            // too — the counter says how many, the instant
                            // says when.
                            rec.instant(&format!("fault:{counter}"), t);
                        }
                    }
                    t = next;
                }
                None => return Err(err),
            }
        }
        Err(NetError::Exhausted {
            attempts: policy.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
    use hyperion_net::Network;

    #[test]
    fn capsules_round_trip_on_the_wire() {
        let c = CommandCapsule {
            cid: 77,
            opcode: FabricOpcode::Write,
            lba: 1234,
            blocks: 0,
            data: Bytes::from(vec![9u8; 4096]),
        };
        let wire = c.encode();
        assert_eq!(CommandCapsule::decode(&wire), Some(c));
        let r = ResponseCapsule {
            cid: 77,
            status: FabricStatus::Ok,
            data: Bytes::from_static(b"abc"),
        };
        assert_eq!(ResponseCapsule::decode(&r.encode()), Some(r));
    }

    #[test]
    fn truncated_or_garbage_capsules_rejected() {
        assert_eq!(
            CommandCapsule::decode(&Bytes::from_static(&[1, 2, 3])),
            None
        );
        let mut wire = Initiator::new().read(0, 1).encode().to_vec();
        wire[0] ^= 0xFF; // break the magic
        assert_eq!(CommandCapsule::decode(&Bytes::from(wire)), None);
        // The target answers garbage with InvalidField, not silence.
        let mut target = NvmeOfTarget::new(1 << 16);
        let (resp, _) = target.handle(&Bytes::from_static(&[0u8; 4]), Ns::ZERO);
        let resp = ResponseCapsule::decode(&resp).expect("decodable");
        assert_eq!(resp.status, FabricStatus::InvalidField);
    }

    #[test]
    fn write_then_read_through_the_target() {
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let payload = Bytes::from(vec![0x5Au8; 4096]);
        let w = ini.write(50, payload.clone());
        let (resp, t) = target.handle(&w.encode(), Ns::ZERO);
        let resp = ResponseCapsule::decode(&resp).expect("decodable");
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(resp.cid, w.cid);

        let r = ini.read(50, 1);
        let (resp, _) = target.handle(&r.encode(), t);
        let resp = ResponseCapsule::decode(&resp).expect("decodable");
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(resp.data, payload);
    }

    #[test]
    fn zero_block_read_is_an_invalid_field() {
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        for lba in [0, 7] {
            let (resp, now) = target.handle(&ini.read(lba, 0).encode(), Ns(100));
            let resp = ResponseCapsule::decode(&resp).expect("decodable");
            assert_eq!(resp.status, FabricStatus::InvalidField);
            assert!(resp.data.is_empty());
            assert_eq!(now, Ns(100), "rejected before any flash work");
        }
    }

    #[test]
    fn decoded_payloads_share_the_wire_buffer() {
        let w = Initiator::new().write(3, Bytes::from(vec![7u8; 4096]));
        let wire = w.encode();
        let c = CommandCapsule::decode(&wire).expect("decodable");
        assert_eq!(c.data.as_ptr(), wire[24..].as_ptr());
        let r = ResponseCapsule {
            cid: 1,
            status: FabricStatus::Ok,
            data: c.data,
        };
        let wire = r.encode();
        let back = ResponseCapsule::decode(&wire).expect("decodable");
        assert_eq!(back.data.as_ptr(), wire[12..].as_ptr());
        assert_eq!(back, r);
    }

    #[test]
    fn out_of_range_reported_in_status() {
        let mut target = NvmeOfTarget::new(16);
        let mut ini = Initiator::new();
        let (resp, _) = target.handle(&ini.read(20, 1).encode(), Ns::ZERO);
        let resp = ResponseCapsule::decode(&resp).expect("decodable");
        assert_eq!(resp.status, FabricStatus::LbaRange);
    }

    #[test]
    fn media_error_travels_the_wire_as_typed_status() {
        use hyperion_nvme::FAULT_NVME_MEDIA_READ;
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        // Seed data, then make every media sense fail: the device's own
        // retry also fails and the target must answer MediaError.
        let w = ini.write(9, Bytes::from(vec![3u8; 4096]));
        let (_, t) = target.handle(&w.encode(), Ns::ZERO);
        target.set_fault_plan(FaultPlan::seeded(1).window(
            FAULT_NVME_MEDIA_READ,
            Ns::ZERO,
            Ns(u64::MAX),
        ));
        let (resp, _) = target.handle(&ini.read(9, 1).encode(), t);
        let resp = ResponseCapsule::decode(&resp).expect("decodable");
        assert_eq!(resp.status, FabricStatus::MediaError);
        // The status round-trips through the capsule encoding.
        let again = ResponseCapsule::decode(&resp.encode()).expect("decodable");
        assert_eq!(again.status, FabricStatus::MediaError);
    }

    #[test]
    fn exchange_retries_through_fabric_loss() {
        use hyperion_net::{RetryPolicy, FAULT_NET_DROP};
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        net.set_fault_plan(
            hyperion_sim::fault::FaultPlan::seeded(11).bernoulli(FAULT_NET_DROP, 0.5),
        );
        let tr = Transport::new(TransportKind::Tcp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::DEFAULT
        };
        let mut rec = hyperion_telemetry::Recorder::new("nvmeof");
        let mut t = Ns::ZERO;
        let mut retried = 0u32;
        for i in 0..8u64 {
            let capsule = ini.write(i, Bytes::from(vec![i as u8; 4096]));
            let (resp, x) = ini
                .exchange_traced(
                    &mut net,
                    &tr,
                    client,
                    dpu,
                    &mut target,
                    capsule,
                    t,
                    &policy,
                    &mut rec,
                )
                .expect("bounded retry recovers at 50% loss");
            assert_eq!(resp.status, FabricStatus::Ok);
            assert!(x.attempts <= policy.max_attempts);
            retried += x.attempts - 1;
            t = x.done;
        }
        assert!(retried > 0, "50% loss must force at least one retry");
        assert_eq!(rec.counter("nvmeof:retries"), retried as u64);
        assert_eq!(rec.open_spans(), 0);
        assert!(
            !rec.queue_edges().is_empty(),
            "retry waits must be queueing edges"
        );
    }

    #[test]
    fn exchange_gives_up_bounded_under_total_loss() {
        use hyperion_net::{RetryPolicy, FAULT_NET_DROP};
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        net.set_fault_plan(
            hyperion_sim::fault::FaultPlan::seeded(3).bernoulli(FAULT_NET_DROP, 1.0),
        );
        let tr = Transport::new(TransportKind::Udp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::DEFAULT
        };
        let mut rec = hyperion_telemetry::Recorder::new("nvmeof");
        let capsule = ini.read(0, 1);
        let out = ini.exchange_traced(
            &mut net,
            &tr,
            client,
            dpu,
            &mut target,
            capsule,
            Ns::ZERO,
            &policy,
            &mut rec,
        );
        assert!(matches!(out, Err(NetError::Exhausted { attempts: 4 })));
        assert_eq!(rec.counter("nvmeof:gave_up"), 1);
        assert_eq!(rec.counter("nvmeof:timeouts"), 4);
        assert_eq!(target.served(), 0, "nothing reached the target");
    }

    #[test]
    fn remote_block_access_over_the_network() {
        // Full path: initiator -> transport -> target -> transport back.
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let tr = Transport::new(TransportKind::Tcp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();

        // Write.
        let capsule = ini.write(7, Bytes::from(vec![1u8; 4096]));
        let d = tr
            .send(&mut net, client, dpu, Ns::ZERO, capsule.wire_len())
            .expect("send");
        let (resp_wire, ready) = target.handle(&capsule.encode(), d.done);
        let resp = ResponseCapsule::decode(&resp_wire).expect("decodable");
        let back = tr
            .send(&mut net, dpu, client, ready, resp.wire_len())
            .expect("send");
        assert_eq!(resp.status, FabricStatus::Ok);
        // End-to-end write latency is flash-program class plus two
        // traversals.
        assert!(back.done > Ns(600_000), "write e2e {}", back.done);
        assert!(back.done < Ns(1_000_000), "write e2e {}", back.done);
        assert_eq!(target.served(), 1);
    }
}
