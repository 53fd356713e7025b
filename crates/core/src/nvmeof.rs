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
//! data for reads. On the fabric a capsule is two segments, the way a NIC
//! posts a gather list or an NVMe-oF command carries an SGL: the encoded
//! header (`encode` writes only that) and the inline data as its own
//! shared [`Bytes`]. Headers encode and decode exactly, so a remote
//! initiator and the target agree on every field, and `decode` rejects a
//! header whose data length disagrees with the segment beside it. The
//! data itself is never copied: a 4 KiB block written by a client is the
//! buffer the device stores and the buffer a later read returns. Timing
//! and byte counts come from `wire_len`, header plus data.

use bytes::Bytes;
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

/// Bytes in an encoded command capsule header.
pub const COMMAND_HEADER_LEN: usize = 24;
/// Bytes in an encoded response capsule header.
pub const RESPONSE_HEADER_LEN: usize = 12;

impl CommandCapsule {
    /// Encodes the capsule header. The inline data is not copied: it
    /// travels beside the header as its own segment.
    pub fn encode(&self) -> [u8; COMMAND_HEADER_LEN] {
        let mut h = [0u8; COMMAND_HEADER_LEN];
        h[0..2].copy_from_slice(&CAPSULE_MAGIC.to_le_bytes());
        h[2..4].copy_from_slice(&self.cid.to_le_bytes());
        h[4] = self.opcode.to_byte();
        // Bytes 5..8 are reserved (zero).
        h[8..16].copy_from_slice(&self.lba.to_le_bytes());
        h[16..20].copy_from_slice(&self.blocks.to_le_bytes());
        h[20..24].copy_from_slice(&(self.data.len() as u32).to_le_bytes());
        h
    }

    /// Parses a capsule from its header and its inline data segment,
    /// which becomes the capsule's data as is. Rejects a header of the
    /// wrong length, a bad magic or opcode, and a data length that
    /// disagrees with the segment.
    pub fn decode(header: &[u8], data: Bytes) -> Option<CommandCapsule> {
        let h: &[u8; COMMAND_HEADER_LEN] = header.try_into().ok()?;
        if u16::from_le_bytes([h[0], h[1]]) != CAPSULE_MAGIC {
            return None;
        }
        let dlen = u32::from_le_bytes(h[20..24].try_into().expect("4 bytes"));
        if dlen as usize != data.len() {
            return None;
        }
        Some(CommandCapsule {
            cid: u16::from_le_bytes([h[2], h[3]]),
            opcode: FabricOpcode::from_byte(h[4])?,
            lba: u64::from_le_bytes(h[8..16].try_into().expect("8 bytes")),
            blocks: u32::from_le_bytes(h[16..20].try_into().expect("4 bytes")),
            data,
        })
    }

    /// Total wire size: header plus inline data.
    pub fn wire_len(&self) -> u64 {
        (COMMAND_HEADER_LEN + self.data.len()) as u64
    }
}

impl ResponseCapsule {
    /// Encodes the response header. The inline data is not copied: it
    /// travels beside the header as its own segment.
    pub fn encode(&self) -> [u8; RESPONSE_HEADER_LEN] {
        let mut h = [0u8; RESPONSE_HEADER_LEN];
        h[0..2].copy_from_slice(&CAPSULE_MAGIC.to_le_bytes());
        h[2..4].copy_from_slice(&self.cid.to_le_bytes());
        h[4] = match self.status {
            FabricStatus::Ok => 0,
            FabricStatus::LbaRange => 1,
            FabricStatus::InvalidField => 2,
            FabricStatus::MediaError => 3,
        };
        // Bytes 5..8 are reserved (zero).
        h[8..12].copy_from_slice(&(self.data.len() as u32).to_le_bytes());
        h
    }

    /// Parses a response from its header and its inline data segment,
    /// which becomes the response's data as is. Rejects a header of the
    /// wrong length, a bad magic, and a data length that disagrees with
    /// the segment.
    pub fn decode(header: &[u8], data: Bytes) -> Option<ResponseCapsule> {
        let h: &[u8; RESPONSE_HEADER_LEN] = header.try_into().ok()?;
        if u16::from_le_bytes([h[0], h[1]]) != CAPSULE_MAGIC {
            return None;
        }
        let dlen = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
        if dlen as usize != data.len() {
            return None;
        }
        let status = match h[4] {
            0 => FabricStatus::Ok,
            1 => FabricStatus::LbaRange,
            3 => FabricStatus::MediaError,
            _ => FabricStatus::InvalidField,
        };
        Some(ResponseCapsule {
            cid: u16::from_le_bytes([h[2], h[3]]),
            status,
            data,
        })
    }

    /// Total wire size: header plus inline data.
    pub fn wire_len(&self) -> u64 {
        (RESPONSE_HEADER_LEN + self.data.len()) as u64
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

    /// Executes one capsule arriving at `now` as its encoded header and
    /// its inline data segment; returns the response the same way, with
    /// its ready time. Write data reaches the device and read data leaves
    /// it as the segments themselves, never copied. Malformed capsules get
    /// an `InvalidField` response rather than silence (the initiator must
    /// be able to time out deterministically in simulation).
    pub fn handle(
        &mut self,
        header: &[u8],
        data: Bytes,
        now: Ns,
    ) -> ([u8; RESPONSE_HEADER_LEN], Bytes, Ns) {
        let (cid, outcome) = match CommandCapsule::decode(header, data) {
            Some(capsule) => {
                self.served += 1;
                (capsule.cid, self.execute(capsule, now))
            }
            None => (0, Err(FabricStatus::InvalidField)),
        };
        let (status, data, done) = match outcome {
            Ok((data, done)) => (FabricStatus::Ok, data, done),
            Err(status) => (status, Bytes::new(), now),
        };
        let resp = ResponseCapsule { cid, status, data };
        (resp.encode(), resp.data, done)
    }

    /// Runs a decoded capsule on the device: the response data and
    /// completion instant, or the failure status.
    fn execute(&mut self, capsule: CommandCapsule, now: Ns) -> Result<(Bytes, Ns), FabricStatus> {
        let cmd = match capsule.opcode {
            FabricOpcode::Read => Command::Read {
                lba: capsule.lba,
                blocks: capsule.blocks,
            },
            FabricOpcode::Write => Command::Write {
                lba: capsule.lba,
                data: capsule.data,
            },
            FabricOpcode::Flush => Command::Flush,
        };
        match self.device.submit(cmd, now) {
            Ok(c) => match c.response {
                Response::Data(data) => Ok((data, c.done)),
                _ => Ok((Bytes::new(), c.done)),
            },
            Err(NvmeError::OutOfRange { .. }) => Err(FabricStatus::LbaRange),
            Err(NvmeError::MediaError { .. }) => Err(FabricStatus::MediaError),
            Err(_) => Err(FabricStatus::InvalidField),
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Counter and trace instant for one NVMe-oF command retry: the counter
/// says how many, the instant says when the failed attempt was issued.
fn count_nvmeof_retry(rec: &mut Recorder, e: &NetError, t: Ns) {
    let (counter, instant) = match e {
        NetError::Dropped => ("nvmeof:timeouts", "fault:nvmeof:timeouts"),
        NetError::Corrupted { .. } => ("nvmeof:corrupt", "fault:nvmeof:corrupt"),
        NetError::LinkDown { .. } => ("nvmeof:link_down", "fault:nvmeof:link_down"),
        _ => return,
    };
    rec.bump(counter);
    rec.instant(instant, t);
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

    /// Drives one command exchange to completion under `policy` (see
    /// [`Initiator::exchange_traced`]).
    #[allow(clippy::too_many_arguments)]
    pub fn exchange(
        &mut self,
        net: &mut Network,
        tr: &Transport,
        client: Endpoint,
        target_ep: Endpoint,
        target: &mut NvmeOfTarget,
        capsule: CommandCapsule,
        now: Ns,
        policy: &RetryPolicy,
    ) -> Result<(ResponseCapsule, FabricExchange), NetError> {
        self.exchange_traced(
            net, tr, client, target_ep, target, capsule, now, policy, None,
        )
    }

    /// Drives one command exchange (request over the fabric, execute on
    /// the target, response back) to completion under `policy`.
    ///
    /// Either leg failing re-issues the whole command — NVMe-oF command
    /// retry sits above transport loss — at
    /// [`RetryPolicy::retry_at`]. Each retry re-arms with a fresh `cid` so
    /// a stale response cannot be confused with the live attempt. Gives up
    /// with [`NetError::Exhausted`] after `policy.max_attempts` attempts
    /// (at least one).
    ///
    /// With a recorder: an `nvmeof` span over the whole session,
    /// per-failure retry counters and `fault:nvmeof:*` instants, and a
    /// queueing edge when retries delayed the start of the winning
    /// attempt. The fabric legs themselves record nothing.
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
        mut rec: Option<&mut Recorder>,
    ) -> Result<(ResponseCapsule, FabricExchange), NetError> {
        let span = rec.as_deref_mut().map(|rec| {
            let label = match capsule.opcode {
                FabricOpcode::Read => "nvmeof:read",
                FabricOpcode::Write => "nvmeof:write",
                FabricOpcode::Flush => "nvmeof:flush",
            };
            rec.open(Component::Service, label, now)
        });
        let attempt = |t, k, _: Option<&mut Recorder>| {
            if k > 0 {
                capsule.cid = self.alloc_cid();
            }
            let d = tr.send(net, client, target_ep, t, capsule.wire_len())?;
            let (header, data, ready) =
                target.handle(&capsule.encode(), capsule.data.clone(), d.done);
            let resp = ResponseCapsule::decode(&header, data).expect("target responses decode");
            let back = tr.send(net, target_ep, client, ready, resp.wire_len())?;
            Ok((resp, back.done))
        };
        let run = policy.drive(now, rec.as_deref_mut(), attempt, count_nvmeof_retry);
        let out = run.result.map(|(resp, done)| {
            let x = FabricExchange {
                done,
                started: run.last,
                attempts: run.attempts,
            };
            (resp, x)
        });
        if let (Some(rec), Some(span)) = (rec, span) {
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
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
    use hyperion_net::Network;

    /// Sends `c` to `target` as its header and data segment, and decodes
    /// the answer.
    fn handle_capsule(
        target: &mut NvmeOfTarget,
        c: &CommandCapsule,
        now: Ns,
    ) -> (ResponseCapsule, Ns) {
        let (header, data, done) = target.handle(&c.encode(), c.data.clone(), now);
        let resp = ResponseCapsule::decode(&header, data).expect("target responses decode");
        (resp, done)
    }

    #[test]
    fn capsules_round_trip_on_the_wire() {
        let c = CommandCapsule {
            cid: 77,
            opcode: FabricOpcode::Write,
            lba: 1234,
            blocks: 0,
            data: Bytes::from(vec![9u8; 4096]),
        };
        let header = c.encode();
        assert_eq!(header.len() as u64, c.wire_len() - 4096);
        assert_eq!(CommandCapsule::decode(&header, c.data.clone()), Some(c));
        let r = ResponseCapsule {
            cid: 77,
            status: FabricStatus::Ok,
            data: Bytes::from_static(b"abc"),
        };
        assert_eq!(
            ResponseCapsule::decode(&r.encode(), r.data.clone()),
            Some(r)
        );
    }

    #[test]
    fn truncated_or_garbage_capsules_rejected() {
        let page = Bytes::from(vec![7u8; 4096]);
        let w = Initiator::new().write(5, page.clone());
        let header = w.encode();
        assert!(CommandCapsule::decode(&header, page.clone()).is_some());
        // A truncated header, a bad magic, a bad opcode, and data lengths
        // that disagree with the segment beside the header.
        let mut bad_magic = header;
        bad_magic[0] ^= 0xFF;
        let mut bad_opcode = header;
        bad_opcode[4] = 0x7F;
        let short = page.slice(..4095);
        let read = Initiator::new().read(5, 1).encode();
        let rejected: [(&[u8], Bytes); 6] = [
            (&header[..23], page.clone()),
            (&bad_magic, page.clone()),
            (&bad_opcode, page.clone()),
            (&header, short.clone()),
            (&header, Bytes::new()),
            (&read, page.clone()),
        ];
        let mut target = NvmeOfTarget::new(1 << 16);
        for (header, data) in rejected {
            assert_eq!(CommandCapsule::decode(header, data.clone()), None);
            // The target answers garbage with InvalidField, not silence,
            // and before any device work.
            let (resp, data, done) = target.handle(header, data, Ns(100));
            let resp = ResponseCapsule::decode(&resp, data).expect("decodable");
            assert_eq!(resp.status, FabricStatus::InvalidField);
            assert!(resp.data.is_empty());
            assert_eq!(done, Ns(100));
        }
        assert_eq!(target.served(), 0);
        assert_eq!(target.device().stored_block(5), None, "nothing written");
        // Responses are held to the same rules.
        let r = ResponseCapsule {
            cid: 1,
            status: FabricStatus::Ok,
            data: page.clone(),
        };
        let mut bad_magic = r.encode();
        bad_magic[1] ^= 0xFF;
        assert_eq!(ResponseCapsule::decode(&bad_magic, page.clone()), None);
        assert_eq!(ResponseCapsule::decode(&r.encode(), short), None);
        let empty = ResponseCapsule {
            data: Bytes::new(),
            ..r.clone()
        };
        assert_eq!(ResponseCapsule::decode(&empty.encode(), page), None);
        assert_eq!(ResponseCapsule::decode(&r.encode()[..11], r.data), None);
    }

    #[test]
    fn write_then_read_through_the_target() {
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let payload = Bytes::from(vec![0x5Au8; 4096]);
        let w = ini.write(50, payload.clone());
        let (resp, t) = handle_capsule(&mut target, &w, Ns::ZERO);
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(resp.cid, w.cid);

        let r = ini.read(50, 1);
        let (resp, _) = handle_capsule(&mut target, &r, t);
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(resp.data, payload);
    }

    #[test]
    fn zero_block_read_is_an_invalid_field() {
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        for lba in [0, 7] {
            let (resp, now) = handle_capsule(&mut target, &ini.read(lba, 0), Ns(100));
            assert_eq!(resp.status, FabricStatus::InvalidField);
            assert!(resp.data.is_empty());
            assert_eq!(now, Ns(100), "rejected before any flash work");
        }
    }

    #[test]
    fn decoded_payloads_share_the_wire_buffer() {
        let w = Initiator::new().write(3, Bytes::from(vec![7u8; 4096]));
        let c = CommandCapsule::decode(&w.encode(), w.data.clone()).expect("decodable");
        assert_eq!(c.data.as_ptr(), w.data.as_ptr());
        let r = ResponseCapsule {
            cid: 1,
            status: FabricStatus::Ok,
            data: c.data,
        };
        let back = ResponseCapsule::decode(&r.encode(), r.data.clone()).expect("decodable");
        assert_eq!(back.data.as_ptr(), w.data.as_ptr());
        assert_eq!(back, r);
    }

    #[test]
    fn exchanged_blocks_stay_in_the_clients_page() {
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let tr = Transport::new(TransportKind::Udp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let policy = RetryPolicy::DEFAULT;
        let page = Bytes::from(vec![0xC3u8; 4096]);
        let w = ini.write(11, page.clone());
        let (resp, x) = ini
            .exchange(
                &mut net,
                &tr,
                client,
                dpu,
                &mut target,
                w,
                Ns::ZERO,
                &policy,
            )
            .expect("clean fabric");
        assert_eq!(resp.status, FabricStatus::Ok);
        let stored = target.device().stored_block(11).expect("kept whole");
        assert_eq!(
            stored.as_ptr(),
            page.as_ptr(),
            "the device keeps the client's page"
        );
        let r = ini.read(11, 1);
        let (resp, _) = ini
            .exchange(&mut net, &tr, client, dpu, &mut target, r, x.done, &policy)
            .expect("clean fabric");
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(
            resp.data.as_ptr(),
            page.as_ptr(),
            "reads return the client's page"
        );
        assert_eq!(resp.data, page);
    }

    #[test]
    fn out_of_range_reported_in_status() {
        let mut target = NvmeOfTarget::new(16);
        let mut ini = Initiator::new();
        let (resp, _) = handle_capsule(&mut target, &ini.read(20, 1), Ns::ZERO);
        assert_eq!(resp.status, FabricStatus::LbaRange);
    }

    #[test]
    fn ranges_that_wrap_past_u64_max_are_out_of_range() {
        // The LBA comes straight off the wire: its end must not wrap.
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let one = Bytes::from(vec![1u8; 4096]);
        let two = Bytes::from(vec![2u8; 8192]);
        let capsules = [
            ini.read(u64::MAX, 1),
            ini.write(u64::MAX, one),
            ini.read(u64::MAX - 1, 2),
            ini.write(u64::MAX - 1, two),
        ];
        for c in &capsules {
            let (resp, done) = handle_capsule(&mut target, c, Ns(5));
            assert_eq!(
                resp.status,
                FabricStatus::LbaRange,
                "{:?} at {}",
                c.opcode,
                c.lba
            );
            assert!(resp.data.is_empty());
            assert_eq!(done, Ns(5));
        }
        assert_eq!(target.device().flash_ops(), (0, 0, 0), "no flash work");
    }

    #[test]
    fn media_error_travels_the_wire_as_typed_status() {
        use hyperion_nvme::FAULT_NVME_MEDIA_READ;
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        // Seed data, then make every media sense fail: the device's own
        // retry also fails and the target must answer MediaError.
        let w = ini.write(9, Bytes::from(vec![3u8; 4096]));
        let (_, t) = handle_capsule(&mut target, &w, Ns::ZERO);
        target.set_fault_plan(FaultPlan::seeded(1).window(
            FAULT_NVME_MEDIA_READ,
            Ns::ZERO,
            Ns(u64::MAX),
        ));
        let (resp, _) = handle_capsule(&mut target, &ini.read(9, 1), t);
        assert_eq!(resp.status, FabricStatus::MediaError);
        // The status round-trips through the header encoding.
        let again = ResponseCapsule::decode(&resp.encode(), Bytes::new()).expect("decodable");
        assert_eq!(again.status, FabricStatus::MediaError);
    }

    /// A fault plan for a fabric, given the target's endpoint.
    type PlanFor = dyn Fn(Endpoint) -> hyperion_sim::fault::FaultPlan;

    /// Writes eight blocks back to back from a fresh initiator over a
    /// fabric faulted by `plan(dpu)`; returns each exchange and the
    /// recorder.
    fn exchange_through(plan: &PlanFor) -> (Vec<FabricExchange>, Recorder) {
        use hyperion_net::RetryPolicy;
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        net.set_fault_plan(plan(dpu));
        let tr = Transport::new(TransportKind::Tcp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::DEFAULT
        };
        let mut rec = Recorder::new("nvmeof");
        let mut t = Ns::ZERO;
        let mut exchanges = Vec::new();
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
                    Some(&mut rec),
                )
                .expect("bounded retry recovers");
            assert_eq!(resp.status, FabricStatus::Ok);
            assert!(x.attempts <= policy.max_attempts);
            exchanges.push(x);
            t = x.done;
        }
        (exchanges, rec)
    }

    #[test]
    fn exchange_retries_through_fabric_loss() {
        use hyperion_net::{partition_site, FAULT_NET_DROP};
        use hyperion_sim::fault::FaultPlan;
        let lossy = |_: Endpoint| FaultPlan::seeded(11).bernoulli(FAULT_NET_DROP, 0.5);
        // The DPU is cut off for the first 150 µs: the first command must
        // re-issue until the window clears.
        let window = Ns(150_000);
        let partitioned = move |dpu: Endpoint| {
            FaultPlan::seeded(3).window(&partition_site(dpu.node), Ns::ZERO, window)
        };
        // Each plan, with the end of the window its first command must
        // retry through.
        let plans: [(&PlanFor, Option<Ns>); 2] = [(&lossy, None), (&partitioned, Some(window))];
        for (plan, window) in plans {
            let (exchanges, rec) = exchange_through(plan);
            let retried: u32 = exchanges.iter().map(|x| x.attempts - 1).sum();
            assert!(retried > 0, "the faults must force at least one retry");
            assert_eq!(rec.counter("nvmeof:retries"), retried as u64);
            assert_eq!(rec.open_spans(), 0);
            assert!(
                !rec.queue_edges().is_empty(),
                "retry waits must be queueing edges"
            );
            if let Some(end) = window {
                let first = exchanges[0];
                assert!(first.attempts > 1, "must retry through the partition");
                assert!(first.started >= end, "the winning attempt starts after it");
                assert!(first.done > end, "cannot finish inside the window");
            }
            // Determinism: a replay is bit-identical.
            assert_eq!(exchange_through(plan).0, exchanges);
        }
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
            Some(&mut rec),
        );
        assert!(matches!(out, Err(NetError::Exhausted { attempts: 4 })));
        assert_eq!(rec.counter("nvmeof:gave_up"), 1);
        assert_eq!(rec.counter("nvmeof:timeouts"), 4);
        assert_eq!(target.served(), 0, "nothing reached the target");
    }

    #[test]
    fn zero_attempt_budget_still_sends_once() {
        use hyperion_net::{RetryPolicy, FAULT_NET_DROP};
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let tr = Transport::new(TransportKind::Udp);
        let mut target = NvmeOfTarget::new(1 << 16);
        let mut ini = Initiator::new();
        // A budget below one attempt is clamped to one
        // (`RetryPolicy::drive`).
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::DEFAULT
        };
        let capsule = ini.read(0, 1);
        let (resp, x) = ini
            .exchange(
                &mut net,
                &tr,
                client,
                dpu,
                &mut target,
                capsule,
                Ns::ZERO,
                &policy,
            )
            .expect("a clean fabric serves the one attempt");
        assert_eq!(resp.status, FabricStatus::Ok);
        assert_eq!(x.attempts, 1);
        assert_eq!(target.served(), 1);
        net.set_fault_plan(
            hyperion_sim::fault::FaultPlan::seeded(3).bernoulli(FAULT_NET_DROP, 1.0),
        );
        let capsule = ini.read(0, 1);
        let out = ini.exchange(
            &mut net,
            &tr,
            client,
            dpu,
            &mut target,
            capsule,
            x.done,
            &policy,
        );
        assert_eq!(out, Err(NetError::Exhausted { attempts: 1 }));
        assert_eq!(net.messages(), 3, "two legs, then one lost request");
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
        let (resp, ready) = handle_capsule(&mut target, &capsule, d.done);
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
