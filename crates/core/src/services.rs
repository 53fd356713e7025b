//! The DPU's RPC service surface.
//!
//! Paper §2.4: network-attached SSDs exporting "application-defined,
//! high-level, fault-tolerant data structures and abstractions ... such as
//! trees, lookup-tables, distributed/shared ordered logs, atomic writes
//! with transactional interfaces", behind a Willow-style specializable RPC
//! interface. Each request runs entirely on the DPU: the returned
//! completion time is the *server work* a transport charges between
//! request arrival and response departure — with no host CPU anywhere.
//!
//! The surface is typed by domain: [`KvOp`], [`TreeOp`] and [`LogOp`].
//! [`ServiceOp`] is the umbrella a transport endpoint routes on, and
//! [`HyperionDpu::dispatch`] is the one body that runs an op of any
//! group, traced or not: it takes its instant as an [`At`], so a caller
//! passes a plain `Ns` or `At::new(now, Some(&mut rec))`.
//!
//! `TreeOp::NodeRead` exists for the baseline side of experiment E6: a
//! client-driven pointer chase fetches one node per RPC, while
//! `TreeOp::Lookup` does the whole traversal in one RPC.

use bytes::Bytes;
use hyperion_nvme::device::{Command, NvmeError, Response};
use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::BlockError;
use hyperion_storage::corfu::LogEntry;
use hyperion_telemetry::{At, Component};

use crate::dpu::{DpuError, HyperionDpu};

/// A service response.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServiceResponse {
    /// Generic acknowledgement.
    Ok,
    /// Optional value (KV / tree lookups).
    Value(Option<u64>),
    /// Raw node bytes.
    Node(Bytes),
    /// Assigned log position.
    Appended {
        /// Log position.
        position: u64,
    },
    /// Log entry.
    Entry(LogEntry),
    /// KV-SSD value (None on miss).
    KvValue(Option<Bytes>),
}

/// Service errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// DPU not booted.
    Dpu(DpuError),
    /// B+ tree failure.
    Tree(hyperion_storage::btree::TreeError),
    /// LSM failure.
    Lsm(hyperion_storage::lsm::LsmError),
    /// Log failure.
    Log(hyperion_storage::corfu::CorfuError),
    /// Block-layer failure.
    Block(BlockError),
    /// A subsystem the op needs is not present on this DPU (e.g. the
    /// boot sequence skipped it or it was taken offline). The request is
    /// well-formed; a retry only helps after the subsystem returns.
    Unavailable {
        /// Which subsystem was missing.
        what: &'static str,
    },
    /// The op completed degraded or hit a component running degraded
    /// (e.g. an unrecoverable media error on a device that has already
    /// remapped grown bad blocks). The service stays up; this request's
    /// data could not be served faithfully.
    Degraded {
        /// Which component is degraded.
        what: &'static str,
    },
    /// The DPU shed this request at admission: its inflight depth stood
    /// at `depth` against a limit of `limit` (see
    /// [`crate::admission::Admission`]). Typed backpressure — the caller
    /// should back off or redirect rather than retry immediately.
    Overloaded {
        /// Inflight depth at the admission decision.
        depth: usize,
        /// The watermark or bound that refused the request.
        limit: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Dpu(e) => write!(f, "dpu: {e}"),
            ServiceError::Tree(e) => write!(f, "btree: {e}"),
            ServiceError::Lsm(e) => write!(f, "lsm: {e}"),
            ServiceError::Log(e) => write!(f, "log: {e}"),
            ServiceError::Block(e) => write!(f, "block: {e}"),
            ServiceError::Unavailable { what } => write!(f, "unavailable: {what}"),
            ServiceError::Degraded { what } => write!(f, "degraded: {what}"),
            ServiceError::Overloaded { depth, limit } => {
                write!(f, "overloaded: inflight depth {depth} over limit {limit}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Dpu(e) => Some(e),
            ServiceError::Tree(e) => Some(e),
            ServiceError::Lsm(e) => Some(e),
            ServiceError::Log(e) => Some(e),
            ServiceError::Block(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Typed op groups
// ---------------------------------------------------------------------------

/// Key-value operations: the LSM-backed KV export plus the device-native
/// KV-SSD namespace.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum KvOp {
    /// KV put (LSM-backed).
    Put {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// KV get.
    Get {
        /// Key.
        key: u64,
    },
    /// Store a key/value pair on the KV-SSD namespace.
    SsdPut {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Bytes,
    },
    /// Look up a key on the KV-SSD namespace.
    SsdGet {
        /// Key bytes.
        key: Vec<u8>,
    },
}

/// B+ tree operations (the §2.4 pointer-chasing service).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum TreeOp {
    /// Insert into the exported B+ tree.
    Insert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Full on-DPU traversal (one RPC total).
    Lookup {
        /// Key.
        key: u64,
    },
    /// Fetch one raw node (client-driven traversal building block).
    NodeRead {
        /// Node LBA.
        lba: u64,
    },
}

/// Shared-log operations (the Corfu export).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum LogOp {
    /// Append to the shared log.
    Append {
        /// Entry payload.
        data: Bytes,
    },
    /// Read a log position.
    Read {
        /// Position.
        position: u64,
    },
}

/// The umbrella over every op group: what a transport endpoint routes on.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServiceOp {
    /// Key-value ops.
    Kv(KvOp),
    /// B+ tree ops.
    Tree(TreeOp),
    /// Shared-log ops.
    Log(LogOp),
}

impl From<KvOp> for ServiceOp {
    fn from(op: KvOp) -> ServiceOp {
        ServiceOp::Kv(op)
    }
}

impl From<TreeOp> for ServiceOp {
    fn from(op: TreeOp) -> ServiceOp {
        ServiceOp::Tree(op)
    }
}

impl From<LogOp> for ServiceOp {
    fn from(op: LogOp) -> ServiceOp {
        ServiceOp::Log(op)
    }
}

impl ServiceOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceOp::Kv(KvOp::Put { .. }) => "kv.put",
            ServiceOp::Kv(KvOp::Get { .. }) => "kv.get",
            ServiceOp::Kv(KvOp::SsdPut { .. }) => "kvssd.put",
            ServiceOp::Kv(KvOp::SsdGet { .. }) => "kvssd.get",
            ServiceOp::Tree(TreeOp::Insert { .. }) => "tree.insert",
            ServiceOp::Tree(TreeOp::Lookup { .. }) => "tree.lookup",
            ServiceOp::Tree(TreeOp::NodeRead { .. }) => "tree.node_read",
            ServiceOp::Log(LogOp::Append { .. }) => "log.append",
            ServiceOp::Log(LogOp::Read { .. }) => "log.read",
        }
    }

    /// The op-group label SLO digests aggregate under (`kv`, `tree`,
    /// `log`): coarser than [`ServiceOp::label`], one bucket per service
    /// family.
    pub fn group(&self) -> &'static str {
        match self {
            ServiceOp::Kv(_) => "kv",
            ServiceOp::Tree(_) => "tree",
            ServiceOp::Log(_) => "log",
        }
    }
}

impl HyperionDpu {
    /// Runs one typed op of any group at `at.now`; returns the response
    /// and the instant the DPU finishes the work. It is the one body that
    /// runs an op, in this order: admission, the `served` count, the ready
    /// check, the op.
    ///
    /// With a recorder: a [`Component::Service`] span over the op, a
    /// per-op latency sample under the op's label, a fabric
    /// slot-occupancy gauge, a `service:shed` count per shed request, and
    /// nested device spans where the op touches the KV-SSD (see
    /// [`NvmeDevice::submit`](hyperion_nvme::device::NvmeDevice::submit)).
    pub fn dispatch<'r>(
        &mut self,
        at: impl Into<At<'r>>,
        op: impl Into<ServiceOp>,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        let At { now, mut rec } = at.into();
        let op = op.into();
        let label = op.label();
        let span = rec.as_deref_mut().map(|rec| {
            rec.gauge(
                "fabric:slots_occupied",
                self.fabric.slots.occupied_slots() as u64,
            );
            rec.open(Component::Service, label, now)
        });
        let result = (|| {
            // Admission first: a shed request costs the DPU nothing but
            // the decision itself. Off (None) by default — the baseline
            // path does not even reap.
            if let Some(adm) = self.admission.as_mut() {
                if let Err(overload) = adm.admit(now) {
                    self.counters.bump("shed");
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.bump("service:shed");
                    }
                    return Err(ServiceError::Overloaded {
                        depth: overload.depth,
                        limit: overload.limit,
                    });
                }
            }
            self.counters.bump("served");
            self.require_ready().map_err(ServiceError::Dpu)?;
            let kv_ssd_err = |e: NvmeError| match e {
                // The device already retried and remapped what it could;
                // the namespace keeps serving other keys.
                NvmeError::MediaError { .. } => ServiceError::Degraded {
                    what: "kv-ssd namespace media",
                },
                e => ServiceError::Block(BlockError::Device(e.to_string())),
            };
            let no_btree = ServiceError::Unavailable { what: "btree" };
            Ok(match op {
                ServiceOp::Kv(KvOp::Put { key, value }) => {
                    let t = self
                        .lsm
                        .put(&mut self.blocks, key, value, now)
                        .map_err(ServiceError::Lsm)?;
                    (ServiceResponse::Ok, t)
                }
                ServiceOp::Kv(KvOp::Get { key }) => {
                    let (v, t) = self
                        .lsm
                        .get(&mut self.blocks, key, now)
                        .map_err(ServiceError::Lsm)?;
                    (ServiceResponse::Value(v), t)
                }
                ServiceOp::Kv(KvOp::SsdPut { key, value }) => {
                    let cmd = Command::KvPut { key, value };
                    let c = self
                        .kvssd
                        .submit(cmd, At::new(now, rec.as_deref_mut()))
                        .map_err(kv_ssd_err)?;
                    (ServiceResponse::Ok, c.done)
                }
                ServiceOp::Kv(KvOp::SsdGet { key }) => {
                    let cmd = Command::KvGet { key };
                    let c = self
                        .kvssd
                        .submit(cmd, At::new(now, rec.as_deref_mut()))
                        .map_err(kv_ssd_err)?;
                    let value = match c.response {
                        Response::Data(d) => Some(d),
                        _ => None,
                    };
                    (ServiceResponse::KvValue(value), c.done)
                }
                ServiceOp::Tree(TreeOp::Insert { key, value }) => {
                    let tree = self.btree.as_mut().ok_or(no_btree)?;
                    let t = tree
                        .insert(&mut self.blocks, key, value, now)
                        .map_err(ServiceError::Tree)?;
                    (ServiceResponse::Ok, t)
                }
                ServiceOp::Tree(TreeOp::Lookup { key }) => {
                    let tree = self.btree.as_ref().ok_or(no_btree)?;
                    let (v, t) = tree
                        .get(&mut self.blocks, key, now)
                        .map_err(ServiceError::Tree)?;
                    (ServiceResponse::Value(v), t)
                }
                ServiceOp::Tree(TreeOp::NodeRead { lba }) => {
                    let (data, t) = self.blocks.read(lba, 1, now).map_err(ServiceError::Block)?;
                    (ServiceResponse::Node(data), t)
                }
                ServiceOp::Log(LogOp::Append { data }) => {
                    let (position, t) = self.log.append(&data, now).map_err(ServiceError::Log)?;
                    (ServiceResponse::Appended { position }, t)
                }
                ServiceOp::Log(LogOp::Read { position }) => {
                    let (entry, t) = self.log.read(position, now).map_err(ServiceError::Log)?;
                    (ServiceResponse::Entry(entry), t)
                }
            })
        })();
        if let (Some(adm), Ok((_, done))) = (self.admission.as_mut(), &result) {
            adm.record(*done);
        }
        if let (Some(rec), Some(span)) = (rec, span) {
            match &result {
                Ok((_, t)) => {
                    rec.close(span, *t);
                    rec.record_op(label, t.saturating_sub(now));
                }
                Err(_) => rec.close(span, now),
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted() -> HyperionDpu {
        let mut dpu = crate::dpu::DpuBuilder::new().auth_key(1).build();
        dpu.boot(Ns::ZERO).unwrap();
        dpu
    }

    #[test]
    fn kv_service_round_trip() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        let (_, t) = dpu.dispatch(t, KvOp::Put { key: 5, value: 50 }).unwrap();
        let (resp, _) = dpu.dispatch(t, KvOp::Get { key: 5 }).unwrap();
        let ServiceResponse::Value(v) = resp else {
            panic!("expected value");
        };
        assert_eq!(v, Some(50));
    }

    #[test]
    fn dispatch_traces_without_moving_timing() {
        let (mut plain, mut traced) = (booted(), booted());
        let mut rec = hyperion_telemetry::Recorder::new("svc");
        let ops = || -> [ServiceOp; 2] {
            [
                KvOp::Put { key: 1, value: 2 }.into(),
                KvOp::SsdPut {
                    key: b"k".to_vec(),
                    value: Bytes::from_static(b"v"),
                }
                .into(),
            ]
        };
        let mut t = plain.booted_at();
        assert_eq!(t, traced.booted_at());
        for (a, b) in ops().into_iter().zip(ops()) {
            let (resp_a, done_a) = plain.dispatch(t, a).unwrap();
            let (resp_b, done_b) = traced.dispatch(At::new(t, Some(&mut rec)), b).unwrap();
            assert_eq!(format!("{resp_a:?}"), format!("{resp_b:?}"));
            assert_eq!(done_a, done_b);
            assert!(done_a >= t);
            t = done_a;
        }
        // One service span per op; the KV-SSD put nests its device span.
        assert_eq!(rec.open_spans(), 0);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["kv.put", "kvssd.put", "nvme:kv_put"]);
        assert_eq!(spans[2].parent, Some(hyperion_telemetry::SpanId::index(1)));
        let ops: Vec<_> = rec.op_histograms().map(|(n, h)| (n, h.count())).collect();
        assert_eq!(ops, [("kv.put", 1), ("kvssd.put", 1)]);
    }

    #[test]
    fn missing_subsystems_surface_typed_unavailable_not_panics() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        // Take the tree offline: dispatch must degrade to a typed error
        // instead of panicking on the old `expect` sites.
        dpu.btree = None;
        let tree = dpu.dispatch(t, TreeOp::Lookup { key: 1 });
        assert!(matches!(
            tree,
            Err(ServiceError::Unavailable { what: "btree" })
        ));
        let ins = dpu.dispatch(t, TreeOp::Insert { key: 1, value: 2 });
        assert!(matches!(
            ins,
            Err(ServiceError::Unavailable { what: "btree" })
        ));
    }

    #[test]
    fn admission_sheds_with_typed_overloaded() {
        let mut dpu = booted();
        dpu.admission = Some(crate::admission::Admission::new(
            crate::admission::AdmissionConfig {
                max_inflight: 4,
                high_watermark: 2,
                low_watermark: 1,
            },
        ));
        let t = dpu.booted_at();
        // Two flash-backed requests land at the same instant: their NVMe
        // programs are still inflight when the third request arrives, so
        // it trips the high watermark. (Pure-memtable ops complete at
        // their issue instant and would never accumulate depth.)
        let ssd_put = |k: &[u8]| KvOp::SsdPut {
            key: k.to_vec(),
            value: Bytes::from_static(b"v"),
        };
        dpu.dispatch(t, ssd_put(b"a")).unwrap();
        dpu.dispatch(t, ssd_put(b"b")).unwrap();
        match dpu.dispatch(t, KvOp::Put { key: 3, value: 3 }) {
            Err(ServiceError::Overloaded { depth, limit }) => {
                assert_eq!(depth, 2);
                assert_eq!(limit, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(dpu.counters.get("shed"), 1);
        // Far in the future the backlog has drained; admission resumes.
        let later = t + Ns::from_millis(100);
        dpu.dispatch(later, KvOp::Put { key: 3, value: 3 }).unwrap();
    }

    #[test]
    fn service_errors_chain_their_sources() {
        use std::error::Error;
        let e = ServiceError::Dpu(DpuError::NotReady);
        assert!(e.source().is_some(), "wrapped errors must chain");
        let e = ServiceError::Overloaded { depth: 3, limit: 2 };
        assert!(e.source().is_none(), "leaf errors have no source");
        assert!(e.to_string().contains("overloaded"));
    }

    #[test]
    fn tree_lookup_and_node_read_agree() {
        let mut dpu = booted();
        let mut t = dpu.booted_at();
        for k in 0..500u64 {
            let (_, t2) = dpu
                .dispatch(
                    t,
                    TreeOp::Insert {
                        key: k,
                        value: k * 3,
                    },
                )
                .unwrap();
            t = t2;
        }
        let (resp, _) = dpu.dispatch(t, TreeOp::Lookup { key: 123 }).unwrap();
        let ServiceResponse::Value(v) = resp else {
            panic!("expected value");
        };
        assert_eq!(v, Some(369));
        // Client-driven path: fetch the root node raw.
        let root = dpu.btree.as_ref().unwrap().root_lba();
        let (resp, _) = dpu.dispatch(t, TreeOp::NodeRead { lba: root }).unwrap();
        let ServiceResponse::Node(data) = resp else {
            panic!("expected node");
        };
        assert_eq!(data.len(), 4096);
    }

    #[test]
    fn log_service_appends_and_reads() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        let (resp, t) = dpu
            .dispatch(
                t,
                LogOp::Append {
                    data: Bytes::from_static(b"entry"),
                },
            )
            .unwrap();
        let ServiceResponse::Appended { position } = resp else {
            panic!("expected position");
        };
        let (resp, _) = dpu.dispatch(t, LogOp::Read { position }).unwrap();
        let ServiceResponse::Entry(LogEntry::Data(d)) = resp else {
            panic!("expected entry");
        };
        assert_eq!(d.as_ref(), b"entry");
    }

    #[test]
    fn kvssd_service_round_trips() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        let (_, t) = dpu
            .dispatch(
                t,
                KvOp::SsdPut {
                    key: b"user:7".to_vec(),
                    value: Bytes::from_static(b"profile-bytes"),
                },
            )
            .unwrap();
        let (resp, _) = dpu
            .dispatch(
                t,
                KvOp::SsdGet {
                    key: b"user:7".to_vec(),
                },
            )
            .unwrap();
        let ServiceResponse::KvValue(v) = resp else {
            panic!("expected kv value");
        };
        assert_eq!(v, Some(Bytes::from_static(b"profile-bytes")));
        let (resp, _) = dpu
            .dispatch(
                t,
                KvOp::SsdGet {
                    key: b"missing".to_vec(),
                },
            )
            .unwrap();
        let ServiceResponse::KvValue(v) = resp else {
            panic!("expected kv value");
        };
        assert_eq!(v, None);
    }
}
