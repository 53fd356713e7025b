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
//! The surface is typed by domain: [`TreeOp`], [`LogOp`], [`FileOp`], and
//! [`ColumnarOp`] each dispatch with the uniform signature
//! `dispatch(self, &mut HyperionDpu, now) -> Result<(ServiceResponse, Ns),
//! ServiceError>`; [`KvOp`]'s `dispatch_traced` also takes the optional
//! recorder its KV-SSD device spans nest under. [`ServiceOp`] is the
//! umbrella a transport endpoint routes on, through
//! [`HyperionDpu::dispatch_traced`], the one path every caller takes.
//!
//! `TreeOp::NodeRead` exists for the baseline side of experiment E6: a
//! client-driven pointer chase fetches one node per RPC, while
//! `TreeOp::Lookup` does the whole traversal in one RPC.

use bytes::Bytes;
use hyperion_sim::time::Ns;
use hyperion_storage::columnar::{self, ColumnBatch, Predicate, ScanStats};
use hyperion_storage::corfu::LogEntry;
use hyperion_telemetry::{Component, Recorder};

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
    /// File contents.
    File(Bytes),
    /// Scan result with its statistics.
    Scan {
        /// Selected rows.
        batch: ColumnBatch,
        /// Row groups skipped/read and bytes touched.
        stats: ScanStats,
    },
    /// A single aggregate scalar (plus scan statistics).
    Aggregate {
        /// The computed result.
        result: hyperion_storage::compute::AggResult,
        /// Row groups skipped/read and bytes touched.
        stats: ScanStats,
    },
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
    /// File system failure.
    Fs(hyperion_storage::fs::FsError),
    /// Columnar failure.
    Columnar(hyperion_storage::columnar::ColumnarError),
    /// Unknown published table.
    NoSuchTable(String),
    /// Block-layer failure.
    Block(hyperion_storage::blockstore::BlockError),
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
            ServiceError::Fs(e) => write!(f, "fs: {e}"),
            ServiceError::Columnar(e) => write!(f, "columnar: {e}"),
            ServiceError::NoSuchTable(t) => write!(f, "no such table: {t}"),
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
            ServiceError::Fs(e) => Some(e),
            ServiceError::Columnar(e) => Some(e),
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

/// File-system operations.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FileOp {
    /// Read a whole file by path through the on-DPU file system.
    Read {
        /// Absolute path.
        path: String,
    },
}

/// Columnar analytics operations over published tables.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ColumnarOp {
    /// Scan a published table.
    Scan {
        /// Table name.
        table: String,
        /// Projected columns.
        projection: Vec<String>,
        /// Optional pushed-down predicate.
        predicate: Option<Predicate>,
    },
    /// Scan + aggregate; only the scalar leaves the DPU.
    Aggregate {
        /// Table name.
        table: String,
        /// Column to aggregate.
        column: String,
        /// Aggregate function.
        agg: hyperion_storage::compute::Agg,
        /// Optional pushed-down predicate.
        predicate: Option<Predicate>,
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
    /// File-system ops.
    File(FileOp),
    /// Columnar analytics ops.
    Columnar(ColumnarOp),
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

impl From<FileOp> for ServiceOp {
    fn from(op: FileOp) -> ServiceOp {
        ServiceOp::File(op)
    }
}

impl From<ColumnarOp> for ServiceOp {
    fn from(op: ColumnarOp) -> ServiceOp {
        ServiceOp::Columnar(op)
    }
}

impl KvOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            KvOp::Put { .. } => "kv.put",
            KvOp::Get { .. } => "kv.get",
            KvOp::SsdPut { .. } => "kvssd.put",
            KvOp::SsdGet { .. } => "kvssd.get",
        }
    }

    /// Runs this op on the DPU at `now`; returns the response and the
    /// instant the DPU finishes the work. With a recorder, KV-SSD commands
    /// record their device span (see
    /// [`NvmeDevice::submit_traced`](hyperion_nvme::device::NvmeDevice::submit_traced)).
    pub fn dispatch_traced(
        self,
        dpu: &mut HyperionDpu,
        now: Ns,
        rec: Option<&mut Recorder>,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        dpu.require_ready().map_err(ServiceError::Dpu)?;
        let kv_ssd_err = |e: hyperion_nvme::device::NvmeError| match e {
            // The device already retried and remapped what it could; the
            // namespace keeps serving other keys.
            hyperion_nvme::device::NvmeError::MediaError { .. } => ServiceError::Degraded {
                what: "kv-ssd namespace media",
            },
            e => ServiceError::Block(hyperion_storage::blockstore::BlockError::Device(
                e.to_string(),
            )),
        };
        match self {
            KvOp::Put { key, value } => {
                let t = dpu
                    .lsm
                    .put(&mut dpu.blocks, key, value, now)
                    .map_err(ServiceError::Lsm)?;
                Ok((ServiceResponse::Ok, t))
            }
            KvOp::Get { key } => {
                let (v, t) = dpu
                    .lsm
                    .get(&mut dpu.blocks, key, now)
                    .map_err(ServiceError::Lsm)?;
                Ok((ServiceResponse::Value(v), t))
            }
            KvOp::SsdPut { key, value } => {
                let cmd = hyperion_nvme::device::Command::KvPut { key, value };
                let c = dpu.kvssd.submit_traced(cmd, now, rec).map_err(kv_ssd_err)?;
                Ok((ServiceResponse::Ok, c.done))
            }
            KvOp::SsdGet { key } => {
                let cmd = hyperion_nvme::device::Command::KvGet { key };
                let c = dpu.kvssd.submit_traced(cmd, now, rec).map_err(kv_ssd_err)?;
                let value = match c.response {
                    hyperion_nvme::device::Response::Data(d) => Some(d),
                    _ => None,
                };
                Ok((ServiceResponse::KvValue(value), c.done))
            }
        }
    }
}

impl TreeOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            TreeOp::Insert { .. } => "tree.insert",
            TreeOp::Lookup { .. } => "tree.lookup",
            TreeOp::NodeRead { .. } => "tree.node_read",
        }
    }

    /// Runs this op on the DPU at `now`; returns the response and the
    /// instant the DPU finishes the work.
    pub fn dispatch(
        self,
        dpu: &mut HyperionDpu,
        now: Ns,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        dpu.require_ready().map_err(ServiceError::Dpu)?;
        match self {
            TreeOp::Insert { key, value } => {
                let tree = dpu
                    .btree
                    .as_mut()
                    .ok_or(ServiceError::Unavailable { what: "btree" })?;
                let t = tree
                    .insert(&mut dpu.blocks, key, value, now)
                    .map_err(ServiceError::Tree)?;
                Ok((ServiceResponse::Ok, t))
            }
            TreeOp::Lookup { key } => {
                let tree = dpu
                    .btree
                    .as_ref()
                    .ok_or(ServiceError::Unavailable { what: "btree" })?;
                let (v, t) = tree
                    .get(&mut dpu.blocks, key, now)
                    .map_err(ServiceError::Tree)?;
                Ok((ServiceResponse::Value(v), t))
            }
            TreeOp::NodeRead { lba } => {
                let (data, t) = dpu.blocks.read(lba, 1, now).map_err(ServiceError::Block)?;
                Ok((ServiceResponse::Node(data), t))
            }
        }
    }
}

impl LogOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            LogOp::Append { .. } => "log.append",
            LogOp::Read { .. } => "log.read",
        }
    }

    /// Runs this op on the DPU at `now`; returns the response and the
    /// instant the DPU finishes the work.
    pub fn dispatch(
        self,
        dpu: &mut HyperionDpu,
        now: Ns,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        dpu.require_ready().map_err(ServiceError::Dpu)?;
        match self {
            LogOp::Append { data } => {
                let (position, t) = dpu.log.append(&data, now).map_err(ServiceError::Log)?;
                Ok((ServiceResponse::Appended { position }, t))
            }
            LogOp::Read { position } => {
                let (entry, t) = dpu.log.read(position, now).map_err(ServiceError::Log)?;
                Ok((ServiceResponse::Entry(entry), t))
            }
        }
    }
}

impl FileOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            FileOp::Read { .. } => "file.read",
        }
    }

    /// Runs this op on the DPU at `now`; returns the response and the
    /// instant the DPU finishes the work.
    pub fn dispatch(
        self,
        dpu: &mut HyperionDpu,
        now: Ns,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        dpu.require_ready().map_err(ServiceError::Dpu)?;
        match self {
            FileOp::Read { path } => {
                let fs = dpu
                    .fs
                    .as_ref()
                    .ok_or(ServiceError::Unavailable { what: "fs" })?;
                let (data, t) = fs
                    .read_file(&mut dpu.blocks, &path, now)
                    .map_err(ServiceError::Fs)?;
                Ok((ServiceResponse::File(Bytes::from(data)), t))
            }
        }
    }
}

impl ColumnarOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            ColumnarOp::Scan { .. } => "columnar.scan",
            ColumnarOp::Aggregate { .. } => "columnar.aggregate",
        }
    }

    /// Runs this op on the DPU at `now`, resolving tables against the
    /// DPU's own published set; returns the response and the instant the
    /// DPU finishes the work.
    pub fn dispatch(
        self,
        dpu: &mut HyperionDpu,
        now: Ns,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        dpu.require_ready().map_err(ServiceError::Dpu)?;
        match self {
            ColumnarOp::Scan {
                table,
                projection,
                predicate,
            } => {
                let meta = dpu
                    .tables
                    .get(&table)
                    .ok_or_else(|| ServiceError::NoSuchTable(table.clone()))?
                    .clone();
                let proj: Vec<&str> = projection.iter().map(|s| s.as_str()).collect();
                let (batch, stats, t) =
                    columnar::scan(&mut dpu.blocks, &meta, &proj, predicate.as_ref(), now)
                        .map_err(ServiceError::Columnar)?;
                Ok((ServiceResponse::Scan { batch, stats }, t))
            }
            ColumnarOp::Aggregate {
                table,
                column,
                agg,
                predicate,
            } => {
                let meta = dpu
                    .tables
                    .get(&table)
                    .ok_or_else(|| ServiceError::NoSuchTable(table.clone()))?
                    .clone();
                let (batch, stats, t) = columnar::scan(
                    &mut dpu.blocks,
                    &meta,
                    &[column.as_str()],
                    predicate.as_ref(),
                    now,
                )
                .map_err(ServiceError::Columnar)?;
                let result = hyperion_storage::compute::aggregate(&batch, &column, agg)
                    .map_err(ServiceError::Columnar)?;
                // The aggregation pass itself: one fabric pipeline sweep
                // over the decoded values at memory bandwidth.
                let sweep = hyperion_sim::serialization_delay(
                    batch.num_rows() as u64 * 8,
                    hyperion_fabric::params::HBM_BANDWIDTH_BPS,
                );
                Ok((ServiceResponse::Aggregate { result, stats }, t + sweep))
            }
        }
    }
}

impl ServiceOp {
    /// Telemetry/report label for this op.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceOp::Kv(op) => op.label(),
            ServiceOp::Tree(op) => op.label(),
            ServiceOp::Log(op) => op.label(),
            ServiceOp::File(op) => op.label(),
            ServiceOp::Columnar(op) => op.label(),
        }
    }

    /// The op-group label SLO digests aggregate under (`kv`, `tree`,
    /// `log`, `file`, `columnar`): coarser than [`ServiceOp::label`], one
    /// bucket per service family.
    pub fn group(&self) -> &'static str {
        match self {
            ServiceOp::Kv(_) => "kv",
            ServiceOp::Tree(_) => "tree",
            ServiceOp::Log(_) => "log",
            ServiceOp::File(_) => "file",
            ServiceOp::Columnar(_) => "columnar",
        }
    }
}

impl HyperionDpu {
    /// Publishes a columnar table on the structure volume under `name`;
    /// [`ColumnarOp`]s dispatched to this DPU resolve the name to it. A
    /// table published again under the same name replaces the old one.
    pub fn publish_table(
        &mut self,
        name: impl Into<String>,
        batch: &ColumnBatch,
        rows_per_group: usize,
        now: Ns,
    ) -> Result<Ns, ServiceError> {
        let (meta, t) = columnar::write_file(&mut self.blocks, batch, rows_per_group, now)
            .map_err(ServiceError::Columnar)?;
        self.tables.insert(name.into(), meta);
        Ok(t)
    }

    /// Runs one typed op at `now` (see [`HyperionDpu::dispatch_traced`]).
    pub fn dispatch(
        &mut self,
        now: Ns,
        op: impl Into<ServiceOp>,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
        self.dispatch_traced(now, op.into(), None)
    }

    /// Runs one typed op at `now`; returns the response and the instant
    /// the DPU finishes the work. [`HyperionDpu::dispatch`] accepts any op
    /// group via `Into<ServiceOp>`; this body takes the converted op, so
    /// it is compiled once.
    ///
    /// With a recorder: a [`Component::Service`] span over the op, a
    /// per-op latency sample under the op's label, a fabric
    /// slot-occupancy gauge, a `service:shed` count per shed request, and
    /// nested device spans where the op touches the KV-SSD.
    pub fn dispatch_traced(
        &mut self,
        now: Ns,
        op: ServiceOp,
        mut rec: Option<&mut Recorder>,
    ) -> Result<(ServiceResponse, Ns), ServiceError> {
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
            let result = match op {
                ServiceOp::Kv(op) => op.dispatch_traced(self, now, rec.as_deref_mut()),
                ServiceOp::Tree(op) => op.dispatch(self, now),
                ServiceOp::Log(op) => op.dispatch(self, now),
                ServiceOp::File(op) => op.dispatch(self, now),
                ServiceOp::Columnar(op) => op.dispatch(self, now),
            };
            if let (Some(adm), Ok((_, done))) = (self.admission.as_mut(), &result) {
                adm.record(*done);
            }
            result
        })();
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
    fn dispatch_traced_records_span_and_op() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        let mut rec = hyperion_telemetry::Recorder::new("svc");
        let (_, t2) = dpu
            .dispatch_traced(t, KvOp::Put { key: 1, value: 2 }.into(), Some(&mut rec))
            .unwrap();
        assert!(t2 >= t);
        assert_eq!(rec.open_spans(), 0);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "kv.put");
        let ops: Vec<_> = rec.op_histograms().collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, "kv.put");
        assert_eq!(ops[0].1.count(), 1);
    }

    #[test]
    fn kvssd_traced_dispatch_nests_device_span() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        let mut rec = hyperion_telemetry::Recorder::new("svc");
        dpu.dispatch_traced(
            t,
            KvOp::SsdPut {
                key: b"k".to_vec(),
                value: Bytes::from_static(b"v"),
            }
            .into(),
            Some(&mut rec),
        )
        .unwrap();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "kvssd.put");
        assert_eq!(spans[1].name, "nvme:kv_put");
        assert_eq!(spans[1].parent, Some(hyperion_telemetry::SpanId::index(0)));
    }

    #[test]
    fn missing_subsystems_surface_typed_unavailable_not_panics() {
        let mut dpu = booted();
        let t = dpu.booted_at();
        // Take the tree and fs offline: dispatch must degrade to a typed
        // error instead of panicking on the old `expect` sites.
        dpu.btree = None;
        dpu.fs = None;
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
        let file = dpu.dispatch(t, FileOp::Read { path: "/x".into() });
        assert!(matches!(
            file,
            Err(ServiceError::Unavailable { what: "fs" })
        ));
    }

    #[test]
    fn admission_sheds_with_typed_overloaded() {
        let mut dpu = crate::dpu::DpuBuilder::new()
            .auth_key(1)
            .admission(crate::admission::AdmissionConfig {
                max_inflight: 4,
                high_watermark: 2,
                low_watermark: 1,
            })
            .build();
        dpu.boot(Ns::ZERO).unwrap();
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
    fn file_service_reads_fs_files() {
        let mut dpu = booted();
        let mut t = dpu.booted_at();
        {
            let fs = dpu.fs.as_mut().unwrap();
            let (_, t2) = fs
                .create_file(&mut dpu.blocks, "/hello", b"cpu-free", t)
                .unwrap();
            t = t2;
        }
        let (resp, _) = dpu
            .dispatch(
                t,
                FileOp::Read {
                    path: "/hello".into(),
                },
            )
            .unwrap();
        let ServiceResponse::File(data) = resp else {
            panic!("expected file");
        };
        assert_eq!(data.as_ref(), b"cpu-free");
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

    #[test]
    fn columnar_aggregate_returns_only_a_scalar() {
        let mut dpu = booted();
        let batch = ColumnBatch::new(
            vec!["k".into(), "v".into()],
            vec![(0..1000u64).collect(), (0..1000u64).collect()],
        )
        .unwrap();
        let t = dpu
            .publish_table("agg", &batch, 250, dpu.booted_at())
            .unwrap();
        let (resp, _) = dpu
            .dispatch(
                t,
                ColumnarOp::Aggregate {
                    table: "agg".into(),
                    column: "v".into(),
                    agg: hyperion_storage::compute::Agg::Sum,
                    predicate: Some(Predicate::between("v", 0, 99)),
                },
            )
            .unwrap();
        let ServiceResponse::Aggregate { result, stats } = resp else {
            panic!("expected aggregate");
        };
        assert_eq!(result.value, (0..100u64).sum::<u64>());
        assert_eq!(stats.groups_skipped, 3);
    }

    /// Scans resolve against the tables published on the DPU itself.
    #[test]
    fn columnar_service_scans_published_tables() {
        let mut dpu = booted();
        let batch = ColumnBatch::new(
            vec!["k".into(), "v".into()],
            vec![
                (0..1000u64).collect(),
                (0..1000u64).map(|x| x * 2).collect(),
            ],
        )
        .unwrap();
        let t = dpu
            .publish_table("sales", &batch, 250, dpu.booted_at())
            .unwrap();
        let (resp, _) = dpu
            .dispatch(
                t,
                ColumnarOp::Scan {
                    table: "sales".into(),
                    projection: vec!["v".into()],
                    predicate: Some(Predicate::between("k", 100, 199)),
                },
            )
            .unwrap();
        let ServiceResponse::Scan { batch, stats } = resp else {
            panic!("expected scan");
        };
        assert_eq!(batch.num_rows(), 100);
        assert!(stats.groups_skipped >= 2);
        let unknown = dpu.dispatch(
            t,
            ColumnarOp::Scan {
                table: "missing".into(),
                projection: vec![],
                predicate: None,
            },
        );
        assert!(matches!(unknown, Err(ServiceError::NoSuchTable(_))));
    }

    #[test]
    fn republished_table_serves_the_new_contents() {
        let mut dpu = booted();
        let rows = |n: u64| ColumnBatch::new(vec!["k".into()], vec![(0..n).collect()]).unwrap();
        let t = dpu
            .publish_table("t", &rows(100), 50, dpu.booted_at())
            .unwrap();
        let t = dpu.publish_table("t", &rows(10), 50, t).unwrap();
        let (resp, _) = dpu
            .dispatch(
                t,
                ColumnarOp::Scan {
                    table: "t".into(),
                    projection: vec!["k".into()],
                    predicate: None,
                },
            )
            .unwrap();
        let ServiceResponse::Scan { batch, .. } = resp else {
            panic!("expected scan");
        };
        assert_eq!(batch.num_rows(), 10);
    }
}
