//! End-to-end analytics over Parquet-on-FS: the §2.3 access pipeline.
//!
//! Paper §2.3: "Hyperion can access and process data that is stored in
//! Arrow/Parquet format, on the F2FS/ext4 file system on NVMe storage
//! without any host-side, or client-side CPU involvement."
//!
//! Two paths over the same bytes on the same device:
//!
//! * [`dpu_scan`] — annotation-driven: resolve the file's extents with the
//!   layout annotation (5 metadata block reads), read the footer, scan the
//!   projected columns with predicate pushdown — all in fabric;
//! * [`host_scan`] — the CPU-centric stack: syscalls + VFS + block stack
//!   per metadata step and a full-file read through the kernel before the
//!   format library can project columns (the "CPU translates between
//!   abstraction layers" tax of §1).

use hyperion_baseline::host::{HostServer, BLOCK_STACK, SYSCALL, VFS_LAYER};
use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::{BlockStore, BLOCK};
use hyperion_storage::columnar::{read_footer, scan, ColumnBatch, Predicate, ScanStats};
use hyperion_storage::fs::{annotated_resolve, FileSystem, FsAnnotation};

/// A dataset laid out as a columnar file inside the DPU file system.
#[derive(Debug)]
pub struct Dataset {
    /// Path within the file system.
    pub path: String,
    /// First LBA and length (blocks) of the file's single extent run.
    pub first_lba: u64,
    /// Total blocks.
    pub blocks: u32,
    /// The layout annotation for direct access.
    pub annotation: FsAnnotation,
}

/// Writes `batch` as a columnar file at `path` on a freshly formatted
/// file system, returning the dataset handle and the store.
pub fn build_dataset(
    batch: &ColumnBatch,
    rows_per_group: usize,
    path: &str,
    now: Ns,
) -> (BlockStore, Dataset, Ns) {
    let mut store = BlockStore::with_capacity(1 << 22);
    let (mut fs, mut t) = FileSystem::format(&mut store, now).expect("format");
    // Create the parent directories of `path`.
    let components: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    let mut prefix = String::new();
    for dir in &components[..components.len().saturating_sub(1)] {
        prefix.push('/');
        prefix.push_str(dir);
        let (_, t2) = fs.mkdir(&mut store, &prefix, t).expect("mkdir");
        t = t2;
    }
    // Serialize the columnar file into a scratch store first to obtain the
    // exact image, then place it in the FS.
    let mut scratch = BlockStore::with_capacity(1 << 22);
    let (meta, _) =
        hyperion_storage::columnar::write_file(&mut scratch, batch, rows_per_group, Ns::ZERO)
            .expect("encode");
    let total_blocks = scratch.cursor() as u32;
    let (image, _) = scratch
        .read(0, total_blocks, Ns::ZERO)
        .expect("read back image");
    let (_, t) = fs.create_file(&mut store, path, &image, t).expect("create");
    let (extents, _, t) = fs.file_extents(&mut store, path, t).expect("extents");
    let first_lba = extents[0].start_lba;
    // Contiguity: bump allocation makes multi-extent files contiguous.
    let blocks: u64 = extents.iter().map(|e| e.len_blocks).sum();
    let _ = meta;
    (
        store,
        Dataset {
            path: path.to_string(),
            first_lba,
            blocks: blocks as u32,
            annotation: fs.annotation(),
        },
        t,
    )
}

/// Result of one scan run.
#[derive(Debug)]
pub struct ScanRun {
    /// Selected rows.
    pub batch: ColumnBatch,
    /// Scan statistics.
    pub stats: ScanStats,
    /// Completion instant.
    pub done: Ns,
    /// Device blocks read during the run.
    pub blocks_read: u64,
}

/// The CPU-free path: annotated resolve → footer → pushdown scan.
pub fn dpu_scan(
    store: &mut BlockStore,
    dataset: &Dataset,
    projection: &[&str],
    predicate: Option<&Predicate>,
    now: Ns,
) -> ScanRun {
    let before = store.reads();
    let (extents, _, t) =
        annotated_resolve(store, &dataset.annotation, &dataset.path, now).expect("resolve");
    let first = extents[0].start_lba;
    let blocks: u64 = extents.iter().map(|e| e.len_blocks).sum();
    let (meta, t) = read_footer(store, first, blocks as u32, t).expect("footer");
    let (batch, stats, t) = scan(store, &meta, projection, predicate, t).expect("scan");
    ScanRun {
        batch,
        stats,
        done: t,
        blocks_read: store.reads() - before,
    }
}

/// The CPU-centric path: resolve through the VFS (priced per layer), then
/// read the *whole file* through the kernel into host memory, then project
/// in a userspace format library.
///
/// Reading everything is not a strawman: without device-side footer+
/// pushdown support, the kernel readahead path hauls the file through the
/// page cache, and the library filters afterwards.
pub fn host_scan(
    store: &mut BlockStore,
    host: &mut HostServer,
    dataset: &Dataset,
    projection: &[&str],
    predicate: Option<&Predicate>,
    now: Ns,
) -> ScanRun {
    let before = store.reads();
    // Path resolution: one syscall + VFS walk per component, with the
    // same metadata block reads the FS performs.
    let fs_meta_reads = 5u64; // root ino, root dir, dir ino, dir dir, file ino
    host.counters.bump("syscalls");
    let mut t = host.cpu(now, SYSCALL);
    for _ in 0..fs_meta_reads {
        t = host.cpu(t, VFS_LAYER);
        let (_, done) = store
            .read(dataset.annotation.inode_table_lba, 1, t)
            .expect("meta read");
        t = done;
    }
    // Full-file read through the kernel: block stack + copy per extent.
    host.counters.bump("syscalls");
    t = host.cpu(t, SYSCALL + BLOCK_STACK);
    let (image, done) = store
        .read(dataset.first_lba, dataset.blocks, t)
        .expect("file read");
    t = host.copy(done, dataset.blocks as u64 * BLOCK);
    // Userspace format library: parse footer + decode from memory. Decode
    // cost modeled as a copy-speed pass over the touched bytes.
    let mut scratch = BlockStore::with_capacity(dataset.blocks as u64 + 1);
    scratch.alloc(dataset.blocks as u64).expect("scratch");
    scratch.write(0, image.to_vec(), Ns::ZERO).expect("stage");
    let (meta, _) = read_footer(&mut scratch, 0, dataset.blocks, Ns::ZERO).expect("footer");
    let (batch, stats, _) =
        scan(&mut scratch, &meta, projection, predicate, Ns::ZERO).expect("scan");
    t = host.cpu(t, Ns(2_000)); // library dispatch overhead
    ScanRun {
        batch,
        stats,
        done: t,
        blocks_read: store.reads() - before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (BlockStore, Dataset, Ns) {
        let rows = 50_000u64;
        let batch = ColumnBatch::new(
            vec!["id".into(), "price".into(), "qty".into()],
            vec![
                (0..rows).collect(),
                (0..rows).map(|i| (i * 13) % 500).collect(),
                (0..rows).map(|i| i % 7).collect(),
            ],
        )
        .unwrap();
        build_dataset(&batch, 5_000, "/warehouse/sales.col", Ns::ZERO)
    }

    #[test]
    fn both_paths_return_identical_results() {
        let (mut store, ds, t) = dataset();
        let pred = Predicate::between("id", 10_000, 10_999);
        let dpu = dpu_scan(&mut store, &ds, &["price"], Some(&pred), t);
        let mut host = HostServer::new(1 << 16);
        let host_run = host_scan(&mut store, &mut host, &ds, &["price"], Some(&pred), t);
        assert_eq!(dpu.batch, host_run.batch);
        assert_eq!(dpu.batch.num_rows(), 1_000);
    }

    #[test]
    fn dpu_path_reads_fewer_blocks() {
        let (mut store, ds, t) = dataset();
        let pred = Predicate::between("id", 0, 999);
        let dpu = dpu_scan(&mut store, &ds, &["price"], Some(&pred), t);
        let mut host = HostServer::new(1 << 16);
        let host_run = host_scan(&mut store, &mut host, &ds, &["price"], Some(&pred), t);
        assert!(
            dpu.blocks_read * 3 < host_run.blocks_read,
            "pushdown + projection should cut device reads: {} vs {}",
            dpu.blocks_read,
            host_run.blocks_read
        );
    }

    #[test]
    fn dpu_path_is_faster() {
        let (mut store, ds, t) = dataset();
        let pred = Predicate::between("id", 0, 999);
        let dpu = dpu_scan(&mut store, &ds, &["price"], Some(&pred), t);
        let (mut store2, ds2, t2) = dataset();
        let mut host = HostServer::new(1 << 16);
        let host_run = host_scan(&mut store2, &mut host, &ds2, &["price"], Some(&pred), t2);
        assert!(
            dpu.done - t < host_run.done - t2,
            "dpu {} vs host {}",
            dpu.done - t,
            host_run.done - t2
        );
    }

    #[test]
    fn dataset_file_is_a_real_fs_file() {
        let (mut store, ds, t) = dataset();
        // Mount and read it back through the FS to prove it is on the FS.
        let (fs, t) = FileSystem::mount(&mut store, 0, t).unwrap();
        let (data, _) = fs.read_file(&mut store, &ds.path, t).unwrap();
        assert_eq!(data.len() as u64, ds.blocks as u64 * BLOCK);
    }
}
