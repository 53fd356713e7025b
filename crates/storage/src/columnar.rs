//! Columnar object formats: Parquet-like on storage, Arrow-like in memory.
//!
//! Paper §2.3: "we target well-defined application-level object formats
//! Parquet (on storage) and Arrow (in-memory) that are used in a variety
//! of data processing pipelines ... we expect to build an end-to-end
//! Parquet/Arrow object access pipeline in hardware".
//!
//! The on-storage format keeps Parquet's load-bearing structure: data is
//! split into **row groups**, each holding one **column chunk** per
//! column; chunks are encoded (plain or RLE); a **footer** carries the
//! schema, per-chunk offsets, and min/max statistics; the file ends with
//! the footer length + magic so a reader can find the footer without any
//! external metadata. That structure is what enables the two behaviours
//! experiment E5 measures: *column projection* (read only the chunks you
//! need) and *predicate pushdown* (skip row groups whose stats exclude the
//! predicate).

use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

const MAGIC: u32 = 0x4850_4131; // "HPA1"

/// Column encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// 8 bytes per value.
    Plain,
    /// (value, run-length) pairs — compact for low-cardinality columns.
    Rle,
}

/// Errors from the columnar layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// Block layer failure.
    Block(BlockError),
    /// Missing/invalid magic or structure.
    BadFormat(&'static str),
    /// Unknown column name.
    NoSuchColumn(String),
    /// Rows in a batch have unequal lengths.
    RaggedBatch,
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::Block(e) => write!(f, "block layer: {e}"),
            ColumnarError::BadFormat(w) => write!(f, "bad format: {w}"),
            ColumnarError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            ColumnarError::RaggedBatch => write!(f, "ragged batch"),
        }
    }
}

impl std::error::Error for ColumnarError {}

impl From<BlockError> for ColumnarError {
    fn from(e: BlockError) -> ColumnarError {
        ColumnarError::Block(e)
    }
}

/// The Arrow-like in-memory representation: named u64 column vectors of
/// equal length.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnBatch {
    /// Column names, in schema order.
    pub names: Vec<String>,
    /// Column data, parallel to `names`.
    pub columns: Vec<Vec<u64>>,
}

impl ColumnBatch {
    /// Creates a batch; all columns must be the same length.
    pub fn new(names: Vec<String>, columns: Vec<Vec<u64>>) -> Result<ColumnBatch, ColumnarError> {
        if let Some(first) = columns.first() {
            if columns.iter().any(|c| c.len() != first.len()) {
                return Err(ColumnarError::RaggedBatch);
            }
        }
        if names.len() != columns.len() {
            return Err(ColumnarError::RaggedBatch);
        }
        Ok(ColumnBatch { names, columns })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Returns a column by name.
    pub fn column(&self, name: &str) -> Option<&[u64]> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.columns[i].as_slice())
    }
}

#[derive(Debug, Clone)]
struct ChunkMeta {
    /// Byte offset of the chunk within the file image.
    offset: u64,
    /// Encoded byte length.
    len: u64,
    encoding: Encoding,
    min: u64,
    max: u64,
    rows: u64,
}

#[derive(Debug, Clone)]
struct RowGroupMeta {
    chunks: Vec<ChunkMeta>, // one per column
    rows: u64,
}

/// Footer metadata read back from a file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Column names.
    pub schema: Vec<String>,
    groups: Vec<RowGroupMeta>,
    /// First LBA of the file on the device.
    first_lba: u64,
}

impl FileMeta {
    /// Total rows.
    pub fn num_rows(&self) -> u64 {
        self.groups.iter().map(|g| g.rows).sum()
    }
}

fn encode_chunk(values: &[u64], encoding: Encoding) -> Vec<u8> {
    let mut out = Vec::new();
    match encoding {
        Encoding::Plain => {
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Encoding::Rle => {
            let mut i = 0;
            while i < values.len() {
                let v = values[i];
                let mut run = 1u64;
                while i + (run as usize) < values.len() && values[i + run as usize] == v {
                    run += 1;
                }
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&run.to_le_bytes());
                i += run as usize;
            }
        }
    }
    out
}

fn decode_chunk(data: &[u8], encoding: Encoding, rows: u64) -> Result<Vec<u64>, ColumnarError> {
    let mut out = Vec::with_capacity(rows as usize);
    match encoding {
        Encoding::Plain => {
            for w in data.chunks_exact(8).take(rows as usize) {
                out.push(u64::from_le_bytes(w.try_into().expect("8 bytes")));
            }
        }
        Encoding::Rle => {
            for pair in data.chunks_exact(16) {
                let v = u64::from_le_bytes(pair[0..8].try_into().expect("8 bytes"));
                let run = u64::from_le_bytes(pair[8..16].try_into().expect("8 bytes"));
                for _ in 0..run {
                    out.push(v);
                    if out.len() as u64 == rows {
                        return Ok(out);
                    }
                }
            }
        }
    }
    if out.len() as u64 != rows {
        return Err(ColumnarError::BadFormat("row count mismatch"));
    }
    Ok(out)
}

/// Picks RLE when it actually compresses, else plain (a tiny version of
/// Parquet's encoding selection).
fn choose_encoding(values: &[u64]) -> Encoding {
    let rle_len = encode_chunk(values, Encoding::Rle).len();
    if rle_len < values.len() * 8 / 2 {
        Encoding::Rle
    } else {
        Encoding::Plain
    }
}

/// Writes `batch` as a columnar file with `rows_per_group`, returning its
/// metadata (also recoverable from the footer alone).
pub fn write_file(
    store: &mut BlockStore,
    batch: &ColumnBatch,
    rows_per_group: usize,
    now: Ns,
) -> Result<(FileMeta, Ns), ColumnarError> {
    let mut image: Vec<u8> = Vec::new();
    let mut groups = Vec::new();
    let rows = batch.num_rows();
    let mut start = 0usize;
    while start < rows.max(1) {
        let end = (start + rows_per_group.max(1)).min(rows);
        let mut chunks = Vec::new();
        for col in &batch.columns {
            let slice = &col[start..end];
            let encoding = choose_encoding(slice);
            let data = encode_chunk(slice, encoding);
            chunks.push(ChunkMeta {
                offset: image.len() as u64,
                len: data.len() as u64,
                encoding,
                min: slice.iter().copied().min().unwrap_or(0),
                max: slice.iter().copied().max().unwrap_or(0),
                rows: slice.len() as u64,
            });
            image.extend_from_slice(&data);
        }
        groups.push(RowGroupMeta {
            chunks,
            rows: (end - start) as u64,
        });
        if rows == 0 {
            break;
        }
        start = end;
    }
    // Footer.
    let mut footer = Vec::new();
    footer.extend_from_slice(&(batch.names.len() as u32).to_le_bytes());
    for name in &batch.names {
        footer.extend_from_slice(&(name.len() as u32).to_le_bytes());
        footer.extend_from_slice(name.as_bytes());
    }
    footer.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    for g in &groups {
        footer.extend_from_slice(&g.rows.to_le_bytes());
        for c in &g.chunks {
            footer.extend_from_slice(&c.offset.to_le_bytes());
            footer.extend_from_slice(&c.len.to_le_bytes());
            footer.push(match c.encoding {
                Encoding::Plain => 0,
                Encoding::Rle => 1,
            });
            footer.extend_from_slice(&c.min.to_le_bytes());
            footer.extend_from_slice(&c.max.to_le_bytes());
            footer.extend_from_slice(&c.rows.to_le_bytes());
        }
    }
    let footer_off = image.len() as u64;
    image.extend_from_slice(&footer);
    image.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    image.extend_from_slice(&footer_off.to_le_bytes());
    image.extend_from_slice(&MAGIC.to_le_bytes());
    // Persist.
    let blocks = image.len().div_ceil(BLOCK as usize).max(1) as u64;
    let first_lba = store.alloc(blocks)?;
    image.resize((blocks * BLOCK) as usize, 0);
    let file_bytes = footer_off + footer.len() as u64 + 20;
    let done = store.write(first_lba, image, now)?;
    let _ = file_bytes;
    Ok((
        FileMeta {
            schema: batch.names.clone(),
            groups,
            first_lba,
        },
        done,
    ))
}

/// Reads the footer of a file of `total_blocks` starting at `first_lba`,
/// reconstructing [`FileMeta`] with no out-of-band information.
pub fn read_footer(
    store: &mut BlockStore,
    first_lba: u64,
    total_blocks: u32,
    now: Ns,
) -> Result<(FileMeta, Ns), ColumnarError> {
    // Read the tail of the file (last two blocks cover the magic and the
    // 16 coordinate bytes even across a block boundary).
    let tail_blocks = total_blocks.min(2);
    let tail_first = first_lba + total_blocks as u64 - tail_blocks as u64;
    let (tail, t) = store.read(tail_first, tail_blocks, now)?;
    // Scan back from the end for the magic (the file is zero-padded).
    let mut magic_pos = None;
    for i in (0..=(tail.len() - 4)).rev() {
        if u32::from_le_bytes(tail[i..i + 4].try_into().expect("4 bytes")) == MAGIC {
            magic_pos = Some(i);
            break;
        }
    }
    let Some(pos) = magic_pos else {
        return Err(ColumnarError::BadFormat("missing magic"));
    };
    if pos < 16 {
        return Err(ColumnarError::BadFormat("truncated coordinates"));
    }
    let footer_len =
        u64::from_le_bytes(tail[pos - 16..pos - 8].try_into().expect("8 bytes")) as usize;
    let footer_off = u64::from_le_bytes(tail[pos - 8..pos].try_into().expect("8 bytes")) as usize;
    // Read only the blocks the footer spans.
    let foot_first_block = footer_off as u64 / BLOCK;
    let foot_last_block = (footer_off + footer_len - 1) as u64 / BLOCK;
    let (raw, t) = store.read(
        first_lba + foot_first_block,
        (foot_last_block - foot_first_block + 1) as u32,
        t,
    )?;
    let local = footer_off - (foot_first_block * BLOCK) as usize;
    let footer = &raw[local..local + footer_len];
    // Parse.
    let mut cur = 0usize;
    let take_u32 = |cur: &mut usize| -> u32 {
        let v = u32::from_le_bytes(footer[*cur..*cur + 4].try_into().expect("4 bytes"));
        *cur += 4;
        v
    };
    let take_u64 = |cur: &mut usize| -> u64 {
        let v = u64::from_le_bytes(footer[*cur..*cur + 8].try_into().expect("8 bytes"));
        *cur += 8;
        v
    };
    let ncols = take_u32(&mut cur) as usize;
    let mut schema = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = take_u32(&mut cur) as usize;
        schema.push(String::from_utf8_lossy(&footer[cur..cur + len]).into_owned());
        cur += len;
    }
    let ngroups = take_u32(&mut cur) as usize;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let rows = take_u64(&mut cur);
        let mut chunks = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let offset = take_u64(&mut cur);
            let len = take_u64(&mut cur);
            let encoding = match footer[cur] {
                0 => Encoding::Plain,
                1 => Encoding::Rle,
                _ => return Err(ColumnarError::BadFormat("bad encoding tag")),
            };
            cur += 1;
            let min = take_u64(&mut cur);
            let max = take_u64(&mut cur);
            let chunk_rows = take_u64(&mut cur);
            chunks.push(ChunkMeta {
                offset,
                len,
                encoding,
                min,
                max,
                rows: chunk_rows,
            });
        }
        groups.push(RowGroupMeta { chunks, rows });
    }
    Ok((
        FileMeta {
            schema,
            groups,
            first_lba,
        },
        t,
    ))
}

/// A predicate pushed down to the scan: `column <op> literal`.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// Column the predicate applies to.
    pub column: String,
    /// Lower bound (inclusive).
    pub min: u64,
    /// Upper bound (inclusive).
    pub max: u64,
}

impl Predicate {
    /// `column` between `min` and `max`, inclusive.
    pub fn between(column: impl Into<String>, min: u64, max: u64) -> Predicate {
        Predicate {
            column: column.into(),
            min,
            max,
        }
    }

    fn excludes(&self, chunk: &ChunkMeta) -> bool {
        chunk.max < self.min || chunk.min > self.max
    }
}

/// Statistics from one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Row groups whose stats excluded the predicate.
    pub groups_skipped: u64,
    /// Row groups actually read.
    pub groups_read: u64,
    /// Encoded bytes fetched from the device.
    pub bytes_read: u64,
}

/// Scans `projection` columns of the file, applying `predicate` with
/// row-group skipping. Returns the selected rows as a [`ColumnBatch`].
///
/// Chunk reads are data-independent, so the scan engine issues them all
/// at `now` (deep NVMe queue) and completes when the last one lands —
/// flash channel/die contention is resolved by the device model.
pub fn scan(
    store: &mut BlockStore,
    meta: &FileMeta,
    projection: &[&str],
    predicate: Option<&Predicate>,
    now: Ns,
) -> Result<(ColumnBatch, ScanStats, Ns), ColumnarError> {
    // Column indices for the projection and the predicate.
    let col_index = |name: &str| -> Result<usize, ColumnarError> {
        meta.schema
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| ColumnarError::NoSuchColumn(name.to_string()))
    };
    let proj_idx: Vec<usize> = projection
        .iter()
        .map(|n| col_index(n))
        .collect::<Result<_, _>>()?;
    let pred_idx = predicate.map(|p| col_index(&p.column)).transpose()?;

    let mut out_cols: Vec<Vec<u64>> = vec![Vec::new(); proj_idx.len()];
    let mut stats = ScanStats::default();
    let mut t = now;
    // All chunk reads issue at `now`; the device resolves contention.
    let fetch =
        |store: &mut BlockStore, chunk: &ChunkMeta| -> Result<(Vec<u64>, Ns), ColumnarError> {
            let first = meta.first_lba + chunk.offset / BLOCK;
            let last = meta.first_lba + (chunk.offset + chunk.len.max(1) - 1) / BLOCK;
            let (raw, done) = store.read(first, (last - first + 1) as u32, now)?;
            let start = (chunk.offset % BLOCK) as usize;
            let data = &raw[start..start + chunk.len as usize];
            Ok((decode_chunk(data, chunk.encoding, chunk.rows)?, done))
        };
    for g in &meta.groups {
        if let (Some(p), Some(pi)) = (predicate, pred_idx) {
            if p.excludes(&g.chunks[pi]) {
                stats.groups_skipped += 1;
                continue;
            }
        }
        stats.groups_read += 1;
        // Fetch the predicate column (if any) and build the selection
        // mask, then the projected chunks.
        let mask: Option<Vec<bool>> = match (predicate, pred_idx) {
            (Some(p), Some(pi)) => {
                let chunk = &g.chunks[pi];
                stats.bytes_read += chunk.len;
                let (values, done) = fetch(store, chunk)?;
                t = t.max(done);
                Some(values.iter().map(|v| *v >= p.min && *v <= p.max).collect())
            }
            _ => None,
        };
        for (out, &ci) in out_cols.iter_mut().zip(proj_idx.iter()) {
            let chunk = &g.chunks[ci];
            stats.bytes_read += chunk.len;
            let (values, done) = fetch(store, chunk)?;
            t = t.max(done);
            match &mask {
                Some(m) => out.extend(
                    values
                        .iter()
                        .zip(m.iter())
                        .filter(|(_, &keep)| keep)
                        .map(|(v, _)| *v),
                ),
                None => out.extend(values),
            }
        }
    }
    let batch = ColumnBatch::new(projection.iter().map(|s| s.to_string()).collect(), out_cols)?;
    Ok((batch, stats, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch(rows: usize) -> ColumnBatch {
        let ids: Vec<u64> = (0..rows as u64).collect();
        let price: Vec<u64> = (0..rows as u64).map(|i| (i * 7) % 1000).collect();
        let region: Vec<u64> = (0..rows as u64)
            .map(|i| i / (rows as u64 / 4).max(1))
            .collect();
        ColumnBatch::new(
            vec!["id".into(), "price".into(), "region".into()],
            vec![ids, price, region],
        )
        .unwrap()
    }

    fn written(rows: usize, per_group: usize) -> (BlockStore, FileMeta) {
        let mut store = BlockStore::with_capacity(1 << 20);
        let batch = sample_batch(rows);
        let (meta, _) = write_file(&mut store, &batch, per_group, Ns::ZERO).unwrap();
        (store, meta)
    }

    #[test]
    fn write_scan_round_trip() {
        let (mut store, meta) = written(10_000, 2_500);
        assert_eq!(meta.groups.len(), 4);
        assert_eq!(meta.num_rows(), 10_000);
        let (batch, _, _) = scan(&mut store, &meta, &["id", "price"], None, Ns::ZERO).unwrap();
        assert_eq!(batch.num_rows(), 10_000);
        assert_eq!(batch.column("id").unwrap()[42], 42);
        assert_eq!(batch.column("price").unwrap()[3], 21);
    }

    #[test]
    fn footer_reconstruction_matches() {
        let mut store = BlockStore::with_capacity(1 << 20);
        let batch = sample_batch(5_000);
        let (meta, _) = write_file(&mut store, &batch, 1_000, Ns::ZERO).unwrap();
        let total_blocks = (store.cursor() - meta.first_lba) as u32;
        let (meta2, _) = read_footer(&mut store, meta.first_lba, total_blocks, Ns::ZERO).unwrap();
        assert_eq!(meta2.schema, meta.schema);
        assert_eq!(meta2.groups.len(), meta.groups.len());
        assert_eq!(meta2.num_rows(), meta.num_rows());
        // Scanning via the reconstructed footer works identically.
        let (b1, _, _) = scan(&mut store, &meta, &["price"], None, Ns::ZERO).unwrap();
        let (b2, _, _) = scan(&mut store, &meta2, &["price"], None, Ns::ZERO).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn projection_reads_fewer_bytes() {
        let (mut store, meta) = written(20_000, 5_000);
        let (_, all, _) = scan(
            &mut store,
            &meta,
            &["id", "price", "region"],
            None,
            Ns::ZERO,
        )
        .unwrap();
        let (_, one, _) = scan(&mut store, &meta, &["price"], None, Ns::ZERO).unwrap();
        assert!(
            one.bytes_read * 2 < all.bytes_read,
            "projection must cut bytes: {} vs {}",
            one.bytes_read,
            all.bytes_read
        );
    }

    #[test]
    fn predicate_pushdown_skips_row_groups() {
        // `id` is sorted, so group stats partition the range cleanly.
        let (mut store, meta) = written(10_000, 1_000);
        let pred = Predicate::between("id", 4_200, 4_300);
        let (batch, stats, _) = scan(&mut store, &meta, &["id"], Some(&pred), Ns::ZERO).unwrap();
        assert_eq!(batch.num_rows(), 101);
        assert_eq!(stats.groups_read, 1);
        assert_eq!(stats.groups_skipped, 9);
    }

    #[test]
    fn predicate_filters_rows_within_groups() {
        let (mut store, meta) = written(1_000, 1_000);
        let pred = Predicate::between("price", 0, 6);
        let (batch, _, _) = scan(&mut store, &meta, &["price"], Some(&pred), Ns::ZERO).unwrap();
        assert!(batch.num_rows() > 0);
        assert!(batch.column("price").unwrap().iter().all(|&p| p <= 6));
    }

    #[test]
    fn rle_kicks_in_for_low_cardinality() {
        // `region` has 4 distinct sorted values: RLE must compress.
        let batch = sample_batch(10_000);
        let region = batch.column("region").unwrap();
        assert_eq!(choose_encoding(region), Encoding::Rle);
        let plain = encode_chunk(region, Encoding::Plain);
        let rle = encode_chunk(region, Encoding::Rle);
        assert!(rle.len() * 10 < plain.len());
        assert_eq!(
            decode_chunk(&rle, Encoding::Rle, region.len() as u64).unwrap(),
            region
        );
    }

    #[test]
    fn ragged_batches_rejected() {
        assert!(matches!(
            ColumnBatch::new(vec!["a".into(), "b".into()], vec![vec![1], vec![1, 2]]),
            Err(ColumnarError::RaggedBatch)
        ));
    }

    #[test]
    fn unknown_projection_column_errors() {
        let (mut store, meta) = written(100, 100);
        assert!(matches!(
            scan(&mut store, &meta, &["bogus"], None, Ns::ZERO),
            Err(ColumnarError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let batch = ColumnBatch::new(vec!["x".into()], vec![vec![]]).unwrap();
        let (meta, _) = write_file(&mut store, &batch, 100, Ns::ZERO).unwrap();
        let (out, _, _) = scan(&mut store, &meta, &["x"], None, Ns::ZERO).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
