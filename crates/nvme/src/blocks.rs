//! Where an [`NvmeDevice`](crate::NvmeDevice) keeps its written LBAs: a
//! flat table indexed by LBA, in fixed chunks allocated on the first write
//! to each — the shape of an SSD FTL's logical-to-physical map.
//!
//! A batch-1 load-balancer spill writes one fresh LBA per evicted flow, 50k
//! in a run. Kept in a hash map keyed by LBA, they made the map rehash as
//! it grew, and the rehash plus first writes into fresh buckets took a
//! quarter of that workload's host time. Here a write finds its slot by
//! two indexings, and the table costs one pointer per chunk up to the
//! highest LBA written (512 KiB on a 2^24-LBA SSD) plus the chunks written.

use bytes::Bytes;

use crate::prefixes::Prefix;

/// LBAs per chunk.
const CHUNK: u64 = 256;

/// One written LBA as the device holds it.
#[derive(Debug)]
pub(crate) enum Stored {
    /// The whole block, usually a slice of the buffer it arrived in.
    Block(Bytes),
    /// The written prefix of a block that was fresh and mostly zero; the
    /// rest of the block is zeros.
    Prefix(Prefix),
}

type Chunk = [Option<Stored>; CHUNK as usize];

/// The slot for LBA `lba` is `chunks[lba / CHUNK][lba % CHUNK]`; `None`
/// chunks and slots are unwritten.
#[derive(Debug, Default)]
pub(crate) struct BlockTable {
    chunks: Vec<Option<Box<Chunk>>>,
}

impl BlockTable {
    /// What `lba` holds; `None` if it was never written.
    pub(crate) fn get(&self, lba: u64) -> Option<&Stored> {
        let chunk = self.chunks.get(index(lba))?.as_deref()?;
        chunk[(lba % CHUNK) as usize].as_ref()
    }

    /// The slot for `lba`, allocating its chunk on first use.
    pub(crate) fn slot(&mut self, lba: u64) -> &mut Option<Stored> {
        let at = index(lba);
        if at >= self.chunks.len() {
            self.chunks.resize_with(at + 1, || None);
        }
        let chunk =
            self.chunks[at].get_or_insert_with(|| Box::new([const { None }; CHUNK as usize]));
        &mut chunk[(lba % CHUNK) as usize]
    }

    /// What every written LBA holds, in LBA order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stored> {
        self.chunks
            .iter_mut()
            .flatten()
            .flat_map(|chunk| chunk.iter_mut().flatten())
    }
}

/// The chunk holding `lba`.
fn index(lba: u64) -> usize {
    usize::try_from(lba / CHUNK).expect("chunk index fits in usize")
}
