//! A thin block-allocation layer over one NVMe block namespace.
//!
//! Every storage abstraction in this crate (B+ tree, LSM runs, WAL, file
//! system, columnar files) allocates 4 KiB blocks from a shared
//! [`BlockStore`], so they can coexist on one device the way the paper's
//! DPU hosts multiple abstractions side by side (§2.3: "A file-, object-,
//! or datastructure-based interface to storage can co-exist in Hyperion").

use bytes::Bytes;
use hyperion_nvme::device::{Command, NvmeDevice, NvmeError, Response};
use hyperion_nvme::params::LBA_SIZE;
use hyperion_sim::time::Ns;

/// Block size (one LBA).
pub const BLOCK: u64 = LBA_SIZE;

/// Errors from the block layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Underlying device error.
    Device(String),
    /// Device is out of blocks.
    OutOfSpace,
    /// A write payload was not exactly one block (internal bug).
    BadSize(usize),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Device(e) => write!(f, "device error: {e}"),
            BlockError::OutOfSpace => write!(f, "out of blocks"),
            BlockError::BadSize(n) => write!(f, "bad block payload size {n}"),
        }
    }
}

impl std::error::Error for BlockError {}

impl From<NvmeError> for BlockError {
    fn from(e: NvmeError) -> BlockError {
        BlockError::Device(e.to_string())
    }
}

/// A device plus a bump allocator.
#[derive(Debug)]
pub struct BlockStore {
    device: NvmeDevice,
    cursor: u64,
    reads: u64,
    writes: u64,
}

impl BlockStore {
    /// Wraps a block-namespace device, allocating from `first_lba` up.
    pub fn new(device: NvmeDevice, first_lba: u64) -> BlockStore {
        BlockStore {
            device,
            cursor: first_lba,
            reads: 0,
            writes: 0,
        }
    }

    /// Convenience: a fresh in-simulation device of `capacity_lbas`.
    pub fn with_capacity(capacity_lbas: u64) -> BlockStore {
        BlockStore::new(NvmeDevice::new_block(capacity_lbas), 0)
    }

    /// Allocates `n` contiguous blocks; returns the first LBA.
    pub fn alloc(&mut self, n: u64) -> Result<u64, BlockError> {
        if self.cursor + n > self.device.capacity_lbas() {
            return Err(BlockError::OutOfSpace);
        }
        let lba = self.cursor;
        self.cursor += n;
        Ok(lba)
    }

    /// Reads `n` blocks starting at `lba`. The returned buffer may share
    /// storage with the device (it is immutable); callers that modify a
    /// block copy it first, and may hand an unmodified one straight back
    /// to [`BlockStore::write`].
    pub fn read(&mut self, lba: u64, n: u32, now: Ns) -> Result<(Bytes, Ns), BlockError> {
        self.reads += n as u64;
        let c = self.device.submit(Command::Read { lba, blocks: n }, now)?;
        match c.response {
            Response::Data(d) => Ok((d, c.done)),
            _ => unreachable!("read returns data"),
        }
    }

    /// Writes whole blocks starting at `lba`; `data` must be a non-zero
    /// multiple of the block size. It may be an owned `Vec<u8>` or a
    /// shared buffer, such as one [`BlockStore::read`] returned, which the
    /// device then keeps without copying.
    pub fn write(&mut self, lba: u64, data: impl Into<Bytes>, now: Ns) -> Result<Ns, BlockError> {
        let data = data.into();
        if data.is_empty() || !data.len().is_multiple_of(BLOCK as usize) {
            return Err(BlockError::BadSize(data.len()));
        }
        self.writes += (data.len() / BLOCK as usize) as u64;
        let c = self.device.submit(Command::Write { lba, data }, now)?;
        Ok(c.done)
    }

    /// Blocks read so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Blocks written so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Next free LBA (for tests and space accounting).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_round_trip() {
        let mut bs = BlockStore::with_capacity(1 << 16);
        let lba = bs.alloc(2).unwrap();
        let mut data = vec![0u8; 2 * BLOCK as usize];
        data[0] = 0xAA;
        data[BLOCK as usize] = 0xBB;
        bs.write(lba, data, Ns::ZERO).unwrap();
        let (back, _) = bs.read(lba, 2, Ns::ZERO).unwrap();
        assert_eq!(back[0], 0xAA);
        assert_eq!(back[BLOCK as usize], 0xBB);
        assert_eq!(bs.reads(), 2);
        assert_eq!(bs.writes(), 2);
    }

    #[test]
    fn alloc_is_monotone_and_bounded() {
        let mut bs = BlockStore::with_capacity(10);
        assert_eq!(bs.alloc(4).unwrap(), 0);
        assert_eq!(bs.alloc(4).unwrap(), 4);
        assert!(matches!(bs.alloc(4), Err(BlockError::OutOfSpace)));
    }

    #[test]
    fn ragged_writes_rejected() {
        let mut bs = BlockStore::with_capacity(16);
        assert!(matches!(
            bs.write(0, vec![1, 2, 3], Ns::ZERO),
            Err(BlockError::BadSize(3))
        ));
    }
}
