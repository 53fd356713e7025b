//! Where an [`NvmeDevice`](crate::NvmeDevice) keeps the written prefixes
//! of fresh near-empty blocks: packed end to end in fixed-size slabs
//! instead of one heap allocation per block.
//!
//! A batch-1 load-balancer spill writes 50k such blocks (one 16-byte
//! record each, declared with `Command::WritePrefix`) in one run. As separate allocations they would be 50k small
//! chunks threaded through the holes the device's growing tables leave
//! behind, and the process's peak resident memory would depend on how the
//! allocator happened to lay them out. Slabs of one size are reused whole.

/// Bytes per slab. A prefix is at most half a block, so it never
/// straddles two slabs and a slab wastes at most that much at its end.
const SLAB: usize = 64 * 1024;

/// A prefix's place: slab, offset and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prefix {
    slab: u32,
    at: u32,
    len: u32,
}

impl Prefix {
    /// Length in bytes.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// The slabs, with the bytes still referred to (`live`) and those whose
/// block was overwritten (`dead`).
#[derive(Debug, Default)]
pub(crate) struct Prefixes {
    slabs: Vec<Vec<u8>>,
    live: usize,
    dead: usize,
}

impl Prefixes {
    /// Copies `bytes` into the last slab, or a new one if it is full.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than half a slab.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> Prefix {
        assert!(bytes.len() <= SLAB / 2, "prefix of {} bytes", bytes.len());
        if self
            .slabs
            .last()
            .is_none_or(|s| s.len() + bytes.len() > SLAB)
        {
            self.slabs.push(Vec::with_capacity(SLAB));
        }
        let slab = self.slabs.len() - 1;
        let at = self.slabs[slab].len();
        self.slabs[slab].extend_from_slice(bytes);
        self.live += bytes.len();
        Prefix {
            slab: u32::try_from(slab).expect("fewer than 2^32 slabs"),
            // Both at most `SLAB`.
            at: at as u32,
            len: bytes.len() as u32,
        }
    }

    /// The bytes of `p`.
    pub(crate) fn get(&self, p: Prefix) -> &[u8] {
        &self.slabs[p.slab as usize][p.at as usize..][..p.len()]
    }

    /// Marks `p` as no longer referred to. Returns whether the dead bytes
    /// now fill a slab and outweigh the live ones, so that the owner
    /// should [`Prefixes::repack`] to bound the waste.
    pub(crate) fn release(&mut self, p: Prefix) -> bool {
        self.live -= p.len();
        self.dead += p.len();
        self.dead >= SLAB && self.dead > self.live
    }

    /// Bytes of the prefixes still referred to.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Slabs allocated.
    #[cfg(test)]
    pub(crate) fn slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Moves every prefix `refs` yields into fresh slabs, in that order,
    /// updating each reference, and drops the old slabs.
    pub(crate) fn repack<'a>(&mut self, refs: impl Iterator<Item = &'a mut Prefix>) {
        let old = std::mem::take(self);
        for p in refs {
            *p = self.push(old.get(*p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_pack_into_slabs_and_repack_drops_the_dead() {
        let mut arena = Prefixes::default();
        let mut kept = Vec::new();
        for i in 0..200u32 {
            let bytes = vec![i as u8; 64 * (1 + i as usize % 32)];
            let p = arena.push(&bytes);
            assert_eq!(arena.get(p), &bytes[..]);
            kept.push((p, bytes));
        }
        // 200 prefixes of 64..2048 bytes, about 200 KiB: four slabs,
        // none of them grown past its size.
        assert_eq!(arena.slabs.len(), 4);
        assert!(arena.slabs.iter().all(|s| s.capacity() == SLAB));
        let mut live = kept.split_off(180);
        // Less than a slab dead: no repack yet, whatever the live bytes.
        assert!(!arena.release(kept[0].0));
        // All but the last 20 dead: repack.
        let repack = kept[1..]
            .iter()
            .fold(false, |r, (p, _)| arena.release(*p) | r);
        assert!(repack);
        arena.repack(live.iter_mut().map(|(p, _)| p));
        for (p, bytes) in &live {
            assert_eq!(arena.get(*p), &bytes[..]);
        }
        assert_eq!(arena.dead, 0);
        assert_eq!(arena.live, live.iter().map(|(_, b)| b.len()).sum::<usize>());
        assert_eq!(arena.slabs.len(), 1);
    }
}
