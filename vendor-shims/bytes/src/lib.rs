//! Offline drop-in subset of the [`bytes`] crate.
//!
//! The Hyperion workspace builds in environments with no network access
//! and no vendored registry, so the external `bytes` dependency is
//! replaced by this path crate. It implements exactly the API surface the
//! workspace uses, with the same observable semantics: a cheaply
//! cloneable immutable [`Bytes`] and a fixed-length, uniquely owned
//! [`BytesMut`] to build one in.
//!
//! Every buffer is one `Arc<[u8]>`, one heap allocation that lives as
//! long as the buffer. [`Bytes::slice`] and `clone` share that storage,
//! and so does [`BytesMut::freeze`]: a page built in a [`BytesMut`] (from
//! [`BytesMut::zeroed`] or a copied slice) becomes a [`Bytes`] without a
//! copy. [`Bytes::new`] does not allocate.
//!
//! Building a `Bytes` from a `Vec<u8>` (`From<Vec<u8>>`) copies the bytes
//! once into a new `Arc<[u8]>`, on purpose. An `Arc<Vec<u8>>` that adopted
//! the `Vec` without copying was measured with the `perfbench` host-clock
//! benchmark and rejected: every buffer then costs two heap allocations,
//! which kept glibc from trimming freed memory. That raised the peak RSS
//! of the load-balancer Zipf workload by 5–8.7%, and the retained heap
//! made later runs of the new-flow burst look 2x faster only because they
//! skipped page faults. Code that builds a page should build it in a
//! [`BytesMut`] instead.
//!
//! [`bytes`]: https://docs.rs/bytes

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes` without allocating.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Creates `Bytes` from a static slice without copying semantics
    /// mattering (the shim copies once into shared storage).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        BytesMut::from(data).freeze()
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a slice of self for the provided range, sharing the
    /// underlying storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in &**self {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Bytes {
        m.freeze()
    }
}

/// A fixed-length byte buffer owned by one writer, frozen into a
/// [`Bytes`] in place once built.
pub struct BytesMut {
    /// Never shared until [`BytesMut::freeze`], so always uniquely owned.
    data: Arc<[u8]>,
}

impl BytesMut {
    /// A buffer of `len` zero bytes: one allocation up to 4 KiB, plus a
    /// transient zeroed `Vec` above that.
    pub fn zeroed(len: usize) -> BytesMut {
        // Both arms are a `memcpy` in any build. `Arc::from_iter` over
        // `repeat_n` is as fast in release, but a debug build writes byte
        // by byte, 30 µs per 4 KiB page, which more than doubled the debug
        // test time.
        static ZEROS: [u8; 4096] = [0; 4096];
        let data = match ZEROS.get(..len) {
            Some(zeros) => Arc::from(zeros),
            None => Arc::from(vec![0; len]),
        };
        BytesMut { data }
    }

    /// Converts the buffer into an immutable [`Bytes`] over the same
    /// storage, without copying.
    pub fn freeze(self) -> Bytes {
        Bytes {
            start: 0,
            end: self.data.len(),
            data: self.data,
        }
    }
}

impl From<&[u8]> for BytesMut {
    /// Copies `data` into a new buffer.
    fn from(data: &[u8]) -> BytesMut {
        BytesMut { data: data.into() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("a BytesMut is never shared")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[1..3], &[2, 3]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(b.clone(), b);
    }

    #[test]
    fn slice_and_clone_share_storage() {
        let b = Bytes::from(vec![0u8; 64]);
        let base = b.as_ptr() as usize;
        let s = b.slice(16..48);
        assert_eq!(s.as_ptr() as usize, base + 16);
        let inner = s.slice(8..);
        assert_eq!(inner.as_ptr() as usize, base + 24);
        assert_eq!(inner.len(), 24);
        assert_eq!(b.clone().as_ptr() as usize, base);
        assert_eq!(s.clone().as_ptr() as usize, base + 16);
    }

    #[test]
    fn zeroed_builds_in_place_and_freeze_shares_storage() {
        let mut m = BytesMut::zeroed(4096);
        assert_eq!(m.len(), 4096);
        assert!(m.iter().all(|&b| b == 0));
        m[..2].copy_from_slice(&0xBEEFu16.to_le_bytes());
        m[4095] = 7;
        let base = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), base, "freeze must not copy");
        assert_eq!(b.len(), 4096);
        assert_eq!(&b[..3], &[0xEF, 0xBE, 0]);
        assert_eq!(b[4095], 7);
        assert!(BytesMut::zeroed(0).freeze().is_empty());
        let mut big = BytesMut::zeroed(3 * 4096 + 1);
        assert!(big.iter().all(|&b| b == 0));
        big[3 * 4096] = 1;
        let base = big.as_ptr();
        let big = big.freeze();
        assert_eq!(
            (big.len(), big.as_ptr(), big[3 * 4096]),
            (3 * 4096 + 1, base, 1)
        );
    }

    #[test]
    fn copied_buffers_edit_without_touching_the_source() {
        let src = Bytes::from(vec![5u8; 16]);
        let mut m = BytesMut::from(&src[..]);
        m[0] = 9;
        let base = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), base);
        assert_eq!(b.len(), 16);
        assert_eq!((b[0], b[1], src[0]), (9, 5, 5));
    }
}
