//! Offline shim for the `bytes` crate (see `crates/shims/README.md`).
//!
//! `Bytes` is a cheaply-cloneable read cursor over an `Arc<[u8]>`;
//! `BytesMut` is an append buffer over a `Vec<u8>`. Reader methods
//! (`get_u8`, `copy_to_slice`, `remaining`, …) live only on the [`Buf`]
//! trait and writer methods (`put_u8`, `put_slice`) only on [`BufMut`],
//! mirroring upstream — call sites import the traits exactly as they
//! would with the real crate.

use std::fmt;
use std::sync::Arc;

/// A shared, immutable byte buffer with a consuming read cursor.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

/// A growable byte buffer for building messages.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

/// Read side of a byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consume and return one byte. Panics when empty.
    fn get_u8(&mut self) -> u8;

    /// Consume `dst.len()` bytes into `dst`. Panics on underrun.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

/// Write side of a byte buffer.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);

    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::copy_from_slice(&[])
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the unread region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The unread region as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Split off and return the first `at` unread bytes; `self` keeps the
    /// rest. Panics if fewer than `at` bytes remain.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} > {}",
            self.len()
        );
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// The buffer `subset` covers, sharing this buffer's storage: `subset`
    /// must be borrowed from the unread region (as a parser over
    /// `as_slice()` hands slices out), else this panics. An empty `subset`
    /// gives an empty buffer.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_slice().as_ptr() as usize;
        let at = (subset.as_ptr() as usize).wrapping_sub(base);
        assert!(
            at <= self.len() && subset.len() <= self.len() - at,
            "slice_ref: the subset is not inside this buffer"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + at,
            end: self.start + at + subset.len(),
        }
    }

    /// Copy the unread region into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Discard the first `n` unread bytes. Panics if fewer than `n`
    /// bytes remain.
    pub fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len(),
            "advance out of bounds: {n} > {}",
            self.len()
        );
        self.start += n;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 on empty Bytes");
        let b = self.data[self.start];
        self.start += 1;
        b
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy_to_slice underrun");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for BytesMut {
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The written bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Freeze into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Copy the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", self.as_slice())
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_roundtrip() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_slice(&[1, 2, 3]);
        assert_eq!(w.len(), 4);
        let mut r = w.freeze();
        assert_eq!(r.len(), 4);
        assert_eq!(r.get_u8(), 7);
        let mut rest = [0u8; 3];
        r.copy_to_slice(&mut rest);
        assert_eq!(rest, [1, 2, 3]);
        assert!(!r.has_remaining());
    }

    #[test]
    fn split_to_shares_storage() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(b.to_vec(), vec![3, 4, 5]);
        assert_eq!(b.get_u8(), 3);
    }

    #[test]
    fn slice_ref_shares_the_storage_it_was_cut_from() {
        let mut b = Bytes::copy_from_slice(&[9, 1, 2, 3, 4, 5]);
        b.advance(1);
        let inner = b.slice_ref(&b.as_slice()[1..4]);
        assert_eq!(inner.to_vec(), vec![2, 3, 4]);
        assert!(std::ptr::eq(inner.as_slice(), &b.as_slice()[1..4]));
        assert!(b.slice_ref(&[]).is_empty());
        assert_eq!(b.slice_ref(b.as_slice()), b);
    }

    #[test]
    #[should_panic(expected = "not inside this buffer")]
    fn slice_ref_of_a_foreign_slice_panics() {
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let other = [1u8, 2];
        b.slice_ref(&other);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_past_end_panics() {
        Bytes::copy_from_slice(&[1]).split_to(2);
    }
}
