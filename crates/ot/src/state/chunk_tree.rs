//! [`ChunkTree`]: chunked element sequence with O(1) length and
//! O(log n) point edits.

use super::tree::{Chunk, InLeaf, Leaves, Tree};
use std::fmt;
use std::sync::Arc;

/// Element bound for [`ChunkTree`] storage: what the chunk tree needs
/// to clone, share across threads, and debug-print chunks.
pub trait Item: Clone + Send + Sync + fmt::Debug + 'static {}
impl<T: Clone + Send + Sync + fmt::Debug + 'static> Item for T {}

impl<T: Item> Chunk for Vec<T> {
    const MAX_WEIGHT: usize = 64;

    fn weight(&self) -> usize {
        self.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        // Room for the tail to grow back to the bound without reallocating:
        // an in-place leaf split splices into whichever half it lands in.
        let mut tail = Vec::with_capacity(Self::MAX_WEIGHT);
        tail.extend(self.drain(at..));
        tail
    }

    fn splice(&mut self, at: usize, other: &Self) {
        self.splice(at..at, other.iter().cloned());
    }

    fn remove_range(&mut self, at: usize, len: usize) {
        self.drain(at..at + len);
    }

    fn into_pieces(self, target: usize) -> Vec<Self> {
        self.chunks(target).map(<[T]>::to_vec).collect()
    }

    fn clone_with_room(&self, extra: usize) -> Self {
        let mut copy = Vec::with_capacity(self.len() + extra);
        copy.extend_from_slice(self);
        copy
    }
}

/// Chunked element sequence: the [`crate::list::ListOp`] state backend.
///
/// A B+-tree of `Arc`-shared chunks (≤ 64 elements each, up to 16
/// children per inner node) with element counts cached in every node:
/// [`ChunkTree::len`] is O(1), and insert/remove are O(log n) seek +
/// O(chunk) splice instead of shifting the whole `Vec` tail. Cloning is O(1) and shares every chunk; edits
/// path-copy only the touched root-to-leaf spine, so forked copies stay
/// cheap under copy-on-write.
///
/// Out-of-range indices panic (matching `Vec`); the op layer
/// bounds-checks first and returns [`crate::ApplyError`] instead.
#[derive(Debug, Clone)]
pub struct ChunkTree<T> {
    tree: Tree<Vec<T>>,
}

impl<T: Item> ChunkTree<T> {
    /// Empty sequence.
    #[must_use]
    pub fn new() -> Self {
        ChunkTree { tree: Tree::new() }
    }

    /// Number of elements, from the root's cached count. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.weight()
    }

    /// Whether the sequence holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The element at `index`, or `None` past the end. O(log n).
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len() {
            return None;
        }
        let (chunk, off) = self.tree.leaf_at(index);
        Some(&chunk[off])
    }

    /// The first element, or `None` when empty.
    #[must_use]
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Insert `value` before `index` (`index ≤ len`).
    pub fn insert(&mut self, index: usize, value: T) {
        self.insert_slice(index, std::slice::from_ref(&value));
    }

    /// Insert all of `values` before `index` (`index ≤ len`).
    pub fn insert_slice(&mut self, index: usize, values: &[T]) {
        assert!(
            index <= self.len(),
            "insert at {index} beyond length {}",
            self.len()
        );
        if values.is_empty() {
            return;
        }
        // Up to one chunk's worth goes straight from the slice into the
        // leaf (or the halves of the leaf it splits); only an empty tree or
        // a longer slice needs the values as a chunk of their own.
        let spliced = self.tree.insert_in_leaf(index, values.len(), |c, at| {
            c.splice(at..at, values.iter().cloned());
        });
        if !spliced {
            self.tree.insert(index, values.to_vec());
        }
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        self.insert(self.len(), value);
    }

    /// Remove and return the element at `index` (`index < len`).
    pub fn remove(&mut self, index: usize) -> T {
        assert!(
            index < self.len(),
            "remove at {index} beyond length {}",
            self.len()
        );
        match self.tree.delete_in_leaf(index, 1, |c, off| c.remove(off)) {
            InLeaf::Edited(value) => value,
            // The leaf held this element alone.
            InLeaf::Unlinked(leaf) => Arc::try_unwrap(leaf).map_or_else(
                |shared| shared[0].clone(),
                |mut c| c.pop().expect("a leaf is never empty"),
            ),
            InLeaf::Crosses => unreachable!("one element lies in one leaf"),
        }
    }

    /// Replace the `remove` elements starting at `index` with `values`,
    /// taking ownership so bulk rebuilds skip a copy. One split / join
    /// round instead of separate `remove_range` + `insert_slice` calls —
    /// the batch replay lane rewrites whole windows through here.
    pub fn splice_vec(&mut self, index: usize, remove: usize, values: Vec<T>) {
        assert!(
            index + remove <= self.len(),
            "splice_vec {index}..{} beyond length {}",
            index + remove,
            self.len()
        );
        if remove > 0 {
            self.tree.delete(index, remove);
        }
        if !values.is_empty() {
            self.tree.insert(index, values);
        }
    }

    /// Remove the `len` elements starting at `index` (`index + len ≤ len`).
    pub fn remove_range(&mut self, index: usize, len: usize) {
        assert!(
            index + len <= self.len(),
            "remove_range {index}..{} beyond length {}",
            index + len,
            self.len()
        );
        self.tree.delete(index, len);
    }

    /// Replace the element at `index` (`index < len`). O(log n) path copy.
    pub fn set(&mut self, index: usize, value: T) {
        assert!(
            index < self.len(),
            "set at {index} beyond length {}",
            self.len()
        );
        self.tree.with_leaf_mut(index, |c, off| c[off] = value);
    }

    /// In-order iterator over the elements.
    #[must_use]
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            leaves: self.tree.leaves(),
            cur: [].iter(),
            remaining: self.len(),
        }
    }

    /// In-order iterator over the underlying chunks (contiguous element
    /// runs). Use to stream content without materialising one big `Vec`.
    #[must_use]
    pub fn chunks(&self) -> ChunkIter<'_, T> {
        ChunkIter {
            leaves: self.tree.leaves(),
        }
    }

    /// The whole sequence as an owned `Vec`. O(n).
    #[must_use]
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The `len` elements starting at `index`, as an owned `Vec`
    /// (`index + len ≤ len`).
    #[must_use]
    pub fn range_to_vec(&self, index: usize, len: usize) -> Vec<T> {
        assert!(
            index + len <= self.len(),
            "range {index}..{} beyond length {}",
            index + len,
            self.len()
        );
        let mut out = Vec::with_capacity(len);
        self.tree.for_each_in_range(index, len, |c, start, end| {
            out.extend_from_slice(&c[start..end]);
        });
        out
    }

    /// Build from an owned `Vec`, slicing it into chunks. O(n).
    #[must_use]
    pub fn from_vec(v: Vec<T>) -> Self {
        ChunkTree {
            tree: Tree::from_chunks([v]),
        }
    }

    /// Number of chunks (diagnostics; O(n)).
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Whether `self` and `other` share their root: one is a clone of the
    /// other and neither was edited since (two empty trees count). O(1).
    #[must_use]
    pub(crate) fn ptr_eq(&self, other: &ChunkTree<T>) -> bool {
        self.tree.ptr_eq(&other.tree)
    }

    /// Elements of `self` whose chunk allocation is **not** shared with
    /// `other` — how far a copy-on-write clone has diverged.
    #[must_use]
    pub fn unshared_elems(&self, other: &ChunkTree<T>) -> usize {
        self.tree.fold_unshared(&other.tree, Vec::len)
    }

    /// Build with an explicit chunk layout (empty chunks are dropped).
    /// Test support for layout-independence properties.
    #[doc(hidden)]
    #[must_use]
    pub fn from_chunk_vecs(parts: Vec<Vec<T>>) -> Self {
        ChunkTree {
            tree: Tree::from_chunks(parts),
        }
    }

    /// Validate structural invariants (one leaf depth, node occupancy,
    /// cached counts, chunk bounds). Test support; panics on violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
    }
}

impl<T: Item> Default for ChunkTree<T> {
    fn default() -> Self {
        ChunkTree::new()
    }
}

impl<T: Item> From<Vec<T>> for ChunkTree<T> {
    fn from(v: Vec<T>) -> Self {
        ChunkTree::from_vec(v)
    }
}

impl<T: Item> From<&[T]> for ChunkTree<T> {
    fn from(v: &[T]) -> Self {
        ChunkTree::from_vec(v.to_vec())
    }
}

impl<T: Item> FromIterator<T> for ChunkTree<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ChunkTree::from_vec(iter.into_iter().collect())
    }
}

impl<T: Item + PartialEq> PartialEq for ChunkTree<T> {
    fn eq(&self, other: &ChunkTree<T>) -> bool {
        // Chunk layouts may differ for equal content; compare streamed
        // elements.
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Item + Eq> Eq for ChunkTree<T> {}

impl<T: Item + PartialEq> PartialEq<[T]> for ChunkTree<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Item + PartialEq> PartialEq<Vec<T>> for ChunkTree<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self == other.as_slice()
    }
}

impl<T: Item + PartialEq> PartialEq<ChunkTree<T>> for Vec<T> {
    fn eq(&self, other: &ChunkTree<T>) -> bool {
        other == self
    }
}

impl<T: Item> std::ops::Index<usize> for ChunkTree<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len()))
    }
}

impl<'a, T: Item> IntoIterator for &'a ChunkTree<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// In-order element iterator; see [`ChunkTree::iter`].
pub struct Iter<'a, T> {
    leaves: Leaves<'a, Vec<T>>,
    cur: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T: Item> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(v) = self.cur.next() {
                self.remaining -= 1;
                return Some(v);
            }
            self.cur = self.leaves.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: Item> ExactSizeIterator for Iter<'_, T> {}

/// In-order chunk iterator; see [`ChunkTree::chunks`].
pub struct ChunkIter<'a, T> {
    leaves: Leaves<'a, Vec<T>>,
}

impl<'a, T: Item> Iterator for ChunkIter<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        self.leaves.next().map(Vec::as_slice)
    }
}
