//! [`MList`] — a mergeable list, the paper's flagship structure
//! (`ins(0,obj)` / `del(1)`, listing 1, Figures 1–2).

use sm_ot::list::{Element, ListOp};
use sm_ot::state::ChunkTree;

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable list of `T`.
///
/// Mutations are recorded as operations; concurrent mutations from forked
/// copies are serialized at merge time with operational transformation.
/// Index-based accessors mirror `Vec` and panic on out-of-range indices
/// (the operations are local, so the caller can always check first).
#[derive(Debug, Clone)]
pub struct MList<T: Element> {
    inner: Versioned<ListOp<T>>,
}

impl<T: Element> MList<T> {
    /// An empty list.
    pub fn new() -> Self {
        MList {
            inner: Versioned::new(ChunkTree::new()),
        }
    }

    /// A list seeded with `items` (no operations recorded: this is the base
    /// state).
    pub fn from_vec(items: Vec<T>) -> Self {
        MList {
            inner: Versioned::new(ChunkTree::from_vec(items)),
        }
    }

    /// Number of elements — O(1) from the chunk tree's cached count.
    pub fn len(&self) -> usize {
        self.inner.state().len()
    }

    /// True if the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// Borrow the element at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.inner.state().get(index)
    }

    /// Borrow the backing [`ChunkTree`].
    pub fn chunk_tree(&self) -> &ChunkTree<T> {
        self.inner.state()
    }

    /// Copy the list out as a plain `Vec`. O(n).
    pub fn to_vec(&self) -> Vec<T> {
        self.inner.state().to_vec()
    }

    /// Iterate over the elements.
    pub fn iter(&self) -> sm_ot::state::Iter<'_, T> {
        self.inner.state().iter()
    }

    /// Append an element (the paper's `Append`).
    pub fn push(&mut self, value: T) {
        let at = self.len();
        self.inner.record_validated(ListOp::Insert(at, value));
    }

    /// Insert an element at `index`.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(
            index <= self.len(),
            "insert index {index} out of range (len {})",
            self.len()
        );
        self.inner.record_validated(ListOp::Insert(index, value));
    }

    /// Remove and return the element at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(
            index < self.len(),
            "remove index {index} out of range (len {})",
            self.len()
        );
        // Single state access: the removal both mutates and reads the
        // element, instead of one copy-on-write access to clone it and a
        // second inside `record`.
        self.inner
            .record_with(ListOp::Delete(index), |s| s.remove(index))
    }

    /// Overwrite the element at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: T) {
        assert!(
            index < self.len(),
            "set index {index} out of range (len {})",
            self.len()
        );
        self.inner.record_validated(ListOp::Set(index, value));
    }
}

impl<T: Element> Default for MList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Element> FromIterator<T> for MList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl<T: Element> PartialEq for MList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl<T: Element> Leaf for MList<T> {
    type Op = ListOp<T>;

    fn versioned(&self) -> &Versioned<ListOp<T>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<ListOp<T>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<ListOp<T>>) -> Self {
        MList { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basic_accessors() {
        let mut l = MList::from_iter([1, 2, 3]);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
        assert_eq!(l.get(1), Some(&2));
        assert_eq!(l.get(5), None);
        assert_eq!(*l.chunk_tree(), vec![1, 2, 3]);
        assert_eq!(l.iter().copied().sum::<i32>(), 6);
        l.set(0, 9);
        assert_eq!(l.remove(0), 9);
        assert_eq!(l.to_vec(), vec![2, 3]);
    }

    #[test]
    fn paper_listing1() {
        // list := NewList(1,2,3); t := Spawn(f, list) where f appends 5;
        // list.Append(4); MergeAllFromSet(t) → [1,2,3,4,5].
        let mut list = MList::from_iter([1, 2, 3]);
        let mut t = list.fork();
        t.push(5);
        list.push(4);
        list.merge(&t).unwrap();
        assert_eq!(list.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "insert index")]
    fn insert_out_of_range_panics() {
        MList::<u8>::new().insert(1, 0);
    }

    #[test]
    #[should_panic(expected = "remove index")]
    fn remove_out_of_range_panics() {
        MList::<u8>::new().remove(0);
    }

    #[test]
    #[should_panic(expected = "set index")]
    fn set_out_of_range_panics() {
        MList::<u8>::new().set(0, 1);
    }

    #[test]
    fn three_sibling_merge_order() {
        let mut l = MList::<u32>::new();
        let mut a = l.fork();
        let mut b = l.fork();
        let mut c = l.fork();
        a.push(1);
        b.push(2);
        c.push(3);
        // Merge in creation order → deterministic [1, 2, 3].
        l.merge(&a).unwrap();
        l.merge(&b).unwrap();
        l.merge(&c).unwrap();
        assert_eq!(l.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_removes_of_same_element() {
        let mut l = MList::from_iter(['a', 'b', 'c']);
        let mut x = l.fork();
        let mut y = l.fork();
        assert_eq!(x.remove(1), 'b');
        assert_eq!(y.remove(1), 'b');
        l.merge(&x).unwrap();
        l.merge(&y).unwrap();
        assert_eq!(l.to_vec(), vec!['a', 'c'], "b removed exactly once");
    }

    #[test]
    fn fork_isolation() {
        let mut parent = MList::from_iter([1]);
        let mut child = parent.fork();
        child.push(2);
        assert_eq!(parent.to_vec(), vec![1], "parent unaffected before merge");
        parent.push(3);
        assert_eq!(child.to_vec(), vec![1, 2], "child unaffected by parent");
    }

    #[test]
    fn pending_ops_counts_compacted() {
        let mut l = MList::<u8>::new();
        assert_eq!(l.pending_ops(), 0);
        l.push(1);
        l.push(2);
        l.set(0, 3);
        // Contiguous appends and the in-run set fuse into one span op.
        assert_eq!(l.pending_ops(), 1);
        assert_eq!(l.to_vec(), vec![3, 2]);
        let c = l.fork();
        assert_eq!(c.pending_ops(), 0);
    }

    #[test]
    fn equality_is_by_content() {
        let a = MList::from_iter([1, 2]);
        let mut b = MList::from_iter([1]);
        b.push(2);
        assert_eq!(a, b);
    }
}
