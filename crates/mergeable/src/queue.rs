//! [`MQueue`] — a mergeable FIFO queue, the structure the paper's network
//! simulation (listing 4, §II-H) builds on (`MergeableQueue`).
//!
//! Internally a queue is a list whose operations are restricted to
//! `push_back` (insert at the tail) and `pop_front` (delete at the head).
//! The OT semantics that fall out are exactly what a simulation wants:
//!
//! * Two tasks concurrently **push** to the same queue → both messages
//!   survive; their order is the (deterministic) merge order.
//! * Two tasks concurrently **pop** the same element → the deletes collapse
//!   and the element is consumed once. In a Spawn & Merge program each
//!   queue has one consumer (its host), so this is a safety net, not a work
//!   dispatch mechanism — a popped value is returned from the *local* copy.

use sm_ot::list::{Element, ListOp};
use sm_ot::state::ChunkTree;

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable FIFO queue of `T`.
#[derive(Debug, Clone)]
pub struct MQueue<T: Element> {
    inner: Versioned<ListOp<T>>,
}

impl<T: Element> MQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MQueue {
            inner: Versioned::new(ChunkTree::new()),
        }
    }

    /// A queue seeded with `items` front-to-back (base state, no ops).
    pub fn from_vec(items: Vec<T>) -> Self {
        MQueue {
            inner: Versioned::new(ChunkTree::from_vec(items)),
        }
    }

    /// Number of queued elements — O(1) from the chunk tree's cached count.
    pub fn len(&self) -> usize {
        self.inner.state().len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// Borrow the front element without removing it.
    pub fn front(&self) -> Option<&T> {
        self.inner.state().first()
    }

    /// Enqueue at the back.
    pub fn push_back(&mut self, value: T) {
        let at = self.len();
        self.inner.record_validated(ListOp::Insert(at, value));
    }

    /// Dequeue from the front, if any.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        // Single state access: remove-and-return in one copy-on-write pass.
        Some(self.inner.record_with(ListOp::Delete(0), |s| s.remove(0)))
    }

    /// Iterate front-to-back.
    pub fn iter(&self) -> sm_ot::state::Iter<'_, T> {
        self.inner.state().iter()
    }

    /// Copy the contents out front-to-back. O(n).
    pub fn to_vec(&self) -> Vec<T> {
        self.inner.state().to_vec()
    }
}

impl<T: Element> Default for MQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Element> FromIterator<T> for MQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl<T: Element> PartialEq for MQueue<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl<T: Element> Leaf for MQueue<T> {
    type Op = ListOp<T>;

    fn versioned(&self) -> &Versioned<ListOp<T>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<ListOp<T>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<ListOp<T>>) -> Self {
        MQueue { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn fifo_basics() {
        let mut q = MQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        q.push_back(1);
        q.push_back(2);
        q.push_back(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.to_vec(), vec![3]);
    }

    #[test]
    fn concurrent_pushes_both_survive_in_merge_order() {
        let mut q = MQueue::<u32>::new();
        let mut a = q.fork();
        let mut b = q.fork();
        a.push_back(10);
        a.push_back(11);
        b.push_back(20);
        q.merge(&a).unwrap();
        q.merge(&b).unwrap();
        assert_eq!(q.to_vec(), vec![10, 11, 20]);
    }

    #[test]
    fn reversed_merge_order_reverses_result() {
        let mut q = MQueue::<u32>::new();
        let mut a = q.fork();
        let mut b = q.fork();
        a.push_back(10);
        b.push_back(20);
        q.merge(&b).unwrap();
        q.merge(&a).unwrap();
        assert_eq!(q.to_vec(), vec![20, 10]);
    }

    #[test]
    fn concurrent_pop_of_same_element_consumes_once() {
        let mut q = MQueue::from_iter([1, 2]);
        let mut a = q.fork();
        let mut b = q.fork();
        assert_eq!(a.pop_front(), Some(1));
        assert_eq!(b.pop_front(), Some(1));
        q.merge(&a).unwrap();
        q.merge(&b).unwrap();
        assert_eq!(q.to_vec(), vec![2], "head consumed exactly once");
    }

    #[test]
    fn consumer_pops_while_producers_push() {
        // The netsim pattern: one host pops its queue while others push.
        let mut q = MQueue::from_iter([100]);
        let mut consumer = q.fork();
        let mut producer = q.fork();
        assert_eq!(consumer.pop_front(), Some(100));
        producer.push_back(200);
        q.merge(&consumer).unwrap();
        q.merge(&producer).unwrap();
        assert_eq!(q.to_vec(), vec![200]);
    }

    #[test]
    fn pop_on_empty_records_nothing() {
        let mut q = MQueue::<u8>::new();
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.pending_ops(), 0);
    }
}
