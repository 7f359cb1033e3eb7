//! [`MSet`] — a mergeable set with per-element last-merged-wins conflict
//! semantics and deterministic (ordered) iteration.

use std::collections::BTreeSet;

use sm_ot::set::{Element, SetOp};

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable ordered set.
#[derive(Debug, Clone)]
pub struct MSet<T: Element> {
    inner: Versioned<SetOp<T>>,
}

impl<T: Element> MSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        MSet {
            inner: Versioned::new(BTreeSet::new()),
        }
    }

    /// A set seeded from `items` (base state, no operations recorded).
    pub fn from_items(items: impl IntoIterator<Item = T>) -> Self {
        MSet {
            inner: Versioned::new(items.into_iter().collect()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.state().len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// True if `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.inner.state().contains(value)
    }

    /// Add `value`; returns true if it was newly added. Adding a present
    /// element records nothing (idempotent).
    pub fn insert(&mut self, value: T) -> bool {
        if self.contains(&value) {
            return false;
        }
        self.inner.record_validated(SetOp::Add(value));
        true
    }

    /// Remove `value`; returns true if it was present. Removing an absent
    /// element records nothing.
    pub fn remove(&mut self, value: &T) -> bool {
        if !self.contains(value) {
            return false;
        }
        self.inner.record_validated(SetOp::Remove(value.clone()));
        true
    }

    /// Iterate elements in order.
    pub fn iter(&self) -> std::collections::btree_set::Iter<'_, T> {
        self.inner.state().iter()
    }
}

impl<T: Element> Default for MSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Element> FromIterator<T> for MSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_items(iter)
    }
}

impl<T: Element> PartialEq for MSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl<T: Element> Leaf for MSet<T> {
    type Op = SetOp<T>;

    fn versioned(&self) -> &Versioned<SetOp<T>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<SetOp<T>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<SetOp<T>>) -> Self {
        MSet { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basics() {
        let mut s = MSet::new();
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(s.is_empty());
    }

    #[test]
    fn idempotent_ops_record_nothing() {
        let mut s = MSet::from_items([1]);
        s.insert(1);
        s.remove(&2);
        assert_eq!(s.pending_ops(), 0);
    }

    #[test]
    fn disjoint_adds_union() {
        let mut s = MSet::<u32>::new();
        let mut a = s.fork();
        let mut b = s.fork();
        a.insert(1);
        b.insert(2);
        s.merge(&a).unwrap();
        s.merge(&b).unwrap();
        let items: Vec<_> = s.iter().copied().collect();
        assert_eq!(items, vec![1, 2]);
    }

    #[test]
    fn add_remove_conflict_last_merged_wins() {
        let mut s = MSet::from_items([7u32]);
        let mut adder = s.fork();
        let mut remover = s.fork();
        remover.remove(&7);
        adder.remove(&7);
        adder.insert(7);
        // remover merged last: 7 must be gone.
        s.merge(&adder).unwrap();
        s.merge(&remover).unwrap();
        assert!(!s.contains(&7));
    }
}
