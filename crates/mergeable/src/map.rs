//! [`MMap`] — a mergeable key→value map with per-key last-merged-wins
//! conflict semantics and deterministic (ordered) iteration.

use std::collections::BTreeMap;

use sm_ot::map::{Key, MapOp, Value};

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable ordered map.
///
/// Writes to *different* keys from concurrent tasks all survive a merge;
/// writes to the *same* key serialize in merge order (the last merged task
/// wins the key). Iteration order is the key order, so iterating a merged
/// map is deterministic.
#[derive(Debug, Clone)]
pub struct MMap<K: Key, V: Value> {
    inner: Versioned<MapOp<K, V>>,
}

impl<K: Key, V: Value> MMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        MMap {
            inner: Versioned::new(BTreeMap::new()),
        }
    }

    /// A map seeded from `entries` (base state, no operations recorded).
    pub fn from_entries(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        MMap {
            inner: Versioned::new(entries.into_iter().collect()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.state().len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// Borrow the value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.state().get(key)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.state().contains_key(key)
    }

    /// Insert or overwrite `key → value`. Returns the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let prev = self.inner.state().get(&key).cloned();
        self.inner.record_validated(MapOp::Put(key, value));
        prev
    }

    /// Remove `key`, returning its value if it was present. Removing an
    /// absent key records nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let prev = self.inner.state().get(key).cloned()?;
        self.inner.record_validated(MapOp::Remove(key.clone()));
        Some(prev)
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, K, V> {
        self.inner.state().iter()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> std::collections::btree_map::Keys<'_, K, V> {
        self.inner.state().keys()
    }
}

impl<K: Key, V: Value> Default for MMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> FromIterator<(K, V)> for MMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

impl<K: Key, V: Value> PartialEq for MMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl<K: Key, V: Value> Leaf for MMap<K, V> {
    type Op = MapOp<K, V>;

    fn versioned(&self) -> &Versioned<MapOp<K, V>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<MapOp<K, V>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<MapOp<K, V>>) -> Self {
        MMap { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basics() {
        let mut m = MMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(&2));
        assert!(m.contains_key(&"a"));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.remove(&"a"), None);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn removing_absent_key_records_nothing() {
        let mut m: MMap<&str, u8> = MMap::new();
        assert_eq!(m.remove(&"nope"), None);
        assert_eq!(m.pending_ops(), 0);
    }

    #[test]
    fn disjoint_key_writes_all_survive() {
        let mut m = MMap::from_entries([("base", 0)]);
        let mut a = m.fork();
        let mut b = m.fork();
        a.insert("x", 1);
        b.insert("y", 2);
        m.merge(&a).unwrap();
        m.merge(&b).unwrap();
        assert_eq!(m.get(&"x"), Some(&1));
        assert_eq!(m.get(&"y"), Some(&2));
        assert_eq!(m.get(&"base"), Some(&0));
    }

    #[test]
    fn same_key_last_merged_wins() {
        let mut m = MMap::new();
        let mut a = m.fork();
        let mut b = m.fork();
        a.insert("k", 1);
        b.insert("k", 2);
        m.merge(&a).unwrap();
        m.merge(&b).unwrap();
        assert_eq!(m.get(&"k"), Some(&2), "later merge wins the key");
    }

    #[test]
    fn child_remove_beats_parent_put() {
        let mut m = MMap::from_entries([("k", 0)]);
        let mut child = m.fork();
        child.remove(&"k");
        m.insert("k", 9);
        m.merge(&child).unwrap();
        assert!(
            !m.contains_key(&"k"),
            "incoming remove serializes after the parent put"
        );
    }

    #[test]
    fn iteration_is_ordered() {
        let mut m = MMap::new();
        m.insert("c", 3);
        m.insert("a", 1);
        m.insert("b", 2);
        let keys: Vec<_> = m.keys().copied().collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        let sum: i32 = m.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 6);
    }
}
