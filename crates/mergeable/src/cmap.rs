//! [`MCounterMap`] — a mergeable map of signed counters.
//!
//! The commutative sibling of [`crate::MMap`]: instead of last-merged-wins
//! values, every key holds a counter and the only mutation is a signed
//! increment. Merges **never lose an update**, whatever the overlap —
//! the right structure for aggregation (word counts, histograms, metrics),
//! and the backbone of the distributed word-count example.

use std::collections::BTreeMap;

use sm_ot::cmap::{CounterMapOp, Key};

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable key → counter map with deterministic (ordered) iteration.
/// Keys with value 0 are canonically absent.
#[derive(Debug, Clone)]
pub struct MCounterMap<K: Key> {
    inner: Versioned<CounterMapOp<K>>,
}

impl<K: Key> MCounterMap<K> {
    /// An empty counter map.
    pub fn new() -> Self {
        MCounterMap {
            inner: Versioned::new(BTreeMap::new()),
        }
    }

    /// Seed from `(key, value)` entries (base state, no ops). Zero values
    /// are dropped to keep the state canonical.
    pub fn from_entries(entries: impl IntoIterator<Item = (K, i64)>) -> Self {
        let state: BTreeMap<K, i64> = entries.into_iter().filter(|(_, v)| *v != 0).collect();
        MCounterMap {
            inner: Versioned::new(state),
        }
    }

    /// Number of (non-zero) counters.
    pub fn len(&self) -> usize {
        self.inner.state().len()
    }

    /// True if every counter is zero/absent.
    pub fn is_empty(&self) -> bool {
        self.inner.state().is_empty()
    }

    /// The counter under `key` (0 if absent).
    pub fn get(&self, key: &K) -> i64 {
        self.inner.state().get(key).copied().unwrap_or(0)
    }

    /// Add `delta` to the counter under `key`.
    pub fn add(&mut self, key: K, delta: i64) {
        if delta == 0 {
            return;
        }
        self.inner.record_validated(CounterMapOp::add(key, delta));
    }

    /// Increment the counter under `key` by one.
    pub fn inc(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Iterate `(key, value)` in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, K, i64> {
        self.inner.state().iter()
    }

    /// Sum of all counters.
    pub fn total(&self) -> i64 {
        self.inner.state().values().sum()
    }
}

impl<K: Key> Default for MCounterMap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> PartialEq for MCounterMap<K> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.state() == other.inner.state()
    }
}

impl<K: Key> Leaf for MCounterMap<K> {
    type Op = CounterMapOp<K>;

    fn versioned(&self) -> &Versioned<CounterMapOp<K>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<CounterMapOp<K>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<CounterMapOp<K>>) -> Self {
        MCounterMap { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    #[test]
    fn basics() {
        let mut m = MCounterMap::new();
        assert!(m.is_empty());
        m.inc("a");
        m.add("a", 4);
        m.add("b", -2);
        assert_eq!(m.get(&"a"), 5);
        assert_eq!(m.get(&"b"), -2);
        assert_eq!(m.get(&"missing"), 0);
        assert_eq!(m.total(), 3);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_delta_records_nothing() {
        let mut m: MCounterMap<u8> = MCounterMap::new();
        m.add(1, 0);
        assert_eq!(m.pending_ops(), 0);
    }

    #[test]
    fn canceling_to_zero_removes_key() {
        let mut m = MCounterMap::new();
        m.add("k", 3);
        m.add("k", -3);
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_same_key_increments_all_survive() {
        let mut m = MCounterMap::from_entries([("hits", 100)]);
        let mut a = m.fork();
        let mut b = m.fork();
        a.add("hits", 7);
        b.add("hits", 8);
        b.inc("other");
        m.add("hits", 1);
        m.merge(&a).unwrap();
        m.merge(&b).unwrap();
        assert_eq!(m.get(&"hits"), 116, "no increment may be lost");
        assert_eq!(m.get(&"other"), 1);
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let build = |swap: bool| {
            let mut m: MCounterMap<&str> = MCounterMap::new();
            let mut a = m.fork();
            let mut b = m.fork();
            a.add("x", 3);
            b.add("x", 4);
            if swap {
                m.merge(&b).unwrap();
                m.merge(&a).unwrap();
            } else {
                m.merge(&a).unwrap();
                m.merge(&b).unwrap();
            }
            m
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn apply_op_replicates() {
        let mut src = MCounterMap::new();
        src.add("w", 5);
        let mut dst = MCounterMap::new();
        for op in src.log() {
            dst.apply_op(op.clone()).unwrap();
        }
        assert_eq!(dst.get(&"w"), 5);
    }
}
