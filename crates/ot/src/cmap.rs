//! OT algebra for **counter maps**: a map from keys to signed counters
//! whose only operation is `add(key, delta)`.
//!
//! Unlike the LWW [`crate::map`] algebra, counter-map operations are fully
//! commutative — concurrent increments to the same key all survive a
//! merge, which is exactly what aggregation workloads (word counts,
//! histograms, metrics) need. This is the algebra behind
//! `sm_mergeable::MCounterMap` and the distributed word-count example.

use std::collections::BTreeMap;

use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on counter-map key types.
pub trait Key: Clone + Ord + Send + Sync + std::fmt::Debug + 'static {}
impl<T: Clone + Ord + Send + Sync + std::fmt::Debug + 'static> Key for T {}

/// Add `delta` to the counter under `key` (creating it at 0 first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterMapOp<K> {
    /// Which counter.
    pub key: K,
    /// Signed increment.
    pub delta: i64,
}

impl<K: Key> CounterMapOp<K> {
    /// Construct an increment.
    pub fn add(key: K, delta: i64) -> Self {
        CounterMapOp { key, delta }
    }
}

impl<K: Key> Operation for CounterMapOp<K> {
    type State = BTreeMap<K, i64>;

    type Memo = ();

    fn apply(&self, state: &mut BTreeMap<K, i64>) -> Result<(), ApplyError> {
        let slot = state.entry(self.key.clone()).or_insert(0);
        *slot = slot.wrapping_add(self.delta);
        // Keep the state canonical: zero-valued counters are absent, so
        // two states with the same logical content compare equal.
        if *slot == 0 {
            state.remove(&self.key);
        }
        Ok(())
    }

    fn transform(&self, _against: &Self, _side: Side) -> Transformed<Self> {
        // Additions commute: nothing to rewrite, nothing ever lost.
        Transformed::One(self.clone())
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        if self.key == next.key {
            Some(CounterMapOp::add(
                self.key.clone(),
                self.delta.wrapping_add(next.delta),
            ))
        } else {
            None
        }
    }

    fn annihilates(&self, next: &Self) -> bool {
        self.key == next.key && self.delta.wrapping_add(next.delta) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    type Op = CounterMapOp<&'static str>;

    #[test]
    fn apply_creates_and_accumulates() {
        let mut s = BTreeMap::new();
        Op::add("a", 2).apply(&mut s).unwrap();
        Op::add("a", 3).apply(&mut s).unwrap();
        Op::add("b", -1).apply(&mut s).unwrap();
        assert_eq!(s.get("a"), Some(&5));
        assert_eq!(s.get("b"), Some(&-1));
    }

    #[test]
    fn zero_counters_are_canonicalized_away() {
        let mut s = BTreeMap::new();
        Op::add("a", 2).apply(&mut s).unwrap();
        Op::add("a", -2).apply(&mut s).unwrap();
        assert!(!s.contains_key("a"));
    }

    #[test]
    fn tp1_same_and_different_keys() {
        let base: BTreeMap<&str, i64> = [("a", 1)].into_iter().collect();
        assert_tp1(&base, &Op::add("a", 3), &Op::add("a", 4));
        assert_tp1(&base, &Op::add("a", 3), &Op::add("b", 4));
    }

    #[test]
    fn concurrent_increments_all_survive() {
        let committed = vec![Op::add("w", 1), Op::add("x", 2)];
        let incoming = vec![Op::add("w", 10), Op::add("y", 5)];
        let rebased = seq::rebase(&incoming, &committed);
        let mut s = BTreeMap::new();
        crate::apply_all(&mut s, &committed).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        assert_eq!(s.get("w"), Some(&11));
        assert_eq!(s.get("x"), Some(&2));
        assert_eq!(s.get("y"), Some(&5));
    }
}
