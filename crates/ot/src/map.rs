//! OT algebra for **maps** (key → value dictionaries).
//!
//! State is a `BTreeMap<K, V>` (ordered, so iteration over a merged map is
//! deterministic — important because Spawn & Merge programs may iterate
//! their data structures). Operations are whole-key `Put` and `Remove`.
//!
//! Operations on different keys commute; same-key conflicts are resolved by
//! the serialization order the parent chooses: the **incoming** (later
//! merged) operation wins, implemented by vanishing the committed side so
//! that TP1 holds (exactly one of the pair survives either way).

use std::collections::BTreeMap;

use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on map key types.
pub trait Key: Clone + Ord + Send + Sync + std::fmt::Debug + 'static {}
impl<T: Clone + Ord + Send + Sync + std::fmt::Debug + 'static> Key for T {}

/// Requirements on map value types.
pub trait Value: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static {}
impl<T: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static> Value for T {}

/// An operation on a map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOp<K, V> {
    /// Insert or overwrite the value under a key.
    Put(K, V),
    /// Remove a key (no-op if absent — removal is idempotent).
    Remove(K),
}

impl<K: Key, V: Value> MapOp<K, V> {
    /// The key this operation targets.
    pub fn key(&self) -> &K {
        match self {
            MapOp::Put(k, _) | MapOp::Remove(k) => k,
        }
    }
}

impl<K: Key, V: Value> Operation for MapOp<K, V> {
    type State = BTreeMap<K, V>;

    type Memo = ();

    const SCALAR: bool = true;

    fn apply(&self, state: &mut BTreeMap<K, V>) -> Result<(), ApplyError> {
        match self {
            MapOp::Put(k, v) => {
                state.insert(k.clone(), v.clone());
            }
            MapOp::Remove(k) => {
                // Removal of an absent key is fine: a concurrent (already
                // serialized) remove may have won the race; the intention
                // "this key must be gone" is still honoured.
                state.remove(k);
            }
        }
        Ok(())
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        if self.key() != against.key() {
            return Transformed::One(self.clone());
        }
        // Same key: last-merged-wins. The committed (Left) side yields.
        match side {
            Side::Left => Transformed::None,
            Side::Right => Transformed::One(self.clone()),
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        if self.key() == next.key() {
            // Put/Remove under the same key: the second shadows the first.
            Some(next.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    type Op = MapOp<&'static str, i32>;

    fn base() -> BTreeMap<&'static str, i32> {
        let mut m = BTreeMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        m
    }

    #[test]
    fn apply_put_remove() {
        let mut m = base();
        Op::Put("c", 3).apply(&mut m).unwrap();
        assert_eq!(m.get("c"), Some(&3));
        Op::Remove("a").apply(&mut m).unwrap();
        assert!(!m.contains_key("a"));
        // Idempotent remove.
        Op::Remove("a").apply(&mut m).unwrap();
        assert!(!m.contains_key("a"));
    }

    #[test]
    fn different_keys_commute() {
        assert_tp1(&base(), &Op::Put("a", 10), &Op::Put("b", 20));
        assert_tp1(&base(), &Op::Put("a", 10), &Op::Remove("b"));
        assert_tp1(&base(), &Op::Remove("a"), &Op::Remove("b"));
    }

    #[test]
    fn same_key_conflicts_satisfy_tp1() {
        let ops = [Op::Put("a", 10), Op::Put("a", 20), Op::Remove("a")];
        for x in &ops {
            for y in &ops {
                assert_tp1(&base(), x, y);
            }
        }
    }

    #[test]
    fn incoming_put_wins_over_committed_put() {
        let committed = vec![Op::Put("a", 100)];
        let incoming = vec![Op::Put("a", 200)];
        let rebased = seq::rebase(&incoming, &committed);
        let mut m = base();
        crate::apply_all(&mut m, &committed).unwrap();
        crate::apply_all(&mut m, &rebased).unwrap();
        assert_eq!(m.get("a"), Some(&200));
    }

    #[test]
    fn incoming_remove_wins_over_committed_put() {
        let committed = vec![Op::Put("a", 100)];
        let incoming = vec![Op::Remove("a")];
        let rebased = seq::rebase(&incoming, &committed);
        let mut m = base();
        crate::apply_all(&mut m, &committed).unwrap();
        crate::apply_all(&mut m, &rebased).unwrap();
        assert!(!m.contains_key("a"));
    }

    #[test]
    fn sequences_converge() {
        let left = vec![Op::Put("a", 1), Op::Remove("b"), Op::Put("c", 3)];
        let right = vec![Op::Put("b", 9), Op::Put("a", 7)];
        seq::tests::assert_converges(&base(), &left, &right);
    }
}
