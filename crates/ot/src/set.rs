//! OT algebra for **sets**.
//!
//! State is a `BTreeSet<T>` (deterministic iteration). Operations are
//! `Add` / `Remove` of whole elements. Operations on different elements
//! commute; same-element conflicts serialize with last-merged-wins, exactly
//! like the map algebra (a set is a map to unit).

use std::collections::BTreeSet;

use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on set element types.
pub trait Element: Clone + Ord + Send + Sync + std::fmt::Debug + 'static {}
impl<T: Clone + Ord + Send + Sync + std::fmt::Debug + 'static> Element for T {}

/// An operation on a set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetOp<T> {
    /// Ensure the element is present (idempotent).
    Add(T),
    /// Ensure the element is absent (idempotent).
    Remove(T),
}

impl<T: Element> SetOp<T> {
    /// The element this operation targets.
    pub fn element(&self) -> &T {
        match self {
            SetOp::Add(e) | SetOp::Remove(e) => e,
        }
    }
}

impl<T: Element> Operation for SetOp<T> {
    type State = BTreeSet<T>;

    type Memo = ();

    fn apply(&self, state: &mut BTreeSet<T>) -> Result<(), ApplyError> {
        match self {
            SetOp::Add(e) => {
                state.insert(e.clone());
            }
            SetOp::Remove(e) => {
                state.remove(e);
            }
        }
        Ok(())
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        if self.element() != against.element() {
            return Transformed::One(self.clone());
        }
        match side {
            Side::Left => Transformed::None,
            Side::Right => Transformed::One(self.clone()),
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        if self.element() == next.element() {
            // The second add/remove of the element shadows the first.
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

    type Op = SetOp<u32>;

    fn base() -> BTreeSet<u32> {
        [1u32, 2, 3].into_iter().collect()
    }

    #[test]
    fn apply_add_remove_idempotent() {
        let mut s = base();
        Op::Add(4).apply(&mut s).unwrap();
        Op::Add(4).apply(&mut s).unwrap();
        assert!(s.contains(&4));
        Op::Remove(1).apply(&mut s).unwrap();
        Op::Remove(1).apply(&mut s).unwrap();
        assert!(!s.contains(&1));
    }

    #[test]
    fn tp1_all_pairs() {
        let ops = [Op::Add(1), Op::Remove(1), Op::Add(9), Op::Remove(9)];
        for a in &ops {
            for b in &ops {
                assert_tp1(&base(), a, b);
            }
        }
    }

    #[test]
    fn incoming_wins_same_element() {
        let committed = vec![Op::Remove(2)];
        let incoming = vec![Op::Add(2)];
        let rebased = seq::rebase(&incoming, &committed);
        let mut s = base();
        crate::apply_all(&mut s, &committed).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        assert!(
            s.contains(&2),
            "incoming add must win over committed remove"
        );
    }

    #[test]
    fn sequences_converge() {
        let left = vec![Op::Add(10), Op::Remove(1), Op::Add(2)];
        let right = vec![Op::Remove(2), Op::Add(1), Op::Add(11)];
        seq::tests::assert_converges(&base(), &left, &right);
    }
}
