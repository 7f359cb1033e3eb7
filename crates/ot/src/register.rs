//! OT algebra for **registers** (single mutable cells).
//!
//! State is a single value `T`; the operation overwrites it. Conflicting
//! concurrent writes serialize with last-merged-wins (the committed side
//! vanishes so TP1 holds), mirroring the same-key rule of the map algebra.

use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on register value types.
pub trait Value: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static {}
impl<T: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static> Value for T {}

/// An operation on a register: overwrite its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterOp<T> {
    /// The new value.
    pub value: T,
}

impl<T: Value> RegisterOp<T> {
    /// Construct a write of `value`.
    pub fn set(value: T) -> Self {
        RegisterOp { value }
    }
}

impl<T: Value> Operation for RegisterOp<T> {
    type State = T;

    type Memo = ();

    const SCALAR: bool = true;

    fn apply(&self, state: &mut T) -> Result<(), ApplyError> {
        *state = self.value.clone();
        Ok(())
    }

    fn transform(&self, _against: &Self, side: Side) -> Transformed<Self> {
        match side {
            Side::Left => Transformed::None,
            Side::Right => Transformed::One(self.clone()),
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        // The second write fully shadows the first.
        Some(next.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    #[test]
    fn apply_overwrites() {
        let mut s = 1u32;
        RegisterOp::set(42).apply(&mut s).unwrap();
        assert_eq!(s, 42);
    }

    #[test]
    fn tp1_conflicting_writes() {
        assert_tp1(&0u32, &RegisterOp::set(1), &RegisterOp::set(2));
    }

    #[test]
    fn incoming_write_wins() {
        let committed = vec![RegisterOp::set(1)];
        let incoming = vec![RegisterOp::set(2)];
        let rebased = seq::rebase(&incoming, &committed);
        let mut s = 0u32;
        crate::apply_all(&mut s, &committed).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        assert_eq!(s, 2);
    }

    #[test]
    fn write_sequences_converge_to_last_serialized() {
        let left = vec![RegisterOp::set('a'), RegisterOp::set('b')];
        let right = vec![RegisterOp::set('x')];
        seq::tests::assert_converges(&'0', &left, &right);
        let rebased = seq::rebase(&right, &left);
        let mut s = '0';
        crate::apply_all(&mut s, &left).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        assert_eq!(s, 'x', "incoming write serializes last and wins");
    }
}
