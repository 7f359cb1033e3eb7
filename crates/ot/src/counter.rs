//! OT algebra for **counters**.
//!
//! State is `i64`; the single operation is a signed `Add`. Additions
//! commute, so transformation is the identity — the simplest possible
//! algebra, and a useful sanity anchor for the control algorithm (any
//! serialization of commutative operations converges trivially).

use crate::{ApplyError, Operation, Side, Transformed};

/// An operation on a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterOp {
    /// Signed delta added to the counter.
    pub delta: i64,
}

impl CounterOp {
    /// Construct an addition of `delta`.
    pub fn add(delta: i64) -> Self {
        CounterOp { delta }
    }
}

impl Operation for CounterOp {
    type State = i64;

    type Memo = ();

    fn apply(&self, state: &mut i64) -> Result<(), ApplyError> {
        *state = state.wrapping_add(self.delta);
        Ok(())
    }

    fn transform(&self, _against: &Self, _side: Side) -> Transformed<Self> {
        Transformed::One(*self)
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        Some(CounterOp::add(self.delta.wrapping_add(next.delta)))
    }

    fn annihilates(&self, next: &Self) -> bool {
        self.delta.wrapping_add(next.delta) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    #[test]
    fn apply_adds() {
        let mut s = 10i64;
        CounterOp::add(5).apply(&mut s).unwrap();
        CounterOp::add(-3).apply(&mut s).unwrap();
        assert_eq!(s, 12);
    }

    #[test]
    fn wrapping_does_not_panic() {
        let mut s = i64::MAX;
        CounterOp::add(1).apply(&mut s).unwrap();
        assert_eq!(s, i64::MIN);
    }

    #[test]
    fn tp1_holds_trivially() {
        assert_tp1(&0i64, &CounterOp::add(3), &CounterOp::add(4));
        assert_tp1(&7i64, &CounterOp::add(-3), &CounterOp::add(-4));
    }

    #[test]
    fn concurrent_increments_all_survive() {
        let committed = vec![CounterOp::add(1); 10];
        let incoming = vec![CounterOp::add(1); 5];
        let rebased = seq::rebase(&incoming, &committed);
        let mut s = 0i64;
        crate::apply_all(&mut s, &committed).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        assert_eq!(s, 15, "no increment may be lost or duplicated");
    }
}
