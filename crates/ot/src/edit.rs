//! The insert/delete rules of the sequence algebras, written once.
//!
//! [`crate::list::ListOp`] and [`crate::text::TextOp`] are one algebra
//! over two payloads: position-addressed inserts of a run of units and
//! range deletes (the paper's list example, §II-B, and its mergeable
//! strings, §II-C). Both read their ops through [`DeltaOp::edit`], a view
//! that borrows an op's kind, position and units, and route their
//! transform, compose and bounds rules here. An op that touches no unit
//! (an empty insert, a zero-length delete) transforms to nothing, leaves
//! the op transformed against it unchanged and composes away. A result
//! that only moves an op keeps its variant ([`DeltaOp::with_pos`]); one of
//! a new length takes the algebra's canonical form
//! ([`DeltaOp::from_span`]). The list keeps its `Set` arms; a `Set`
//! reaches these rules only as the op transformed against (it moves no
//! position) or as one `compose` does not fuse.

use crate::delta::{DeltaOp, DeltaPayload, OpSpan};
use crate::{ApplyError, Side, Transformed};

/// An op's geometry, borrowed from it ([`DeltaOp::edit`]).
#[derive(Debug)]
pub enum Edit<'a, U: ?Sized> {
    /// `Insert(pos, len, units)`: `len` units inserted to start at `pos`.
    Insert(usize, usize, &'a U),
    /// `Delete(pos, len)`: the `len` units starting at `pos` deleted.
    Delete(usize, usize),
    /// `Set(pos)`: the unit at `pos` overwritten in place (`ListOp::Set`).
    Set(usize),
}

impl<U: ?Sized> Edit<'_, U> {
    /// An insert or delete of no unit.
    fn is_noop(&self) -> bool {
        matches!(self, Edit::Insert(_, 0, _) | Edit::Delete(_, 0))
    }
}

/// The algebra's canonical insert of `payload` at `pos`.
fn ins<O: DeltaOp>(pos: usize, payload: O::Payload) -> O {
    O::from_span(OpSpan::Insert { pos, payload })
}

/// The algebra's canonical delete of `len` units at `pos`.
fn del<O: DeltaOp>(pos: usize, len: usize) -> O {
    O::from_span(OpSpan::Delete { pos, len })
}

/// `apply`'s whole precondition on a state of `len` units, and the length
/// the op leaves. A range end past `usize::MAX` is out of range, not a
/// wrapped position; a zero-length op must sit inside too.
#[inline]
pub(crate) fn check_bounds<O: DeltaOp>(op: &O, len: usize) -> Result<usize, ApplyError> {
    let after = match op.edit() {
        Edit::Insert(pos, n, _) => (pos <= len).then(|| len + n),
        Edit::Delete(pos, n) => pos
            .checked_add(n)
            .filter(|&end| end <= len)
            .map(|_| len - n),
        Edit::Set(pos) => (pos < len).then_some(len),
    };
    after.ok_or_else(|| op.out_of_range(len))
}

/// Whether `run` applies in order to a state of `len` units: `Ok` exactly
/// when applying it would succeed, else the error of the first op that
/// would fail ([`crate::Operation::check_run`]).
pub(crate) fn check_run<O: DeltaOp>(mut len: usize, run: &[O]) -> Result<(), ApplyError> {
    for op in run {
        len = check_bounds(op, len)?;
    }
    Ok(())
}

/// Inclusion transformation of `op`, on `side`, against the concurrent
/// `against` ([`crate::Operation::transform`]); `op` is no `Set`.
pub(crate) fn transform<O: DeltaOp>(op: &O, against: &O, side: Side) -> Transformed<O> {
    let (a, b) = (op.edit(), against.edit());
    if a.is_noop() {
        return Transformed::None;
    }
    if b.is_noop() {
        return Transformed::One(op.clone());
    }
    let moved = |pos| Transformed::One(op.with_pos(pos));
    match (a, b) {
        // The other insert shifts us right if it lands strictly before us,
        // or at the same position when we lose the tie.
        (Edit::Insert(i, ..), Edit::Insert(j, t, _))
            if j < i || (j == i && side == Side::Right) =>
        {
            moved(i + t)
        }
        (Edit::Insert(i, ..), Edit::Delete(j, m)) if i > j => {
            // An insertion point inside the deleted range lands at the
            // deletion point (the closest surviving position).
            moved(if i >= j + m { i - m } else { j })
        }
        (Edit::Delete(i, _), Edit::Insert(j, t, _)) if j <= i => moved(i + t),
        // An insert interleaving our range splits it, so the concurrently
        // inserted units survive.
        (Edit::Delete(i, n), Edit::Insert(j, t, _)) if j < i + n => {
            Transformed::Two(del(i, j - i), del(i + t, n - (j - i)))
        }
        (Edit::Delete(i, n), Edit::Delete(j, m)) => {
            let remaining = n - (i + n).min(j + m).saturating_sub(i.max(j));
            // Our surviving range starts where it did if we begin before
            // the other delete, else right after the other's start.
            let pos = if i <= j {
                i
            } else {
                i.saturating_sub(m).max(j)
            };
            match remaining {
                0 => Transformed::None,
                _ => Transformed::One(del(pos, remaining)),
            }
        }
        (Edit::Set(_), _) => unreachable!("a Set transforms in its own algebra"),
        // Nothing before us moved, or `against` is a `Set`, which moves no
        // position.
        _ => Transformed::One(op.clone()),
    }
}

/// Fuse `op; next` into one op ([`crate::Operation::compose`]), or `None`.
pub(crate) fn compose<O: DeltaOp>(op: &O, next: &O) -> Option<O> {
    let (a, b) = (op.edit(), next.edit());
    if a.is_noop() {
        return Some(next.clone());
    }
    if b.is_noop() {
        return Some(op.clone());
    }
    match (a, b) {
        // Insert then insert at, inside or right after the run: one bigger
        // run.
        (Edit::Insert(i, len, units), Edit::Insert(j, _, more)) if i <= j && j <= i + len => Some(
            ins::<O>(i, O::Payload::spliced(units, j - i, 0, Some(more))),
        ),
        // Insert then delete of part of the run: shrink the run. Full
        // cancellation is `annihilates`.
        (Edit::Insert(i, len, units), Edit::Delete(j, m))
            if i <= j && j + m <= i + len && m < len =>
        {
            Some(ins::<O>(i, O::Payload::spliced(units, j - i, m, None)))
        }
        // Delete then delete at the same spot (the units slid left under
        // the cursor) or right before it (backspace style): one range.
        (Edit::Delete(i, n), Edit::Delete(j, m)) if j == i => Some(del(i, n + m)),
        (Edit::Delete(i, n), Edit::Delete(j, m)) if j + m == i => Some(del(j, n + m)),
        _ => None,
    }
}

/// Whether `op; next` cancel out: a run inserted and deleted again with
/// nothing in between ([`crate::Operation::annihilates`]).
pub(crate) fn annihilates<O: DeltaOp>(op: &O, next: &O) -> bool {
    match (op.edit(), next.edit()) {
        (Edit::Insert(i, len, _), Edit::Delete(j, m)) => len > 0 && j == i && m == len,
        _ => false,
    }
}
