//! OT algebra for **text** (mergeable strings, §II-C of the paper).
//!
//! State is a [`Rope`] — a balanced chunked text with cached char counts,
//! so applies cost O(log n) seek + O(chunk) splice instead of rescanning
//! the whole document (see [`crate::state`]). Operations are
//! position-addressed string inserts and range deletes over *character*
//! positions (not bytes), mirroring the collaborative-editing heritage of
//! OT (Ellis & Gibbs; Sun et al.'s convergence/intention-preservation
//! framework). [`TextOp::apply_str`] keeps the plain-`String` semantics as
//! the single-pass reference implementation for differential tests.
//!
//! Text is the list algebra over a `String` payload: its transform,
//! compose and bounds rules are [`crate::edit`]'s, which [`TextOp`]
//! reaches through its [`DeltaOp`] view. A range delete interleaved by a
//! concurrent insert splits into two deletes so that the concurrently
//! inserted text survives — intention preservation.

use crate::delta::{DeltaOp, OpSpan};
use crate::edit::{self, Edit};
use crate::state::Rope;
use crate::{ApplyError, Operation, Side, Transformed};

/// An operation on a text document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextOp {
    /// Insert the string at the character position (`0 ≤ pos ≤ chars`).
    /// An empty string touches nothing: it transforms to nothing and
    /// composes away.
    Insert {
        /// Character position of the insertion point.
        pos: usize,
        /// Text to insert.
        text: String,
    },
    /// Delete `len` characters starting at character position `pos`.
    Delete {
        /// First character position to delete.
        pos: usize,
        /// Number of characters to delete (must be ≥ 1 to have effect).
        len: usize,
    },
}

impl TextOp {
    /// Convenience constructor for an insert.
    pub fn insert(pos: usize, text: impl Into<String>) -> Self {
        TextOp::Insert {
            pos,
            text: text.into(),
        }
    }

    /// Convenience constructor for a delete.
    pub fn delete(pos: usize, len: usize) -> Self {
        TextOp::Delete { pos, len }
    }

    /// Apply against a plain `String`: the scalar reference
    /// implementation the property suites diff the [`Rope`] backend
    /// against. Resolves both range endpoints in a **single**
    /// `char_indices` walk, so even the reference path is O(n), not
    /// O(n) per endpoint.
    ///
    /// # Errors
    /// Fails when the position or range falls outside the text.
    pub fn apply_str(&self, state: &mut String) -> Result<(), ApplyError> {
        match self {
            TextOp::Insert { pos, text } => {
                let (at, _) = char_range_to_bytes(state, *pos, 0)?;
                state.insert_str(at, text);
            }
            TextOp::Delete { pos, len } => {
                let (start, end) = char_range_to_bytes(state, *pos, *len)?;
                state.replace_range(start..end, "");
            }
        }
        Ok(())
    }
}

/// Resolve char-range `[pos, pos + len)` to byte offsets in one
/// `char_indices` pass, validating both endpoints.
fn char_range_to_bytes(s: &str, pos: usize, len: usize) -> Result<(usize, usize), ApplyError> {
    // An end past `usize::MAX` matches no position: out of range.
    let end_pos = pos.checked_add(len);
    let mut start = None;
    let mut end = None;
    let mut count = 0;
    for (byte, _) in s.char_indices() {
        if count == pos {
            start = Some(byte);
        }
        if Some(count) == end_pos {
            end = Some(byte);
            break;
        }
        count += 1;
    }
    // Fell off the end: `count` is now the total char count, which is a
    // valid (exclusive) position for both endpoints.
    if start.is_none() && pos == count {
        start = Some(s.len());
    }
    if end.is_none() && end_pos == Some(count) {
        end = Some(s.len());
    }
    match (start, end) {
        (Some(b0), Some(b1)) => Ok((b0, b1)),
        (None, _) => Err(ApplyError::new(format!("char position {pos} out of range"))),
        _ => Err(ApplyError::new(format!(
            "delete range {pos}+{len} exceeds text length"
        ))),
    }
}

impl Operation for TextOp {
    type State = Rope;

    type Memo = crate::delta::Memo<String>;

    const STATE_BY_VALUE: bool = true;

    fn shares_state(a: &Rope, b: &Rope) -> bool {
        a.ptr_eq(b)
    }

    fn apply(&self, state: &mut Rope) -> Result<(), ApplyError> {
        edit::check_bounds(self, state.char_len())?;
        match self {
            TextOp::Insert { pos, text } => state.insert(*pos, text),
            TextOp::Delete { pos, len } => state.delete(*pos, *len),
        }
        Ok(())
    }

    fn check_run(state: &Rope, run: &[Self]) -> Result<(), ApplyError> {
        edit::check_run(state.char_len(), run)
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        edit::transform(self, against, side)
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        edit::compose(self, next)
    }

    fn annihilates(&self, next: &Self) -> bool {
        edit::annihilates(self, next)
    }

    fn delta_rebase(
        incoming: &[Self],
        committed: &[Self],
        memo: &mut Self::Memo,
        reuse: bool,
    ) -> Option<(Vec<Self>, crate::delta::DeltaStats)> {
        memo.rebase(incoming, committed, reuse)
    }
}

impl DeltaOp for TextOp {
    type Payload = String;

    fn edit(&self) -> Edit<'_, str> {
        match self {
            TextOp::Insert { pos, text } => Edit::Insert(*pos, text.chars().count(), text),
            TextOp::Delete { pos, len } => Edit::Delete(*pos, *len),
        }
    }

    fn with_pos(&self, pos: usize) -> Self {
        match self {
            TextOp::Insert { text, .. } => TextOp::insert(pos, text.clone()),
            TextOp::Delete { len, .. } => TextOp::delete(pos, *len),
        }
    }

    fn from_span(span: OpSpan<String>) -> Self {
        match span {
            OpSpan::Insert { pos, payload } => TextOp::Insert { pos, text: payload },
            OpSpan::Delete { pos, len } => TextOp::Delete { pos, len },
        }
    }

    #[cold]
    fn out_of_range(&self, chars: usize) -> ApplyError {
        ApplyError::new(match self {
            TextOp::Insert { pos, .. } => format!("char position {pos} out of range"),
            TextOp::Delete { pos, len } => {
                format!("delete range {pos}+{len} exceeds text length {chars}")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    fn base() -> Rope {
        Rope::from("hello world")
    }

    #[test]
    fn apply_insert() {
        let mut s = base();
        TextOp::insert(5, ",").apply(&mut s).unwrap();
        assert_eq!(s, "hello, world");
    }

    #[test]
    fn apply_delete() {
        let mut s = base();
        TextOp::delete(5, 6).apply(&mut s).unwrap();
        assert_eq!(s, "hello");
    }

    #[test]
    fn a_delete_range_ending_past_usize_max_is_refused_not_wrapped() {
        let hostile = TextOp::delete(usize::MAX, 2);
        let mut s = Rope::from("abc");
        let err = hostile.apply(&mut s).unwrap_err();
        assert!(err.reason.contains("exceeds text length 3"), "{err}");
        assert_eq!(s, "abc");
        let mut plain = String::from("abc");
        assert!(hostile.apply_str(&mut plain).is_err());
        assert!(TextOp::delete(1, usize::MAX).apply_str(&mut plain).is_err());
        assert_eq!(plain, "abc");
        assert_eq!(TextOp::check_run(&s, &[hostile]), Err(err));
    }

    #[test]
    fn check_run_walks_the_length_op_by_op() {
        let s = Rope::from("ab");
        let grows = [TextOp::insert(2, "é✨"), TextOp::delete(3, 1)];
        assert_eq!(TextOp::check_run(&s, &grows), Ok(()));
        // In range against the grown text, out of range against the base.
        let err = TextOp::check_run(&s, &[TextOp::delete(3, 1)]).unwrap_err();
        assert_eq!(Err(err), TextOp::delete(3, 1).apply(&mut s.clone()));
        let shrinks = [TextOp::delete(0, 1), TextOp::insert(2, "x")];
        assert_eq!(
            TextOp::check_run(&s, &shrinks),
            crate::apply_all(&mut s.clone(), &shrinks)
        );
        assert!(TextOp::check_run(&s, &shrinks).is_err());
    }

    #[test]
    fn apply_unicode_positions_are_chars_not_bytes() {
        let mut s = Rope::from("héllo");
        TextOp::insert(2, "X").apply(&mut s).unwrap();
        assert_eq!(s, "héXllo");
        TextOp::delete(1, 2).apply(&mut s).unwrap();
        assert_eq!(s, "hllo");
    }

    #[test]
    fn apply_out_of_range() {
        let mut s = base();
        assert!(TextOp::insert(12, "x").apply(&mut s).is_err());
        assert!(TextOp::delete(8, 10).apply(&mut s).is_err());
    }

    #[test]
    fn zero_len_delete_is_noop() {
        let mut s = base();
        TextOp::delete(3, 0).apply(&mut s).unwrap();
        assert_eq!(s, base());
    }

    /// Text and list share one rule for ops that touch no unit.
    #[test]
    fn an_empty_insert_is_nothing_as_an_empty_list_run_is() {
        use crate::list::ListOp;
        let (empty, del) = (TextOp::insert(2, ""), TextOp::delete(1, 3));
        let (run, range) = (
            ListOp::<char>::InsertRun(2, vec![]),
            ListOp::DeleteRange(1, 3),
        );
        for side in [Side::Left, Side::Right] {
            // It transforms to nothing, and a delete around it does not
            // split.
            assert_eq!(empty.transform(&del, side), Transformed::None);
            assert_eq!(run.transform(&range, side), Transformed::None);
            assert_eq!(del.transform(&empty, side), Transformed::One(del.clone()));
            assert_eq!(range.transform(&run, side), Transformed::One(range.clone()));
        }
        // It fuses away in front of a delete.
        assert_eq!(empty.compose(&del), Some(del.clone()));
        assert_eq!(run.compose(&range), Some(range.clone()));
        // Past the end, a zero-length op is refused like any other.
        let err = TextOp::delete(12, 0).apply(&mut base()).unwrap_err();
        assert_eq!(err.reason, "delete range 12+0 exceeds text length 11");
        let mut list: crate::state::ChunkTree<u8> = (0..3).collect();
        assert!(ListOp::DeleteRange(4, 0).apply(&mut list).is_err());
        assert!(ListOp::InsertRun(4, vec![]).apply(&mut list).is_err());
        assert!(TextOp::insert(12, "").apply(&mut base()).is_err());
    }

    #[test]
    fn delete_splits_around_concurrent_insert() {
        // Delete "lo wo" (pos 3 len 5); concurrent insert "XY" at 5.
        let del = TextOp::delete(3, 5);
        let ins = TextOp::insert(5, "XY");
        let t = del.transform(&ins, Side::Right);
        assert_eq!(
            t,
            Transformed::Two(TextOp::delete(3, 2), TextOp::delete(5, 3))
        );
        // End state must keep "XY".
        let mut s = base();
        ins.apply(&mut s).unwrap();
        for piece in t.into_vec() {
            piece.apply(&mut s).unwrap();
        }
        assert_eq!(s, "helXYrld");
    }

    #[test]
    fn overlapping_deletes_collapse() {
        // Both delete overlapping ranges; overlap must only vanish once.
        let a = TextOp::delete(2, 4); // "llo "
        let b = TextOp::delete(4, 4); // "o wo"
        assert_tp1(&base(), &a, &b);
    }

    #[test]
    fn identical_deletes_vanish() {
        let a = TextOp::delete(2, 3);
        assert_eq!(a.transform(&a, Side::Right), Transformed::None);
    }

    #[test]
    fn contained_delete_vanishes() {
        let inner = TextOp::delete(3, 2);
        let outer = TextOp::delete(2, 5);
        assert_eq!(inner.transform(&outer, Side::Right), Transformed::None);
        assert_tp1(&base(), &outer, &inner);
    }

    #[test]
    fn insert_insert_tie_break() {
        let a = TextOp::insert(3, "AA");
        let b = TextOp::insert(3, "BB");
        assert_tp1(&base(), &a, &b);
        // Left keeps its place.
        assert_eq!(
            a.transform(&b, Side::Left),
            Transformed::One(TextOp::insert(3, "AA"))
        );
        assert_eq!(
            b.transform(&a, Side::Right),
            Transformed::One(TextOp::insert(5, "BB"))
        );
    }

    #[test]
    fn tp1_exhaustive_small_ranges() {
        let base = Rope::from("abcdef");
        let mut ops: Vec<TextOp> = Vec::new();
        for p in 0..=6 {
            ops.push(TextOp::insert(p, "xy"));
        }
        for p in 0..6 {
            for l in 1..=(6 - p) {
                ops.push(TextOp::delete(p, l));
            }
        }
        for a in &ops {
            for b in &ops {
                assert_tp1(&base, a, b);
            }
        }
    }

    #[test]
    fn sequence_convergence_with_splits() {
        let base = Rope::from("The quick brown fox");
        let left = vec![TextOp::insert(4, "very "), TextOp::delete(0, 4)];
        let right = vec![TextOp::delete(4, 6), TextOp::insert(0, ">> ")];
        seq::tests::assert_converges(&base, &left, &right);
    }

    #[test]
    fn random_sequences_converge() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..200 {
            let base = Rope::from("abcdefghij");
            let gen = |rng: &mut StdRng| {
                let mut len = 10usize;
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(0..5) {
                    if rng.gen_bool(0.5) {
                        let pos = rng.gen_range(0..=len);
                        let t: String = (0..rng.gen_range(1..4))
                            .map(|_| rng.gen_range('A'..='Z'))
                            .collect();
                        len += t.chars().count();
                        ops.push(TextOp::insert(pos, t));
                    } else if len > 0 {
                        let pos = rng.gen_range(0..len);
                        let l = rng.gen_range(1..=(len - pos).min(4));
                        len -= l;
                        ops.push(TextOp::delete(pos, l));
                    }
                }
                ops
            };
            let left = gen(&mut rng);
            let right = gen(&mut rng);
            seq::tests::assert_converges(&base, &left, &right);
        }
    }
}
