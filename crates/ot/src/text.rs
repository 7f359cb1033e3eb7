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
//! This algebra is the canonical **non-scalar** one: a range delete that is
//! interleaved by a concurrent insert splits into two deletes so that the
//! concurrently inserted text survives — intention preservation. The
//! sequence control algorithm handles the split via [`Transformed::Two`].

use crate::delta::{DeltaOp, OpSpan};
use crate::state::Rope;
use crate::{ApplyError, Operation, Side, Transformed};

/// An operation on a text document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextOp {
    /// Insert the string at the character position (`0 ≤ pos ≤ chars`).
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

    /// `apply`'s whole precondition on a text of `chars` characters. A
    /// range end past `usize::MAX` is out of range, not a wrapped
    /// position.
    #[inline]
    fn check_bounds(&self, chars: usize) -> Result<(), ApplyError> {
        let refused = match self {
            TextOp::Insert { pos, .. } => *pos > chars,
            TextOp::Delete { pos, len } => {
                *len > 0 && pos.checked_add(*len).is_none_or(|end| end > chars)
            }
        };
        if refused {
            return Err(self.out_of_range(chars));
        }
        Ok(())
    }

    /// The error of an op [`TextOp::check_bounds`] refused on a text of
    /// `chars` characters.
    #[cold]
    fn out_of_range(&self, chars: usize) -> ApplyError {
        ApplyError::new(match self {
            TextOp::Insert { pos, .. } => format!("char position {pos} out of range"),
            TextOp::Delete { pos, len } => {
                format!("delete range {pos}+{len} exceeds text length {chars}")
            }
        })
    }

    /// Length of the inserted text in characters, or 0 for deletes.
    fn ins_len(&self) -> usize {
        match self {
            TextOp::Insert { text, .. } => text.chars().count(),
            TextOp::Delete { .. } => 0,
        }
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
                if *len == 0 {
                    return Ok(());
                }
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

    fn apply(&self, state: &mut Rope) -> Result<(), ApplyError> {
        self.check_bounds(state.char_len())?;
        match self {
            TextOp::Insert { pos, text } => state.insert(*pos, text),
            TextOp::Delete { len: 0, .. } => {}
            TextOp::Delete { pos, len } => state.delete(*pos, *len),
        }
        Ok(())
    }

    fn check_run(state: &Rope, run: &[Self]) -> Result<(), ApplyError> {
        let mut chars = state.char_len();
        for op in run {
            op.check_bounds(chars)?;
            match op {
                TextOp::Insert { .. } => chars += op.ins_len(),
                TextOp::Delete { len, .. } => chars -= len,
            }
        }
        Ok(())
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        use TextOp::*;
        match (self, against) {
            (Insert { pos: i, text }, Insert { pos: j, .. }) => {
                let shift = against.ins_len();
                if *j < *i || (*j == *i && side == Side::Right) {
                    Transformed::One(Insert {
                        pos: i + shift,
                        text: text.clone(),
                    })
                } else {
                    Transformed::One(self.clone())
                }
            }
            (Insert { pos: i, text }, Delete { pos: j, len: m }) => {
                if *m == 0 || *i <= *j {
                    Transformed::One(self.clone())
                } else if *i >= j + m {
                    Transformed::One(Insert {
                        pos: i - m,
                        text: text.clone(),
                    })
                } else {
                    // Insertion point fell inside the deleted range: land at
                    // the deletion point (closest surviving position).
                    Transformed::One(Insert {
                        pos: *j,
                        text: text.clone(),
                    })
                }
            }
            (Delete { pos: i, len: n }, Insert { pos: j, .. }) => {
                if *n == 0 {
                    return Transformed::None;
                }
                let t = against.ins_len();
                if *j <= *i {
                    Transformed::One(Delete {
                        pos: i + t,
                        len: *n,
                    })
                } else if *j >= i + n {
                    Transformed::One(self.clone())
                } else {
                    // Insert interleaves our range: split around it so the
                    // concurrently inserted text survives.
                    let first = Delete {
                        pos: *i,
                        len: j - i,
                    };
                    let second = Delete {
                        pos: i + t,
                        len: n - (j - i),
                    };
                    Transformed::Two(first, second)
                }
            }
            (Delete { pos: i, len: n }, Delete { pos: j, len: m }) => {
                if *n == 0 {
                    return Transformed::None;
                }
                if *m == 0 {
                    return Transformed::One(self.clone());
                }
                let (start, end) = (*i, i + n);
                let (ostart, oend) = (*j, j + m);
                let overlap = end.min(oend).saturating_sub(start.max(ostart));
                let remaining = n - overlap;
                if remaining == 0 {
                    return Transformed::None;
                }
                // Shift: characters the other delete removed before our
                // surviving range. The surviving range starts at `start` if
                // we begin before the other delete, else right after it.
                let new_pos = if start <= ostart {
                    start
                } else {
                    start.saturating_sub(*m).max(ostart)
                };
                Transformed::One(Delete {
                    pos: new_pos,
                    len: remaining,
                })
            }
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        use TextOp::*;
        // Zero-length deletes are no-ops: fuse them away.
        if matches!(next, Delete { len: 0, .. }) {
            return Some(self.clone());
        }
        if matches!(self, Delete { len: 0, .. }) {
            return Some(next.clone());
        }
        match (self, next) {
            // "ab" inserted at p, then "cd" inserted right at its end (or
            // anywhere inside it): one bigger insert.
            (Insert { pos: p1, text: t1 }, Insert { pos: p2, text: t2 }) => {
                let l1 = t1.chars().count();
                if *p2 >= *p1 && *p2 <= p1 + l1 {
                    let mut s = String::with_capacity(t1.len() + t2.len());
                    let split_at_char = p2 - p1;
                    let mut consumed = 0;
                    for (count, (byte, _)) in t1.char_indices().enumerate() {
                        if count == split_at_char {
                            consumed = byte;
                            break;
                        }
                        consumed = t1.len();
                    }
                    if split_at_char == 0 {
                        consumed = 0;
                    }
                    s.push_str(&t1[..consumed]);
                    s.push_str(t2);
                    s.push_str(&t1[consumed..]);
                    Some(Insert { pos: *p1, text: s })
                } else {
                    None
                }
            }
            // Insert then delete of part of the inserted text: shrink the
            // insert. Full cancellation is `annihilates`.
            (Insert { pos: p1, text: t1 }, Delete { pos: p2, len: l2 }) => {
                let l1 = t1.chars().count();
                if *p2 >= *p1 && p2 + l2 <= p1 + l1 && *l2 < l1 {
                    let start = p2 - p1;
                    let s: String = t1
                        .chars()
                        .enumerate()
                        .filter(|(k, _)| *k < start || *k >= start + l2)
                        .map(|(_, c)| c)
                        .collect();
                    Some(Insert { pos: *p1, text: s })
                } else {
                    None
                }
            }
            // Delete at p, then another delete starting at the same spot:
            // one bigger delete (text slid left under the cursor).
            (Delete { pos: p1, len: l1 }, Delete { pos: p2, len: l2 }) => {
                if *p2 == *p1 {
                    Some(Delete {
                        pos: *p1,
                        len: l1 + l2,
                    })
                } else if p2 + l2 == *p1 {
                    // Backwards deletion (backspace style).
                    Some(Delete {
                        pos: *p2,
                        len: l1 + l2,
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn annihilates(&self, next: &Self) -> bool {
        // Text typed and immediately deleted again, nothing in between.
        if let (TextOp::Insert { pos: p1, text }, TextOp::Delete { pos: p2, len }) = (self, next) {
            let l1 = text.chars().count();
            l1 > 0 && p2 == p1 && *len == l1
        } else {
            false
        }
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

    fn to_span(&self) -> Option<OpSpan<String>> {
        Some(match self {
            TextOp::Insert { pos, text } => OpSpan::Insert {
                pos: *pos,
                payload: text.clone(),
            },
            TextOp::Delete { pos, len } => OpSpan::Delete {
                pos: *pos,
                len: *len,
            },
        })
    }

    fn from_span(span: OpSpan<String>) -> Self {
        match span {
            OpSpan::Insert { pos, payload } => TextOp::Insert { pos, text: payload },
            OpSpan::Delete { pos, len } => TextOp::Delete { pos, len },
        }
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
