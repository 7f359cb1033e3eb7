//! The transformation **control algorithm**: sequence-versus-sequence
//! inclusion transformation.
//!
//! Spawn & Merge merges are centralized: when a parent merges a child, the
//! child's recorded operations (`incoming`) must be rewritten to apply after
//! everything the parent committed since the fork (`committed`). Both
//! sequences descend from the same fork state, so this is a *rebase*: no
//! state vectors, no undo/redo, and — in contrast to transactional
//! serialization — **no aborts**: [`rebase`] always succeeds.
//!
//! The core primitive is [`transform_seqs`]`(left, right)` for two
//! operation sequences diverging from a common base state `S`. It returns
//! `(left', right')` such that
//!
//! ```text
//! S ∘ right ∘ left'  ==  S ∘ left ∘ right'
//! ```
//!
//! with ties broken in favour of `left` (the committed side). The algorithm
//! is the classic O(|left|·|right|) transformation grid, one grid for
//! every algebra: operations that split (range deletes around a
//! concurrent insert) are handled by a recursive piece expansion, and an
//! operation that never splits is the expansion's one-piece case.

use crate::{Operation, Side};

/// Transform a single pair of concurrent operations.
///
/// Returns `(x', y')` where `x'` are the pieces of `x` rewritten to apply
/// after `y`, and `y'` the pieces of `y` rewritten to apply after `x`.
/// `x_side` is the side `x` is on; `y` is on the opposite side.
fn transform_pair<O: Operation>(x: &O, y: &O, x_side: Side) -> (Vec<O>, Vec<O>) {
    let xt = x.transform(y, x_side).into_vec();
    let yt = y.transform(x, x_side.flip()).into_vec();
    (xt, yt)
}

/// Transform sequence `left` against sequence `right`, both based at the
/// same state. Returns `(left', right')`; see the module docs for the
/// convergence equation. `left` has [`Side::Left`] (committed) priority.
pub fn transform_seqs<O: Operation>(left: &[O], right: &[O]) -> (Vec<O>, Vec<O>) {
    if left.is_empty() {
        return (Vec::new(), right.to_vec());
    }
    if right.is_empty() {
        return (left.to_vec(), Vec::new());
    }
    let mut right_cur: Vec<O> = right.to_vec();
    let mut left_out: Vec<O> = Vec::with_capacity(left.len());

    for l in left {
        // `l` and `right_cur` share a base; transform `l` (possibly
        // splitting) against the whole of `right_cur`, rewriting
        // `right_cur` to include `l`'s effect as we go.
        let (l_pieces, right_next) =
            transform_pieces_single_seq(std::slice::from_ref(l), &right_cur);
        left_out.extend(l_pieces);
        right_cur = right_next;
    }
    (left_out, right_cur)
}

/// Rebase a child's `incoming` operations over the parent's `committed`
/// operations (both recorded since the fork). The result applies cleanly
/// after `committed` on the parent's state and preserves the child's
/// intentions. This is the heart of `Merge` (§II-D of the paper).
pub fn rebase<O: Operation>(incoming: &[O], committed: &[O]) -> Vec<O> {
    // Fast paths: unmodified children and quiescent parents are the common
    // case in round-based programs; skip the grid (and its clones) then.
    if incoming.is_empty() {
        return Vec::new();
    }
    if committed.is_empty() {
        return incoming.to_vec();
    }
    transform_seqs(committed, incoming).1
}

/// Transform a sequential run of left-side `pieces` against the right-side
/// sequence `seq`; all based consistently (`pieces[0]` and `seq[0]` share a
/// base). Returns `(pieces', seq')`.
fn transform_pieces_single_seq<O: Operation>(pieces: &[O], seq: &[O]) -> (Vec<O>, Vec<O>) {
    let mut pieces_cur: Vec<O> = pieces.to_vec();
    let mut seq_out: Vec<O> = Vec::with_capacity(seq.len());
    for s in seq {
        let (p2, s_pieces) = transform_pieces_single(&pieces_cur, s);
        pieces_cur = p2;
        seq_out.extend(s_pieces);
    }
    (pieces_cur, seq_out)
}

/// Transform a sequential run of left-side `pieces` against a single
/// right-side operation `s`; `pieces[0]` and `s` share a base.
/// Returns `(pieces', s_pieces')` where `s_pieces'` is `s` rewritten (and
/// possibly split) to apply after all of `pieces`.
fn transform_pieces_single<O: Operation>(pieces: &[O], s: &O) -> (Vec<O>, Vec<O>) {
    let mut s_pieces: Vec<O> = vec![s.clone()];
    let mut pieces_out: Vec<O> = Vec::with_capacity(pieces.len());
    for p in pieces {
        // Single `p` against the sequential run `s_pieces` (shared base).
        let mut p_cur: Vec<O> = vec![p.clone()];
        let mut s_next: Vec<O> = Vec::with_capacity(s_pieces.len());
        for sp in &s_pieces {
            if p_cur.len() == 1 {
                let (pt, st) = transform_pair(&p_cur[0], sp, Side::Left);
                p_cur = pt;
                s_next.extend(st);
            } else if p_cur.is_empty() {
                s_next.push(sp.clone());
            } else {
                // `p` split earlier in this run: recurse on the pieces.
                let (pt, st) = transform_pieces_single(&p_cur, sp);
                p_cur = pt;
                s_next.extend(st);
            }
        }
        pieces_out.extend(p_cur);
        s_pieces = s_next;
    }
    (pieces_out, s_pieces)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::list::ListOp;
    use crate::state::ChunkTree;

    /// The convergence oracle: apply both serializations and return the
    /// resulting states. They must be equal for convergent transformation
    /// functions: `base ∘ left ∘ right'` vs `base ∘ right ∘ left'`.
    fn convergence_outcome<O>(
        base: &O::State,
        left: &[O],
        right: &[O],
    ) -> Result<(O::State, O::State), crate::ApplyError>
    where
        O: Operation,
    {
        let (left_t, right_t) = transform_seqs(left, right);

        let mut via_left = base.clone();
        crate::apply_all(&mut via_left, left)?;
        crate::apply_all(&mut via_left, &right_t)?;

        let mut via_right = base.clone();
        crate::apply_all(&mut via_right, right)?;
        crate::apply_all(&mut via_right, &left_t)?;

        Ok((via_left, via_right))
    }

    /// Assert that two concurrent sequences converge under [`transform_seqs`].
    pub(crate) fn assert_converges<O>(base: &O::State, left: &[O], right: &[O])
    where
        O: Operation,
        O::State: PartialEq,
    {
        let (a, b) = convergence_outcome(base, left, right)
            .unwrap_or_else(|e| panic!("apply failure during convergence check: {e}"));
        assert!(
            a == b,
            "sequences diverged:\n  left  = {left:?}\n  right = {right:?}\n  via-left  = {a:?}\n  via-right = {b:?}"
        );
    }

    type Op = ListOp<char>;

    fn base() -> ChunkTree<char> {
        ChunkTree::from_vec(vec!['a', 'b', 'c'])
    }

    #[test]
    fn empty_sequences_are_identity() {
        let (l, r) = transform_seqs::<Op>(&[], &[]);
        assert!(l.is_empty() && r.is_empty());

        let ops = vec![Op::Insert(0, 'x')];
        let (l, r) = transform_seqs(&ops, &[]);
        assert_eq!(l, ops);
        assert!(r.is_empty());

        let (l, r) = transform_seqs(&[], &ops);
        assert!(l.is_empty());
        assert_eq!(r, ops);
    }

    #[test]
    fn paper_figure_example_converges() {
        // Figure 1/2: A = del(2), B = ins(0, 'd') over [a,b,c] → [d,a,b].
        let a = vec![Op::Delete(2)];
        let b = vec![Op::Insert(0, 'd')];
        assert_converges(&base(), &a, &b);

        let (_, a_rebased) = transform_seqs(&b, &a);
        // The delete index must shift from 2 to 3 (paper Figure 2).
        assert_eq!(a_rebased, vec![Op::Delete(3)]);
    }

    #[test]
    fn rebase_is_right_output_of_transform_seqs() {
        let committed = vec![Op::Insert(0, 'd')];
        let incoming = vec![Op::Delete(2)];
        assert_eq!(rebase(&incoming, &committed), vec![Op::Delete(3)]);
    }

    #[test]
    fn duplicate_deletes_collapse() {
        // Both sides delete index 1; only one deletion must survive.
        let a = vec![Op::Delete(1)];
        let b = vec![Op::Delete(1)];
        assert_converges(&base(), &a, &b);
        let (_, b_t) = transform_seqs(&a, &b);
        assert!(b_t.is_empty(), "duplicate delete must vanish, got {b_t:?}");
    }

    #[test]
    fn longer_sequences_converge() {
        let a = vec![Op::Insert(1, 'x'), Op::Delete(0), Op::Insert(2, 'y')];
        let b = vec![Op::Delete(2), Op::Insert(0, 'z'), Op::Set(1, 'w')];
        assert_converges(&base(), &a, &b);
    }

    #[test]
    fn tie_break_prefers_left() {
        // Both insert at index 0: left's element must end up first.
        let a = vec![Op::Insert(0, 'L')];
        let b = vec![Op::Insert(0, 'R')];
        let (a_t, b_t) = transform_seqs(&a, &b);
        let mut s = base();
        crate::apply_all(&mut s, &a).unwrap();
        crate::apply_all(&mut s, &b_t).unwrap();
        assert_eq!(s, vec!['L', 'R', 'a', 'b', 'c']);

        let mut s2 = base();
        crate::apply_all(&mut s2, &b).unwrap();
        crate::apply_all(&mut s2, &a_t).unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn rebase_never_aborts_on_heavy_conflict() {
        // Every op targets the same index; rebase must still produce an
        // applicable sequence (the "no aborts" property of OT, §II-B).
        let committed: Vec<Op> = (0..50)
            .map(|i| Op::Insert(0, char::from(b'a' + (i % 26))))
            .collect();
        // The child may only delete what exists in its fork (3 elements).
        let incoming: Vec<Op> = (0..3).map(|_| Op::Delete(0)).collect();
        let rebased = rebase(&incoming, &committed);
        let mut s = base();
        crate::apply_all(&mut s, &committed).unwrap();
        crate::apply_all(&mut s, &rebased).unwrap();
        // 53 elements after the committed inserts, minus the 3 rebased deletes.
        assert_eq!(s.len(), 50);
    }
}
