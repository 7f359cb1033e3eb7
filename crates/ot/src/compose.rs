//! Operation **composition** (log compaction).
//!
//! The paper's future-work section calls for "more efficient merge
//! functions". Because the rebase in [`crate::seq`] costs
//! O(|committed|·|incoming|) pair transforms, shrinking either log shrinks
//! the merge superlinearly. This module provides a peephole compactor: an
//! adjacent pair of operations is fused into one — or dropped entirely when
//! the pair cancels out — when that is behaviour-preserving on *every*
//! state (e.g. two counter increments, two writes to the same register, a
//! contiguous run of list appends, an element inserted and deleted again).
//!
//! The per-algebra fusion rules live with their algebras as
//! [`Operation::compose`] / [`Operation::annihilates`]; every rule is also
//! required to be **rebase-preserving**: transforming a concurrent
//! operation against the compacted log must be state-equivalent to
//! transforming it against the original log. That is what lets the merge
//! path compact *both* sides of a rebase — the child's private log and the
//! read-only view of the parent's committed slice — and lets
//! `sm_mergeable::Versioned` fuse into its log tail as operations are
//! recorded (guarded by a fork barrier so no outstanding fork point ever
//! lands *between* two fused operations). The cross-algebra property suite
//! in the workspace `tests/` directory exercises the equivalence on
//! randomized logs.

use std::borrow::Cow;

use crate::Operation;

/// Compact a log by repeatedly fusing (and cancelling) adjacent pairs.
/// O(n) amortized per pass; runs passes until a fixpoint. The result
/// applies to the same base state and produces the same final state as the
/// input.
pub fn compact<O: Operation>(ops: &[O]) -> Vec<O> {
    let mut cur: Vec<O> = ops.to_vec();
    loop {
        let mut out: Vec<O> = Vec::with_capacity(cur.len());
        let mut fused = false;
        for op in cur.drain(..) {
            if let Some(last) = out.last() {
                if last.annihilates(&op) {
                    out.pop();
                    fused = true;
                    continue;
                }
                if let Some(f) = last.compose(&op) {
                    *out.last_mut().expect("non-empty") = f;
                    fused = true;
                    continue;
                }
            }
            out.push(op);
        }
        if !fused {
            return out;
        }
        cur = out;
    }
}

/// True when [`compact`] would change `ops` — a single adjacent-pair scan,
/// allocation-free.
fn needs_compaction<O: Operation>(ops: &[O]) -> bool {
    ops.windows(2)
        .any(|w| w[0].annihilates(&w[1]) || w[0].compose(&w[1]).is_some())
}

/// Compact a log without copying when there is nothing to fuse — the common
/// case for already-compacted logs in the merge hot path.
pub fn compact_cow<O: Operation>(ops: &[O]) -> Cow<'_, [O]> {
    if needs_compaction(ops) {
        Cow::Owned(compact(ops))
    } else {
        Cow::Borrowed(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_all;
    use crate::counter::CounterOp;
    use crate::list::ListOp;
    use crate::map::MapOp;
    use crate::register::RegisterOp;
    use crate::text::TextOp;
    use crate::tree::TreeOp;

    #[test]
    fn counter_adds_fuse_to_one() {
        let ops: Vec<CounterOp> = (1..=10).map(CounterOp::add).collect();
        let c = compact(&ops);
        assert_eq!(c, vec![CounterOp::add(55)]);
    }

    #[test]
    fn counter_cancelling_adds_annihilate() {
        let ops = vec![CounterOp::add(7), CounterOp::add(-7)];
        assert!(compact(&ops).is_empty());
    }

    #[test]
    fn register_writes_fuse_to_last() {
        let ops = vec![RegisterOp::set(1), RegisterOp::set(2), RegisterOp::set(3)];
        assert_eq!(compact(&ops), vec![RegisterOp::set(3)]);
    }

    #[test]
    fn map_same_key_shadows() {
        let ops = vec![
            MapOp::Put("a", 1),
            MapOp::Put("a", 2),
            MapOp::Put("b", 9),
            MapOp::Remove("b"),
        ];
        let c = compact(&ops);
        assert_eq!(c, vec![MapOp::Put("a", 2), MapOp::Remove("b")]);
    }

    #[test]
    fn compaction_preserves_semantics_map() {
        let ops = vec![
            MapOp::Put("x", 1),
            MapOp::Put("x", 2),
            MapOp::Remove("y"),
            MapOp::Put("y", 3),
            MapOp::Put("z", 4),
        ];
        let c = compact(&ops);
        let mut a = std::collections::BTreeMap::from([("y", 0)]);
        let mut b = a.clone();
        apply_all(&mut a, &ops).unwrap();
        apply_all(&mut b, &c).unwrap();
        assert_eq!(a, b);
        assert!(c.len() < ops.len());
    }

    #[test]
    fn text_adjacent_inserts_fuse() {
        let ops = vec![TextOp::insert(0, "he"), TextOp::insert(2, "llo")];
        assert_eq!(compact(&ops), vec![TextOp::insert(0, "hello")]);
    }

    #[test]
    fn text_insert_inside_previous_insert_fuses() {
        let ops = vec![TextOp::insert(3, "ac"), TextOp::insert(4, "b")];
        assert_eq!(compact(&ops), vec![TextOp::insert(3, "abc")]);
    }

    #[test]
    fn text_forward_deletes_fuse() {
        let ops = vec![TextOp::delete(2, 1), TextOp::delete(2, 3)];
        assert_eq!(compact(&ops), vec![TextOp::delete(2, 4)]);
    }

    #[test]
    fn text_backspace_deletes_fuse() {
        let ops = vec![
            TextOp::delete(5, 1),
            TextOp::delete(4, 1),
            TextOp::delete(3, 1),
        ];
        assert_eq!(compact(&ops), vec![TextOp::delete(3, 3)]);
    }

    #[test]
    fn text_typed_then_deleted_cancels() {
        let ops = vec![TextOp::insert(4, "oops"), TextOp::delete(4, 4)];
        assert!(compact(&ops).is_empty());
        // Partial deletion inside the insert shrinks it instead.
        let ops = vec![TextOp::insert(4, "oops"), TextOp::delete(5, 2)];
        assert_eq!(compact(&ops), vec![TextOp::insert(4, "os")]);
    }

    #[test]
    fn text_compaction_preserves_semantics() {
        let base = crate::state::Rope::from("abcdefgh");
        let ops = vec![
            TextOp::insert(2, "XY"),
            TextOp::insert(4, "Z"),
            TextOp::delete(0, 1),
            TextOp::delete(0, 2),
        ];
        let c = compact(&ops);
        let mut a = base.clone();
        let mut b = base;
        apply_all(&mut a, &ops).unwrap();
        apply_all(&mut b, &c).unwrap();
        assert_eq!(a, b);
        assert!(c.len() <= ops.len());
    }

    #[test]
    fn list_set_set_fuses() {
        let ops = vec![ListOp::Set(1, 'a'), ListOp::Set(1, 'b')];
        assert_eq!(compact(&ops), vec![ListOp::Set(1, 'b')]);
    }

    #[test]
    fn list_insert_then_set_fuses() {
        let ops = vec![ListOp::Insert(1, 'a'), ListOp::Set(1, 'b')];
        assert_eq!(compact(&ops), vec![ListOp::Insert(1, 'b')]);
    }

    #[test]
    fn list_contiguous_appends_fuse_to_run() {
        let ops: Vec<ListOp<u32>> = (0..5).map(|i| ListOp::Insert(i, i as u32)).collect();
        assert_eq!(
            compact(&ops),
            vec![ListOp::InsertRun(0, vec![0, 1, 2, 3, 4])]
        );
    }

    #[test]
    fn list_insert_then_delete_cancels() {
        let ops = vec![
            ListOp::Insert(1, 'a'),
            ListOp::Delete(1),
            ListOp::Set(0, 'z'),
        ];
        let c = compact(&ops);
        assert_eq!(c, vec![ListOp::Set(0, 'z')]);

        let mut a = crate::state::ChunkTree::from_vec(vec!['p', 'q']);
        let mut b = a.clone();
        apply_all(&mut a, &ops).unwrap();
        apply_all(&mut b, &c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tree_setvalue_fuses() {
        let ops = vec![
            TreeOp::SetValue {
                path: vec![0],
                value: "a",
            },
            TreeOp::SetValue {
                path: vec![0],
                value: "b",
            },
        ];
        assert_eq!(
            compact(&ops),
            vec![TreeOp::SetValue {
                path: vec![0],
                value: "b"
            }]
        );
    }

    #[test]
    fn unfusable_pairs_are_kept() {
        let ops = vec![TextOp::insert(0, "a"), TextOp::delete(5, 1)];
        assert_eq!(compact(&ops), ops);
    }

    #[test]
    fn empty_log_compacts_to_empty() {
        let c: Vec<CounterOp> = compact(&[]);
        assert!(c.is_empty());
    }

    #[test]
    fn cow_borrows_when_nothing_fuses() {
        let ops = vec![TextOp::insert(0, "a"), TextOp::delete(5, 1)];
        assert!(matches!(compact_cow(&ops), Cow::Borrowed(_)));
        let ops = vec![TextOp::insert(0, "a"), TextOp::insert(1, "b")];
        match compact_cow(&ops) {
            Cow::Owned(v) => assert_eq!(v, vec![TextOp::insert(0, "ab")]),
            Cow::Borrowed(_) => panic!("adjacent inserts must compact"),
        }
    }
}
