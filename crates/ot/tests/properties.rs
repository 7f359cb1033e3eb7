//! Property-based verification of the OT engine across every algebra:
//! TP1 for arbitrary operation pairs, convergence of the sequence control
//! algorithm for arbitrary concurrent histories, and compaction soundness.
//!
//! These are the correctness pillars the whole framework rests on — if a
//! transformation function violates TP1, merges diverge and determinism is
//! lost silently. Each strategy generates operations that are *valid for
//! the base state*, mirroring how real tasks generate them.

use proptest::prelude::*;
use sm_ot::cmap::CounterMapOp;
use sm_ot::compose::compact;
use sm_ot::counter::CounterOp;
use sm_ot::list::ListOp;
use sm_ot::map::MapOp;
use sm_ot::register::RegisterOp;
use sm_ot::seq::{rebase, transform_seqs};
use sm_ot::set::SetOp;
use sm_ot::state::{ChunkTree, Rope};
use sm_ot::text::TextOp;
use sm_ot::tree::{Node, TreeOp};
use sm_ot::{apply_all, assert_tp1, Operation};

/// The convergence oracle: `base ∘ left ∘ right'` and `base ∘ right ∘
/// left'` under [`transform_seqs`] are one state.
fn assert_converges<O>(base: &O::State, left: &[O], right: &[O])
where
    O: Operation,
    O::State: PartialEq,
{
    let (left_t, right_t) = transform_seqs(left, right);
    let serialized = |first: &[O], then: &[O]| {
        let mut state = base.clone();
        apply_all(&mut state, first).expect("a side applies to the base");
        apply_all(&mut state, then).expect("a transformed side applies after the other");
        state
    };
    let (a, b) = (serialized(left, &right_t), serialized(right, &left_t));
    assert!(
        a == b,
        "sequences diverged:\n  left  = {left:?}\n  right = {right:?}\n  via-left  = {a:?}\n  via-right = {b:?}"
    );
}

// ---------------------------------------------------------------------
// strategies: ops valid against a known base state
// ---------------------------------------------------------------------

/// A sequence of list ops valid against a list of length `len0`.
fn list_ops(len0: usize, max: usize) -> impl Strategy<Value = Vec<ListOp<u8>>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..max).prop_map(move |raw| {
        let mut len = len0;
        let mut ops = Vec::new();
        for (kind, pos, val) in raw {
            match kind % 3 {
                0 => {
                    let i = (pos as usize) % (len + 1);
                    ops.push(ListOp::Insert(i, val));
                    len += 1;
                }
                1 if len > 0 => {
                    let i = (pos as usize) % len;
                    ops.push(ListOp::Delete(i));
                    len -= 1;
                }
                _ if len > 0 => {
                    ops.push(ListOp::Set((pos as usize) % len, val));
                }
                _ => {}
            }
        }
        ops
    })
}

/// A sequence of text ops valid against a text of `len0` characters.
fn text_ops(len0: usize, max: usize) -> impl Strategy<Value = Vec<TextOp>> {
    prop::collection::vec(
        (any::<bool>(), any::<u8>(), any::<u8>(), "[a-c]{1,3}"),
        0..max,
    )
    .prop_map(move |raw| {
        let mut len = len0;
        let mut ops = Vec::new();
        for (is_ins, pos, dlen, text) in raw {
            if is_ins {
                let p = (pos as usize) % (len + 1);
                len += text.chars().count();
                ops.push(TextOp::insert(p, text));
            } else if len > 0 {
                let p = (pos as usize) % len;
                let l = 1 + (dlen as usize) % (len - p).min(3);
                len -= l;
                ops.push(TextOp::delete(p, l));
            }
        }
        ops
    })
}

fn tree_single_ops() -> impl Strategy<Value = TreeOp<u8>> {
    // Against the fixed 3-children base tree below, depth ≤ 2.
    prop_oneof![
        (0usize..=3, any::<u8>()).prop_map(|(i, v)| TreeOp::Insert {
            path: vec![i],
            node: Node::leaf(v)
        }),
        (0usize..3).prop_map(|i| TreeOp::Delete { path: vec![i] }),
        (0usize..3, any::<u8>()).prop_map(|(i, v)| TreeOp::SetValue {
            path: vec![i],
            value: v
        }),
        (0usize..=1, any::<u8>()).prop_map(|(i, v)| TreeOp::Insert {
            path: vec![0, i],
            node: Node::leaf(v)
        }),
        (0usize..1, any::<u8>()).prop_map(|(i, v)| TreeOp::SetValue {
            path: vec![0, i],
            value: v
        }),
        Just(TreeOp::Delete { path: vec![0, 0] }),
    ]
}

fn tree_base() -> Node<u8> {
    Node::branch(
        0,
        vec![
            Node::branch(1, vec![Node::leaf(10)]),
            Node::leaf(2),
            Node::leaf(3),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ----- TP1 per algebra --------------------------------------------

    #[test]
    fn tp1_list(a in list_ops(5, 2), b in list_ops(5, 2)) {
        let base: ChunkTree<u8> = (0..5).collect();
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            assert_tp1(&base, x, y);
        }
    }

    #[test]
    fn tp1_text(a in text_ops(8, 2), b in text_ops(8, 2)) {
        let base = Rope::from("abcdefgh");
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            assert_tp1(&base, x, y);
        }
    }

    #[test]
    fn tp1_tree(a in tree_single_ops(), b in tree_single_ops()) {
        assert_tp1(&tree_base(), &a, &b);
    }

    #[test]
    fn tp1_map(ka in 0u8..4, kb in 0u8..4, va in any::<i32>(), vb in any::<i32>(),
               ra in any::<bool>(), rb in any::<bool>()) {
        let base: std::collections::BTreeMap<u8, i32> = [(0u8, 0i32), (1, 1)].into();
        let a = if ra { MapOp::Remove(ka) } else { MapOp::Put(ka, va) };
        let b = if rb { MapOp::Remove(kb) } else { MapOp::Put(kb, vb) };
        assert_tp1(&base, &a, &b);
    }

    #[test]
    fn tp1_set(ea in 0u8..4, eb in 0u8..4, aa in any::<bool>(), ab in any::<bool>()) {
        let base: std::collections::BTreeSet<u8> = [0u8, 1].into();
        let a = if aa { SetOp::Add(ea) } else { SetOp::Remove(ea) };
        let b = if ab { SetOp::Add(eb) } else { SetOp::Remove(eb) };
        assert_tp1(&base, &a, &b);
    }

    #[test]
    fn tp1_counter_cmap_register(da in any::<i32>(), db in any::<i32>(), k in 0u8..3) {
        assert_tp1(&7i64, &CounterOp::add(da.into()), &CounterOp::add(db.into()));
        let base: std::collections::BTreeMap<u8, i64> = [(0u8, 5i64)].into();
        assert_tp1(&base, &CounterMapOp::add(k, da.into()), &CounterMapOp::add(0, db.into()));
        assert_tp1(&0i32, &RegisterOp::set(da), &RegisterOp::set(db));
    }

    // ----- sequence convergence ---------------------------------------

    #[test]
    fn sequences_converge_list(a in list_ops(6, 8), b in list_ops(6, 8)) {
        let base: ChunkTree<u8> = (0..6).collect();
        assert_converges(&base, &a, &b);
    }

    #[test]
    fn sequences_converge_text(a in text_ops(10, 6), b in text_ops(10, 6)) {
        let base = Rope::from("abcdefghij");
        assert_converges(&base, &a, &b);
    }

    #[test]
    fn sequences_converge_tree(
        a in prop::collection::vec(tree_single_ops(), 0..3),
        b in prop::collection::vec(tree_single_ops(), 0..3),
    ) {
        // Filter to sequences that apply cleanly to the base (ops are
        // generated against the base, so later ops may be invalidated by
        // earlier ones in the same sequence — skip those cases).
        let applies = |ops: &[TreeOp<u8>]| {
            let mut s = tree_base();
            apply_all(&mut s, ops).is_ok()
        };
        prop_assume!(applies(&a) && applies(&b));
        assert_converges(&tree_base(), &a, &b);
    }

    #[test]
    fn rebase_applies_cleanly_and_matches_transform(a in list_ops(6, 6), b in list_ops(6, 6)) {
        let base: ChunkTree<u8> = (0..6).collect();
        // rebase(b over a) must equal the right output of transform_seqs.
        let rebased = rebase(&b, &a);
        let (_, rhs) = transform_seqs(&a, &b);
        prop_assert_eq!(&rebased, &rhs);
        let mut s = base.clone();
        apply_all(&mut s, &a).unwrap();
        apply_all(&mut s, &rebased).unwrap();
    }

    // ----- three-way convergence (sibling merges) ---------------------

    #[test]
    fn three_sibling_serializations_agree(
        a in list_ops(4, 4),
        b in list_ops(4, 4),
        c in list_ops(4, 4),
    ) {
        // Serialize three concurrent histories the way three sibling
        // merges do: rebase b over a, then c over (a ++ b').
        let base: ChunkTree<u8> = (0..4).collect();
        let serialize = |x: &[ListOp<u8>], y: &[ListOp<u8>], z: &[ListOp<u8>]| {
            let mut log: Vec<ListOp<u8>> = x.to_vec();
            log.extend(rebase(y, x));
            let r = rebase(z, &log);
            log.extend(r);
            let mut s = base.clone();
            apply_all(&mut s, &log).unwrap();
            s
        };
        // The same merge order must always give the same result
        // (determinism of the serialization itself).
        prop_assert_eq!(serialize(&a, &b, &c), serialize(&a, &b, &c));
    }

    // ----- compaction soundness ----------------------------------------

    #[test]
    fn compaction_preserves_list_semantics(ops in list_ops(5, 12)) {
        let base: ChunkTree<u8> = (0..5).collect();
        let compacted = compact(&ops);
        let mut s1 = base.clone();
        apply_all(&mut s1, &ops).unwrap();
        let mut s2 = base;
        apply_all(&mut s2, &compacted).unwrap();
        prop_assert_eq!(s1, s2);
        prop_assert!(compacted.len() <= ops.len());
    }

    #[test]
    fn compaction_preserves_text_semantics(ops in text_ops(8, 10)) {
        let base = Rope::from("abcdefgh");
        let compacted = compact(&ops);
        let mut s1 = base.clone();
        apply_all(&mut s1, &ops).unwrap();
        let mut s2 = base;
        apply_all(&mut s2, &compacted).unwrap();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn scalar_flag_honest(a in list_ops(5, 4)) {
        // SCALAR algebras must never split during transform.
        for x in &a {
            for y in &a {
                for side in [sm_ot::Side::Left, sm_ot::Side::Right] {
                    prop_assert!(x.transform(y, side).len() <= 1);
                }
            }
        }
    }
}
