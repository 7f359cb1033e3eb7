//! Cross-cutting tests for the span-compacted merge path: compacting
//! either side of a rebase must never change the merged state (on every
//! algebra, including adjacent-fuse and cancellation cases), the
//! contiguous-span fast path must actually be fast, and the
//! fork-watermark GC must keep the root's committed log bounded across
//! many merge rounds without altering results.

use std::time::Instant;

use proptest::prelude::*;
use spawn_merge::ot::cmap::CounterMapOp;
use spawn_merge::ot::compose::compact;
use spawn_merge::ot::counter::CounterOp;
use spawn_merge::ot::list::ListOp;
use spawn_merge::ot::map::MapOp;
use spawn_merge::ot::register::RegisterOp;
use spawn_merge::ot::seq::rebase;
use spawn_merge::ot::set::SetOp;
use spawn_merge::ot::state::{ChunkTree, Rope};
use spawn_merge::ot::text::TextOp;
use spawn_merge::ot::tree::{Node, TreeOp};
use spawn_merge::ot::{apply_all, Operation};
use spawn_merge::{run, Leaf, MList};

/// The core equivalence: merging `incoming` over `committed` from `base`
/// gives the same state whether or not both logs are compacted first.
fn assert_compact_rebase_equiv<O>(base: &O::State, committed: &[O], incoming: &[O])
where
    O: Operation,
    O::State: Clone + PartialEq + std::fmt::Debug,
{
    let mut raw = base.clone();
    apply_all(&mut raw, committed).unwrap();
    apply_all(&mut raw, &rebase(incoming, committed)).unwrap();

    let cc = compact(committed);
    let ci = compact(incoming);
    let mut fused = base.clone();
    apply_all(&mut fused, &cc).unwrap();
    apply_all(&mut fused, &rebase(&ci, &cc)).unwrap();

    assert_eq!(raw, fused, "compaction changed the merge result");
}

// ---------------------------------------------------------------------
// deterministic adjacent-fuse and cancellation cases, per algebra
// ---------------------------------------------------------------------

#[test]
fn list_adjacent_fuse_and_cancel() {
    let base: ChunkTree<u8> = (0..8).collect();
    // Contiguous appends on both sides fuse to one InsertRun each.
    let committed: Vec<ListOp<u8>> = (0..5).map(|i| ListOp::Insert(8 + i, i as u8)).collect();
    let incoming: Vec<ListOp<u8>> = (0..5)
        .map(|i| ListOp::Insert(8 + i, 100 + i as u8))
        .collect();
    assert_eq!(compact(&committed).len(), 1);
    assert_compact_rebase_equiv(&base, &committed, &incoming);

    // Insert-then-delete cancellation inside the incoming log.
    let incoming = vec![
        ListOp::Insert(2, 42),
        ListOp::Delete(2),
        ListOp::Insert(0, 7),
    ];
    assert_eq!(compact(&incoming), vec![ListOp::Insert(0, 7)]);
    assert_compact_rebase_equiv(&base, &committed, &incoming);
}

#[test]
fn text_adjacent_fuse_and_cancel() {
    let base = Rope::from("abcdefgh");
    let committed = vec![TextOp::insert(0, "xx"), TextOp::insert(2, "yy")];
    // Typed-then-deleted text cancels (full and partial overlap).
    let incoming = vec![
        TextOp::insert(4, "oops"),
        TextOp::delete(5, 2),
        TextOp::insert(3, "k"),
    ];
    assert!(compact(&incoming).len() < incoming.len());
    assert_compact_rebase_equiv(&base, &committed, &incoming);
}

#[test]
fn counter_register_fuse_and_cancel() {
    // Counter adds fuse to one delta; +d / -d annihilates.
    let committed = vec![CounterOp::add(3), CounterOp::add(4)];
    let incoming = vec![CounterOp::add(10), CounterOp::add(-10), CounterOp::add(1)];
    assert_eq!(compact(&committed).len(), 1);
    assert_compact_rebase_equiv(&7i64, &committed, &incoming);

    // Register: last-write-wins, any run fuses to its last op.
    let committed = vec![RegisterOp::set(1u8), RegisterOp::set(2)];
    let incoming = vec![RegisterOp::set(8), RegisterOp::set(9)];
    assert_eq!(compact(&incoming), vec![RegisterOp::set(9)]);
    assert_compact_rebase_equiv(&0u8, &committed, &incoming);
}

#[test]
fn map_set_cmap_fuse_and_cancel() {
    let base: std::collections::BTreeMap<u8, i32> = [(0u8, 0i32), (1, 1)].into();
    // Same-key puts fuse; put-then-remove collapses to the remove.
    let committed = vec![MapOp::Put(0, 5), MapOp::Put(0, 6), MapOp::Put(2, 2)];
    let incoming = vec![MapOp::Put(3, 9), MapOp::Remove(3), MapOp::Put(1, 4)];
    assert!(compact(&committed).len() < committed.len());
    assert_compact_rebase_equiv(&base, &committed, &incoming);

    let base: std::collections::BTreeSet<u8> = [0u8, 1].into();
    let committed = vec![SetOp::Add(9)];
    let incoming = vec![SetOp::Add(7), SetOp::Remove(7), SetOp::Add(8)];
    assert_compact_rebase_equiv(&base, &committed, &incoming);

    let base: std::collections::BTreeMap<u8, i64> = [(0u8, 5i64)].into();
    let committed = vec![CounterMapOp::add(0, 2), CounterMapOp::add(0, 3)];
    let incoming = vec![CounterMapOp::add(1, 4), CounterMapOp::add(1, -4)];
    assert_eq!(compact(&committed).len(), 1);
    assert_compact_rebase_equiv(&base, &committed, &incoming);
}

#[test]
fn tree_fuse_case() {
    let base = Node::branch(0u8, vec![Node::leaf(1), Node::leaf(2)]);
    // Same-path SetValue runs fuse to the last write.
    let committed = vec![
        TreeOp::SetValue {
            path: vec![0],
            value: 10,
        },
        TreeOp::SetValue {
            path: vec![0],
            value: 11,
        },
    ];
    let incoming = vec![
        TreeOp::Insert {
            path: vec![2],
            node: Node::leaf(9),
        },
        TreeOp::SetValue {
            path: vec![1],
            value: 7,
        },
    ];
    assert_eq!(compact(&committed).len(), 1);
    assert_compact_rebase_equiv(&base, &committed, &incoming);
}

// ---------------------------------------------------------------------
// property tests: arbitrary valid logs, list and text
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_compact_rebase_equiv_list(c in list_ops(6, 10), i in list_ops(6, 10)) {
        let base: ChunkTree<u8> = (0..6).collect();
        assert_compact_rebase_equiv(&base, &c, &i);
    }

    #[test]
    fn prop_compact_rebase_equiv_text(c in text_ops(8, 8), i in text_ops(8, 8)) {
        let base = Rope::from("abcdefgh");
        assert_compact_rebase_equiv(&base, &c, &i);
    }

    #[test]
    fn prop_compact_rebase_equiv_counter(
        c in prop::collection::vec(-20i64..20, 0..8),
        i in prop::collection::vec(-20i64..20, 0..8),
    ) {
        let c: Vec<CounterOp> = c.into_iter().map(CounterOp::add).collect();
        let i: Vec<CounterOp> = i.into_iter().map(CounterOp::add).collect();
        assert_compact_rebase_equiv(&100i64, &c, &i);
    }

    #[test]
    fn prop_compact_rebase_equiv_map(
        c in prop::collection::vec((0u8..4, any::<i32>(), any::<bool>()), 0..8),
        i in prop::collection::vec((0u8..4, any::<i32>(), any::<bool>()), 0..8),
    ) {
        let mk = |raw: Vec<(u8, i32, bool)>| -> Vec<MapOp<u8, i32>> {
            raw.into_iter()
                .map(|(k, v, rm)| if rm { MapOp::Remove(k) } else { MapOp::Put(k, v) })
                .collect()
        };
        let base: std::collections::BTreeMap<u8, i32> = [(0u8, 0i32), (1, 1)].into();
        assert_compact_rebase_equiv(&base, &mk(c), &mk(i));
    }
}

// ---------------------------------------------------------------------
// speedup: the 500-contiguous-ops rebase must be at least 5x faster
// ---------------------------------------------------------------------

#[test]
fn contiguous_span_rebase_is_5x_faster() {
    let committed: Vec<ListOp<u64>> = (0..500).map(|i| ListOp::Insert(64 + i, i as u64)).collect();
    let incoming: Vec<ListOp<u64>> = (0..500)
        .map(|i| ListOp::Insert(64 + i, 1000 + i as u64))
        .collect();

    let best = |f: &mut dyn FnMut() -> Vec<ListOp<u64>>| {
        let mut best = u128::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_nanos());
        }
        best
    };
    let raw_ns = best(&mut || rebase(&incoming, &committed));
    // Compaction time counts against the fast path.
    let compacted_ns = best(&mut || {
        let i = compact(&incoming);
        let c = compact(&committed);
        rebase(&i, &c)
    });

    assert!(
        raw_ns as f64 / compacted_ns.max(1) as f64 >= 5.0,
        "span path not >=5x faster: raw {raw_ns} ns vs compacted {compacted_ns} ns"
    );
}

// ---------------------------------------------------------------------
// fork-watermark GC through the runtime
// ---------------------------------------------------------------------

/// 120 spawn→merge_all rounds: every round forks a child at the current
/// history tip, so without GC the root's committed log would grow by at
/// least one (fusion-barriered) op per round. The watermark GC truncates
/// the prefix no live fork can rebase against, keeping the in-memory log
/// bounded by the outstanding divergence, not the total history.
#[test]
fn merge_rounds_keep_root_log_bounded() {
    const ROUNDS: u64 = 120;
    let build = || {
        run(MList::from_iter([0u64]), |ctx| {
            let mut max_log = 0usize;
            for round in 0..ROUNDS {
                let t = ctx.spawn(move |child| {
                    child.data_mut().push(round);
                    Ok(())
                });
                ctx.data_mut().push(1000 + round);
                ctx.merge_all_from_set(&[&t]);
                max_log = max_log.max(ctx.data().log().len());
            }
            max_log
        })
    };

    let (list, max_log) = build();
    assert_eq!(list.len(), 1 + 2 * ROUNDS as usize);
    assert!(
        max_log <= 4,
        "root committed log grew to {max_log} ops over {ROUNDS} rounds — GC not bounding memory"
    );

    // Determinism: truncation must be invisible in the merged result.
    let (again, _) = build();
    assert_eq!(list.to_vec(), again.to_vec());
}

/// A long-lived child (still unmerged) pins the watermark: ops after its
/// fork base survive GC, and its eventual merge is identical to a run
/// where the GC never fired in between.
#[test]
fn gc_preserves_late_merges() {
    let (list, ()) = run(MList::from_iter([7u64]), |ctx| {
        let slow = ctx.spawn(|child| {
            child.data_mut().push(999);
            Ok(())
        });
        // Many fast rounds while `slow` is outstanding; GC runs after
        // each merge_all but must keep everything past slow's fork base.
        for round in 0..50u64 {
            let fast = ctx.spawn(move |child| {
                child.data_mut().push(round);
                Ok(())
            });
            ctx.merge_all_from_set(&[&fast]);
        }
        ctx.merge_all_from_set(&[&slow]);
    });
    let v = list.to_vec();
    assert_eq!(v.len(), 52);
    assert!(v.contains(&999), "late merge lost the slow child's op");
}
