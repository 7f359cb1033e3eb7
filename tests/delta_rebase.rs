//! The O(m+n) delta (sorted span-set) rebase path on fixed cases: the
//! deterministic insert-tie ordering the linear sweep must reproduce bit
//! for bit, degenerate/empty-delta cases, the `ListOp::Set` grid
//! fallback, the fold round trip, the runtime's use of both paths, and
//! the release-floor speedup of the scattered 100×100 merge the delta
//! path exists for. The exhaustive and randomized differential suite
//! against the pairwise grid is `crates/ot/tests/exhaustive.rs`.

use std::time::Instant;

use proptest::prelude::*;
use spawn_merge::netsim::workload::lcg_positions;
use spawn_merge::ot::apply_all;
use spawn_merge::ot::delta::{from_ops, rebase_delta, DeltaOp};
use spawn_merge::ot::list::ListOp;
use spawn_merge::ot::seq::rebase;
use spawn_merge::ot::state::{ChunkTree, Rope};
use spawn_merge::ot::text::TextOp;
use spawn_merge::{run, MList, MText};

/// The delta path answers and reaches the pairwise grid's state. Every
/// fixed pair here keeps a base unit between any incoming insert and a
/// later committed insert, where the grid is the oracle.
fn assert_grid_state<O>(base: &O::State, committed: &[O], incoming: &[O])
where
    O: DeltaOp,
    O::State: Clone + PartialEq + std::fmt::Debug,
{
    let after = |rebased: &[O]| {
        let mut s = base.clone();
        apply_all(&mut s, committed).unwrap();
        apply_all(&mut s, rebased).unwrap();
        s
    };
    let (delta_log, _) = rebase_delta(incoming, committed).expect("sequence ops are spans");
    assert_eq!(
        after(&delta_log),
        after(&rebase(incoming, committed)),
        "delta and grid rebase diverged in state\n  committed: {committed:?}\n  incoming: {incoming:?}"
    );
}

// ---------------------------------------------------------------------
// explicit tie-ordering and degenerate cases
// ---------------------------------------------------------------------

#[test]
fn insert_tie_committed_side_wins() {
    // Both sides insert at the same position: the committed (left) insert
    // keeps its place, the incoming one is displaced after it — on both
    // paths, for both algebras.
    let base: ChunkTree<u8> = (0..4).collect();
    let committed = vec![ListOp::Insert(2, 50u8)];
    let incoming = vec![ListOp::Insert(2, 60u8)];
    let (delta_log, _) = rebase_delta(&incoming, &committed).unwrap();
    assert_eq!(delta_log, vec![ListOp::Insert(3, 60)]);
    assert_eq!(delta_log, rebase(&incoming, &committed));
    assert_grid_state(&base, &committed, &incoming);

    let committed = vec![TextOp::insert(1, "LL")];
    let incoming = vec![TextOp::insert(1, "R")];
    let (delta_log, _) = rebase_delta(&incoming, &committed).unwrap();
    assert_eq!(delta_log, vec![TextOp::insert(3, "R")]);
    assert_grid_state(&Rope::from("abcd"), &committed, &incoming);
}

#[test]
fn insert_tie_chains_preserve_relative_order() {
    // Several same-position inserts on each side: committed block first,
    // then the incoming block, each in log order.
    let base: ChunkTree<u8> = (0..2).collect();
    let committed = vec![ListOp::Insert(1, 10u8), ListOp::Insert(1, 11)];
    let incoming = vec![ListOp::Insert(1, 20u8), ListOp::Insert(1, 21)];
    assert_grid_state(&base, &committed, &incoming);

    let mut s = base.clone();
    apply_all(&mut s, &committed).unwrap();
    let (delta_log, _) = rebase_delta(&incoming, &committed).unwrap();
    apply_all(&mut s, &delta_log).unwrap();
    assert_eq!(s, vec![0, 11, 10, 21, 20, 1]);
}

#[test]
fn insert_into_concurrently_deleted_range_lands_at_delete_point() {
    let base = Rope::from("abcdefgh");
    let committed = vec![TextOp::delete(2, 4)]; // deletes "cdef"
    let incoming = vec![TextOp::insert(4, "XY")]; // inside the deleted range
    let (delta_log, _) = rebase_delta(&incoming, &committed).unwrap();
    assert_eq!(delta_log, vec![TextOp::insert(2, "XY")]);
    assert_grid_state(&base, &committed, &incoming);
}

#[test]
fn delete_splits_around_concurrent_insert() {
    let base: ChunkTree<u8> = (0..8).collect();
    let committed = vec![ListOp::InsertRun(4, vec![90u8, 91])];
    let incoming = vec![ListOp::DeleteRange(2, 5)];
    let (delta_log, _) = rebase_delta(&incoming, &committed).unwrap();
    assert_eq!(
        delta_log,
        vec![ListOp::DeleteRange(2, 2), ListOp::DeleteRange(4, 3)]
    );
    assert_grid_state(&base, &committed, &incoming);
}

#[test]
fn overlapping_deletes_collapse_once() {
    let base = Rope::from("abcdefgh");
    assert_grid_state(&base, &[TextOp::delete(1, 4)], &[TextOp::delete(3, 4)]);
    assert_grid_state(&base, &[TextOp::delete(2, 3)], &[TextOp::delete(2, 3)]);
    assert_grid_state(&base, &[TextOp::delete(0, 8)], &[TextOp::delete(2, 3)]);
}

#[test]
fn empty_and_degenerate_deltas() {
    let base: ChunkTree<u8> = (0..4).collect();
    // Empty logs on either side.
    assert_eq!(
        rebase_delta::<ListOp<u8>>(&[], &[ListOp::Insert(0, 1)])
            .unwrap()
            .0,
        Vec::<ListOp<u8>>::new()
    );
    let (log, stats) = rebase_delta::<ListOp<u8>>(&[ListOp::Insert(0, 1)], &[]).unwrap();
    assert_eq!(log, vec![ListOp::Insert(0, 1)]);
    assert_eq!(stats.committed_spans, 0);

    // A child log that cancels to the identity delta rebases to nothing.
    let incoming = vec![ListOp::Insert(2, 9u8), ListOp::Delete(2)];
    let committed = vec![ListOp::Insert(0, 7u8)];
    let (log, stats) = rebase_delta(&incoming, &committed).unwrap();
    assert!(log.is_empty());
    assert_eq!(stats.incoming_spans, 0);
    assert_grid_state(&base, &committed, &incoming);

    // No-op span forms normalize away.
    let incoming = vec![
        ListOp::InsertRun(1, Vec::<u8>::new()),
        ListOp::DeleteRange(0, 0),
    ];
    let (log, _) = rebase_delta(&incoming, &committed).unwrap();
    assert!(log.is_empty());
}

#[test]
fn set_forces_grid_fallback() {
    // Any Set anywhere in either log must refuse the delta path entirely.
    assert!(rebase_delta(&[ListOp::Set(0, 1u8)], &[ListOp::Insert(0, 2)]).is_none());
    assert!(rebase_delta(&[ListOp::Insert(0, 2u8)], &[ListOp::Set(0, 1)]).is_none());
    assert!(rebase_delta(
        &[ListOp::Insert(0, 2u8), ListOp::Set(1, 3), ListOp::Delete(0)],
        &[ListOp::Insert(0, 4u8)],
    )
    .is_none());
}

// ---------------------------------------------------------------------
// property tests: arbitrary valid logs, with span ops
// ---------------------------------------------------------------------

/// A sequence of delta-eligible list ops (no `Set`) valid against a list
/// of length `len0`, point and span forms mixed.
fn list_seq_ops(len0: usize, max: usize) -> impl Strategy<Value = Vec<ListOp<u8>>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..max).prop_map(
        move |raw| {
            let mut len = len0;
            let mut ops = Vec::new();
            for (kind, pos, val, n) in raw {
                match kind % 4 {
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
                    2 => {
                        let i = (pos as usize) % (len + 1);
                        let run: Vec<u8> = (0..1 + (n as usize) % 3)
                            .map(|k| val.wrapping_add(k as u8))
                            .collect();
                        len += run.len();
                        ops.push(ListOp::InsertRun(i, run));
                    }
                    _ if len > 0 => {
                        let i = (pos as usize) % len;
                        let l = 1 + (n as usize) % (len - i).min(3);
                        len -= l;
                        ops.push(ListOp::DeleteRange(i, l));
                    }
                    _ => {}
                }
            }
            ops
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_from_ops_into_ops_round_trips_effect(ops in list_seq_ops(6, 10)) {
        // Folding a log into a delta and re-materializing it must have the
        // same effect on the base state.
        let base: ChunkTree<u8> = (0..6).collect();
        let mut direct = base.clone();
        apply_all(&mut direct, &ops).unwrap();
        let materialized: Vec<ListOp<u8>> = from_ops(&ops).unwrap().into_ops();
        let mut via_delta = base.clone();
        apply_all(&mut via_delta, &materialized).unwrap();
        prop_assert_eq!(direct, via_delta);
    }
}

// ---------------------------------------------------------------------
// end to end through the runtime: MText / MList children take the
// delta path and still converge deterministically
// ---------------------------------------------------------------------

#[test]
fn runtime_scattered_merge_is_deterministic_on_the_delta_path() {
    let build = || {
        run(MText::from("0123456789abcdef"), |ctx| {
            let children: Vec<_> = (0..4u64)
                .map(|c| {
                    ctx.spawn(move |child| {
                        // Scattered, non-coalescing edits per child.
                        let positions = [11, 3, 7, 0, 13, 5];
                        for (k, p) in positions.iter().enumerate() {
                            let p = (*p + k) % (child.data().char_len() + 1);
                            child.data_mut().insert_str(p, format!("{c}"));
                        }
                        Ok(())
                    })
                })
                .collect();
            ctx.merge_all_from_set(&children.iter().collect::<Vec<_>>());
        })
    };
    let (a, ()) = build();
    let (b, ()) = build();
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(a.char_len(), 16 + 4 * 6);
}

#[test]
fn runtime_set_heavy_child_still_merges_via_grid() {
    // A child mixing Sets with inserts exercises the fallback end to end.
    let (list, ()) = run(MList::from_iter([1u32, 2, 3]), |ctx| {
        let t = ctx.spawn(|child| {
            child.data_mut().set(0, 10);
            child.data_mut().push(4);
            Ok(())
        });
        ctx.data_mut().insert(0, 0);
        ctx.merge_all_from_set(&[&t]);
    });
    assert_eq!(list.to_vec(), vec![0, 10, 2, 3, 4]);
}

// ---------------------------------------------------------------------
// speedup floor: the scattered 100x100 merge the delta path exists for
// ---------------------------------------------------------------------

/// The acceptance floor: scattered 100×100, delta path ≥ 5× over the raw
/// grid. Debug builds easily clear this too (the grid pays 9604 pair
/// transforms, the delta a few hundred span steps), so the floor is
/// asserted unconditionally; CI additionally runs it in release.
#[test]
fn scattered_delta_rebase_is_5x_faster_than_grid() {
    let committed: Vec<ListOp<u64>> = lcg_positions(100, 64)
        .into_iter()
        .enumerate()
        .map(|(i, p)| ListOp::Insert(p, i as u64))
        .collect();
    let incoming: Vec<ListOp<u64>> = lcg_positions(100, 64)
        .into_iter()
        .enumerate()
        .map(|(i, p)| ListOp::Insert(p, 1000 + i as u64))
        .collect();

    let best = |f: &mut dyn FnMut() -> Vec<ListOp<u64>>| {
        let mut best = u128::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_nanos());
        }
        best
    };
    let grid_ns = best(&mut || rebase(&incoming, &committed));
    let delta_ns = best(&mut || rebase_delta(&incoming, &committed).unwrap().0);

    assert!(
        grid_ns as f64 / delta_ns.max(1) as f64 >= 5.0,
        "delta path not >=5x faster on scattered 100x100: grid {grid_ns} ns vs delta {delta_ns} ns"
    );
}
