//! A child that edited nothing owes the parent nothing: merging an
//! untouched fork allocates nothing and returns stats that are arithmetic
//! on the history length. Every leaf and a composite shaped like the
//! network simulation's state (three `Vec`s of leaves and a flag), over an
//! idle parent and over a parent that committed three operations since
//! the fork; re-forking the merged composite in place, as a `Sync` does,
//! allocates nothing either and leaves every queue sharing its state
//! with the parent (`Versioned::shares_state_with`; a counter or register
//! is kept by value and copied). Here, an unsharing copy shows as an
//! allocation.
//!
//! A composite walks its fields into one `MergeStats`: a child that edited
//! a few leaves pays for those alone. A merge over nothing committed
//! since the fork allocates only the copies of the operations it appends
//! (a fast-forward takes the child's state, a scalar applies in place),
//! and a `Sync` of two touched scalars out of 61 leaves allocates
//! nothing. One Figure 3 hop (pop, count, digest, push, then merge and
//! refork) has a pinned allocation budget. The walk's stats are the sum
//! of the leaves' merges, and a leaf the child never touched still
//! refuses a fork point past its history or in its collected prefix.
//!
//! Run it in release too (CI does): debug builds double every rebase
//! served by the merge memo with the uncached one and allocate
//! differently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sm_mergeable::{
    mergeable_struct, Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText,
    MTree, MergeError, MergeStats, Mergeable,
};
use sm_ot::tree::Node;

/// The system allocator, counting each thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged and return its result unchanged (`alloc_zeroed` and `realloc`
// keep their defaults, which go through `alloc`); the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching
// it never allocates and never observes a torn-down slot.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as our caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What a trivial merge reports: nothing from the child, no rebase of
/// either kind (there is nothing to rebase), and the parent's operations
/// since the fork (`committed_ops_compacted` reads the raw length, as the
/// delta path's always has; none of these edits compacts).
fn trivial(committed_ops: usize) -> MergeStats {
    MergeStats {
        committed_ops,
        committed_ops_compacted: committed_ops,
        ..MergeStats::default()
    }
}

/// Merge an untouched fork into an idle parent, then into a parent that
/// has recorded `edit` (`committed_ops` operations) since the fork and
/// shares its state with a younger fork.
fn check<M: Mergeable>(name: &str, mut parent: M, committed_ops: usize, edit: fn(&mut M)) {
    let child = parent.fork();
    let (stats, allocations) = allocations_in(|| parent.merge(&child).unwrap());
    assert_eq!(allocations, 0, "{name}: idle parent");
    assert_eq!(stats, trivial(0), "{name}: idle parent");

    let child = parent.fork();
    edit(&mut parent);
    let _younger = parent.fork();
    let (stats, allocations) = allocations_in(|| parent.merge(&child).unwrap());
    assert_eq!(allocations, 0, "{name}: busy parent");
    assert_eq!(stats, trivial(committed_ops), "{name}: busy parent");
    assert_eq!(child.pending_ops(), 0);
}

#[test]
fn every_leaf_merges_an_untouched_fork_for_free() {
    check("MList", MList::from_vec(vec![1u32, 2, 3, 4]), 3, |l| {
        l.set(0, 9);
        l.insert(2, 8);
        l.remove(3);
    });
    check("MText", MText::from("hello world"), 3, |t| {
        t.insert_str(0, "a");
        t.insert_str(6, "b");
        t.insert_str(3, "c");
    });
    check("MQueue", MQueue::from_vec(vec![1u32, 2, 3]), 3, |q| {
        q.pop_front();
        q.push_back(4);
        q.pop_front();
    });
    check("MMap", MMap::from_entries([(1u32, 1u32), (2, 2)]), 3, |m| {
        m.insert(3, 3);
        m.remove(&1);
        m.insert(4, 4);
    });
    check("MSet", MSet::from_items([1u32, 2]), 3, |s| {
        s.insert(3);
        s.remove(&1);
        s.insert(4);
    });
    // Counter adds fuse in the log: three `inc`s are one committed op.
    check("MCounter", MCounter::new(0), 1, |c| {
        c.inc();
        c.inc();
        c.inc();
    });
    check(
        "MCounterMap",
        MCounterMap::from_entries([(1u32, 1)]),
        3,
        |m| {
            m.inc(1);
            m.inc(2);
            m.inc(3);
        },
    );
    // So do register writes: the last one wins inside the log already.
    check("MRegister", MRegister::new(0u32), 1, |r| {
        r.set(1);
        r.set(2);
        r.set(3);
    });
    check("MTree", MTree::new(0u32), 3, |t| {
        t.push_child(&[], Node::leaf(1));
        t.push_child(&[], Node::leaf(2));
        t.set_value(vec![0], 7);
    });
}

mergeable_struct! {
    /// The shape of `sm_netsim`'s `SimData`.
    #[derive(Debug, Clone)]
    struct SimShaped {
        queues: Vec<MQueue<u64>>,
        processed: Vec<MCounter>,
        digests: Vec<MRegister<[u8; 20]>>,
        done: MRegister<bool>,
    }
}

const HOSTS: usize = 20;

fn sim_shaped() -> SimShaped {
    SimShaped {
        queues: (0..HOSTS as u64)
            .map(|h| MQueue::from_vec(vec![h, h + 1]))
            .collect(),
        processed: (0..HOSTS).map(|_| MCounter::new(0)).collect(),
        digests: (0..HOSTS).map(|_| MRegister::new([0; 20])).collect(),
        done: MRegister::new(false),
    }
}

#[test]
fn a_wide_composite_merges_an_untouched_fork_for_free() {
    // One host's hop, as the simulation makes it: pop, count, digest, push.
    check("SimShaped", sim_shaped(), 4, |d| {
        d.queues[3].pop_front();
        d.processed[3].inc();
        d.digests[3].set([7; 20]);
        d.queues[11].push_back(99);
    });
}

/// Per leaf, in field order: whether `a`'s and `b`'s hold one state.
fn sharing(a: &SimShaped, b: &SimShaped) -> Vec<bool> {
    fn pairs<'a, L: Leaf>(a: &'a [L], b: &'a [L]) -> impl Iterator<Item = bool> + 'a {
        a.iter()
            .zip(b)
            .map(|(a, b)| a.versioned().shares_state_with(b.versioned()))
    }
    let done = a.done.versioned().shares_state_with(b.done.versioned());
    pairs(&a.queues, &b.queues)
        .chain(pairs(&a.processed, &b.processed))
        .chain(pairs(&a.digests, &b.digests))
        .chain([done])
        .collect()
}

/// What a synced child and its parent share: every queue, and no
/// scalar (kept by value, so copied).
fn queues_shared_scalars_copied() -> Vec<bool> {
    let mut out = vec![true; HOSTS];
    out.resize(3 * HOSTS + 1, false);
    out
}

#[test]
fn a_sync_over_an_untouched_wide_composite_is_free() {
    // The parent's side of a `Sync` from a child that edited nothing:
    // merge it, then re-fork its data in place for it to continue on.
    let mut parent = sim_shaped();
    let mut child = parent.fork();
    assert_eq!(sharing(&parent, &child), queues_shared_scalars_copied());
    let (stats, allocations) = allocations_in(|| {
        let stats = parent.merge(&child).unwrap();
        child.refork(&parent);
        stats
    });
    assert_eq!(allocations, 0);
    assert_eq!(stats, trivial(0));
    assert_eq!(sharing(&parent, &child), queues_shared_scalars_copied());
    assert_eq!(child.pending_ops(), 0);
}

/// Allocations of a second merge over nothing committed of `edit` into
/// `parent` (the first one grew the parent's log), and of cloning the
/// child's operations one by one — the copies the merge appends.
/// `takes_state`: whether the merge fast-forwards to the child's state
/// (a scalar kept by value applies its run in place instead).
fn fast_forward_allocations<L: Leaf>(
    mut parent: L,
    edit: fn(&mut L),
    takes_state: bool,
) -> (usize, usize) {
    let mut child = parent.fork();
    edit(&mut child);
    parent.merge(&child).unwrap();
    child.refork(&parent);
    edit(&mut child);
    let ((), ops) = allocations_in(|| child.log().iter().cloned().for_each(drop));
    let (stats, merge) = allocations_in(|| parent.merge(&child).unwrap());
    assert_eq!((stats.child_ops, stats.committed_ops), (1, 0));
    assert_eq!(
        parent.versioned().shares_state_with(child.versioned()),
        takes_state,
        "the parent took the child's state"
    );
    (merge, ops)
}

#[test]
fn a_merge_over_nothing_committed_allocates_only_the_appended_ops() {
    macro_rules! check {
        ($name:literal, $leaf:expr, $edit:expr, $takes_state:expr) => {{
            let (merge, ops) = fast_forward_allocations($leaf, $edit, $takes_state);
            assert_eq!(merge, ops, "{}", $name);
        }};
    }
    check!(
        "MList",
        MList::from_vec(vec![1u32, 2, 3, 4]),
        |l| l.insert(1, 5),
        true
    );
    check!(
        "MText",
        MText::from("hello world"),
        |t| t.insert_str(0, "a"),
        true
    );
    check!(
        "MQueue",
        MQueue::from_vec(vec![1u32, 2, 3]),
        |q| q.push_back(4),
        true
    );
    check!(
        "MMap",
        MMap::from_entries([(1u32, 1u32)]),
        |m| {
            let n = m.len() as u32;
            m.insert(n + 1, n);
        },
        true
    );
    check!(
        "MSet",
        MSet::from_items([1u32]),
        |s| {
            let n = s.len() as u32;
            s.insert(n + 1);
        },
        true
    );
    check!("MCounter", MCounter::new(0), MCounter::inc, false);
    check!(
        "MCounterMap",
        MCounterMap::from_entries([(1u32, 1)]),
        |m| m.inc(1),
        true
    );
    check!(
        "MRegister",
        MRegister::new(0u32),
        |r| {
            let v = *r.get();
            r.set(v + 1);
        },
        false
    );
    check!(
        "MTree",
        MTree::new(0u32),
        |t| t.push_child(&[], Node::leaf(1)),
        true
    );
}

/// One host's hop that leaves its queue alone: what a fast-forward merges
/// for two leaves of the 61.
fn count_and_digest(d: &mut SimShaped) {
    d.processed[3].inc();
    let digest = *d.digests[3].get();
    d.digests[3].set([digest[0].wrapping_add(1); 20]);
}

#[test]
fn a_sync_over_a_wide_composite_that_touched_two_scalars_allocates_nothing() {
    // Round one grows the two touched logs; round two is the steady state.
    let mut parent = sim_shaped();
    let mut child = parent.fork();
    count_and_digest(&mut child);
    parent.merge(&child).unwrap();
    child.refork(&parent);
    count_and_digest(&mut child);
    let (stats, allocations) = allocations_in(|| {
        let stats = parent.merge(&child).unwrap();
        child.refork(&parent);
        stats
    });
    assert_eq!(
        allocations, 0,
        "two scalars apply in place, the 59 untouched leaves and the refork allocate nothing"
    );
    assert_eq!((stats.child_ops, stats.committed_ops), (2, 0));
    assert_eq!(sharing(&parent, &child), queues_shared_scalars_copied());
}

/// One Figure 3 hop on a synced child: host 3 pops its inbox, counts,
/// digests and forwards to host 11.
fn hop(d: &mut SimShaped) {
    let msg = d.queues[3].pop_front().unwrap();
    count_and_digest(d);
    d.queues[11].push_back(msg + 1);
}

#[test]
fn one_figure_3_hop_has_a_pinned_allocation_budget() {
    // Round one grows the logs the hop writes; round two is measured.
    // Host 3's inbox holds five messages, about Figure 3's average.
    let mut parent = sim_shaped();
    for m in 100..103 {
        parent.queues[3].push_back(m);
    }
    let mut child = parent.fork();
    hop(&mut child);
    parent.merge(&child).unwrap();
    child.refork(&parent);

    // A counter `inc` and a register `set` on a synced fork: by value,
    // with the log's buffer kept by the refork, they allocate nothing.
    let ((), scalars) = allocations_in(|| count_and_digest(&mut child));
    assert_eq!(scalars, 0, "inc + set on a fork");
    parent.merge(&child).unwrap();
    child.refork(&parent);

    // The pop path-copies its shared chunk (leaf and chunk), the push
    // too, copying the chunk with a slot for its element so nothing
    // grows it again; the merge over an idle parent
    // fast-forwards both queues and applies both scalars, and the refork
    // keeps every state it shares.
    let ((), edits) = allocations_in(|| hop(&mut child));
    let (stats, sync) = allocations_in(|| {
        let stats = parent.merge(&child).unwrap();
        child.refork(&parent);
        stats
    });
    assert_eq!(
        (edits, sync),
        (4, 0),
        "pop + inc + set + push, merge + refork"
    );
    assert_eq!((stats.child_ops, stats.committed_ops), (4, 0));
    assert_eq!(sharing(&parent, &child), queues_shared_scalars_copied());
}

/// A hop that touches both sides of the composite: the child edits three
/// leaves, the parent two, one of them the same.
fn both_sides() -> (SimShaped, SimShaped) {
    let mut parent = sim_shaped();
    parent.queues[5].push_back(1);
    let mut child = parent.fork();
    child.queues[3].pop_front();
    child.processed[3].inc();
    child.queues[5].push_back(2);
    parent.queues[5].push_back(3);
    parent.digests[8].set([1; 20]);
    (parent, child)
}

#[test]
fn a_composites_stats_are_the_sum_of_its_leaves() {
    let (mut parent, child) = both_sides();
    let mut leafwise = parent.clone();
    let stats = parent.merge(&child).unwrap();

    let mut sum = MergeStats::default();
    for (p, c) in leafwise.queues.iter_mut().zip(&child.queues) {
        sum += p.merge(c).unwrap();
    }
    for (p, c) in leafwise.processed.iter_mut().zip(&child.processed) {
        sum += p.merge(c).unwrap();
    }
    for (p, c) in leafwise.digests.iter_mut().zip(&child.digests) {
        sum += p.merge(c).unwrap();
    }
    sum += leafwise.done.merge(&child.done).unwrap();
    assert_eq!(stats, sum);
    assert_eq!((stats.child_ops, stats.committed_ops), (3, 2));
    assert_eq!(parent.queues[5].to_vec(), leafwise.queues[5].to_vec());
}

fn invalid_fork_point(err: MergeError) -> bool {
    matches!(
        err,
        MergeError::InvalidForkPoint {
            fork_base: 1,
            parent_log_len: 0
        }
    )
}

fn fork_point_truncated(err: MergeError) -> bool {
    matches!(
        err,
        MergeError::ForkPointTruncated {
            fork_base: 0,
            log_start: 1
        }
    )
}

#[test]
fn an_untouched_leaf_still_checks_its_fork_point() {
    // Past the history: the child was forked from a structure whose
    // `processed[7]` and `done` had recorded an operation more. The child
    // touched nothing.
    let mut other = sim_shaped();
    other.processed[7].inc();
    other.done.set(true);
    let stranger = other.fork();
    let parent = sim_shaped();
    assert!(invalid_fork_point(
        parent.clone().merge(&stranger).unwrap_err()
    ));
    assert!(invalid_fork_point(
        parent
            .processed
            .clone()
            .merge(&stranger.processed)
            .unwrap_err()
    ));
    assert!(invalid_fork_point(
        (parent.done.clone(), parent.processed[0].clone())
            .merge(&(stranger.done.clone(), stranger.processed[0].clone()))
            .unwrap_err()
    ));

    // Truncated: the parent collected the history the child forked in.
    let mut parent = sim_shaped();
    let child = parent.fork();
    parent.processed[7].inc();
    parent.done.set(true);
    let mut marks = Vec::new();
    parent.history_marks(&mut marks);
    assert_eq!(parent.truncate_history(&marks, &mut 0), 2);
    assert!(fork_point_truncated(
        parent.clone().merge(&child).unwrap_err()
    ));
    assert!(fork_point_truncated(
        parent
            .processed
            .clone()
            .merge(&child.processed)
            .unwrap_err()
    ));
    assert!(fork_point_truncated(
        (parent.done.clone(), parent.processed[0].clone())
            .merge(&(child.done.clone(), child.processed[0].clone()))
            .unwrap_err()
    ));
}
