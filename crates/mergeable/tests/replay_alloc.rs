//! Recovery's list replay owns the list it replays into. Every commit
//! decodes once through sm-codec; one scattered wider than the
//! `InsertPlanner`'s window, or holding deletes, applies op by op to a
//! chunk tree nobody else holds, so no edit path-copies a node, and a
//! full leaf splits where it stands instead of rebuilding the spine. What
//! is left per replayed op is each decoded commit's buffers and the
//! occasional leaf split, spread thin.
//!
//! Allocation counts are a release property: run with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};
use sm_mergeable::{MList, Mergeable, Persist};

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

/// `commits` commits of `ops` edits each at pseudo-random positions of a
/// list, every eighth one half deletes — the `recover_replay` benchmark's
/// journal shape at a tenth of its size — as the `(slice, op count)`
/// pairs a store frames, exported the way a store exports them (seal,
/// slice since the last marks, recapture); and the list they came from.
fn scattered_journal(commits: usize, ops: usize) -> (Vec<(Bytes, u64)>, MList<u64>) {
    let mut list = MList::<u64>::new();
    let mut marks = Vec::new();
    list.seal_history();
    list.history_marks(&mut marks);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut below = |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let mut journal = Vec::with_capacity(commits);
    for c in 0..commits {
        let mixed = c % 8 == 7;
        for j in 0..ops {
            if mixed && j % 2 == 1 && !list.is_empty() {
                list.remove(below(list.len()));
            } else {
                let at = below(list.len() + 1);
                list.insert(at, (c * ops + j) as u64);
            }
        }
        list.seal_history();
        let mut slice = BytesMut::new();
        let count = list.encode_committed_since(&marks, &mut 0, &mut slice);
        marks.clear();
        list.history_marks(&mut marks);
        journal.push((slice.freeze(), count as u64));
    }
    (journal, list)
}

#[test]
fn a_scattered_list_replay_allocates_under_a_third_of_one_per_op() {
    // 200 commits of 100 ops: past the first ≈ 57 commits the document
    // outgrows the batch lane's window (16 · 100 + 4096), and every
    // insert-only commit after that applies op by op.
    let (journal, written) = scattered_journal(200, 100);
    let mut list = MList::<u64>::new();
    let (replayed, allocations) = allocations_in(|| list.replay_commits(journal));
    let replayed = replayed.expect("the journal replays");
    assert_eq!(list.to_vec(), written.to_vec());
    let per_op = allocations as f64 / replayed as f64;
    assert!(
        per_op < 0.3,
        "{allocations} allocations for {replayed} replayed ops: {per_op:.3} per op"
    );
}
