//! A point insert into a `ChunkTree` leaf that has room splices the value
//! straight into that leaf: no allocation, the way `Vec::insert` into
//! spare capacity makes none. Only an insert that splits a leaf builds
//! new chunks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sm_ot::list::ListOp;
use sm_ot::state::ChunkTree;
use sm_ot::Operation;

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

/// A one-leaf tree of `len` elements whose chunk has spare capacity for
/// the whole chunk bound.
fn roomy(len: u32) -> ChunkTree<u32> {
    let mut items = Vec::with_capacity(64);
    items.extend(0..len);
    ChunkTree::from_vec(items)
}

#[test]
fn a_point_insert_into_a_leaf_with_room_allocates_nothing() {
    let mut tree = roomy(10);
    let ((), allocations) = allocations_in(|| tree.insert(4, 99));
    assert_eq!(allocations, 0, "insert");
    let ((), allocations) = allocations_in(|| tree.push(100));
    assert_eq!(allocations, 0, "push");
    let ((), allocations) = allocations_in(|| tree.insert_slice(0, &[7, 8]));
    assert_eq!(allocations, 0, "insert_slice");
    assert_eq!(tree.to_vec()[..7], [7, 8, 0, 1, 2, 3, 99]);
    assert_eq!(tree.len(), 14);

    // The list algebra's insert reaches the state through the same path.
    let mut tree = roomy(10);
    let (applied, allocations) = allocations_in(|| ListOp::Insert(10, 5).apply(&mut tree));
    applied.unwrap();
    assert_eq!(allocations, 0, "ListOp::Insert");
    tree.check_invariants();
}

#[test]
fn an_insert_into_a_full_leaf_splits_it() {
    let mut tree = roomy(64);
    let ((), allocations) = allocations_in(|| tree.insert(32, 99));
    assert!(allocations > 0, "a split builds new chunks");
    assert_eq!(tree.len(), 65);
    assert_eq!(tree.get(32), Some(&99));
    assert_eq!(tree.chunk_count(), 3);
    tree.check_invariants();
}
