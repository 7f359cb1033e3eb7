//! A point insert into a `ChunkTree` leaf that has room splices the value
//! straight into that leaf: no allocation, the way `Vec::insert` into
//! spare capacity makes none. An insert into a full leaf splits that leaf
//! where it stands: a constant few allocations, whatever the tree's size.
//! A point delete that empties a leaf unlinks it where it stands, and a
//! shared leaf an insert copies is copied once, with room.

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

/// A `len`-element tree (chunks of 32, as `from_vec` cuts them) whose leaf
/// under position `at` has been filled to the chunk bound by inserts at
/// `at`, which must lie strictly inside that leaf.
fn full_leaf_at(len: u32, at: usize) -> (ChunkTree<u32>, Vec<u32>) {
    let mut model: Vec<u32> = (0..len).collect();
    let mut tree = ChunkTree::from_vec(model.clone());
    let fill: Vec<u32> = (0..32).map(|i| 1_000_000 + i).collect();
    tree.insert_slice(at, &fill);
    model.splice(at..at, fill);
    (tree, model)
}

/// What a point insert at `at` into the full leaf there allocates.
fn full_leaf_insert_allocations(len: u32, at: usize) -> usize {
    let (mut tree, mut model) = full_leaf_at(len, at);
    let ((), allocations) = allocations_in(|| tree.insert(at, 99));
    model.insert(at, 99);
    assert_eq!(tree, model, "len {len}, at {at}");
    tree.check_invariants();
    allocations
}

#[test]
fn an_insert_into_a_full_leaf_splits_it_in_place() {
    // The leaf splits where it is: the second half's buffer and its leaf,
    // handed to a parent with room — the same two into a thousand
    // elements as into a hundred thousand. A split + join of the whole
    // tree would rebuild the spine: more nodes the taller the tree.
    for len in [1_000, 100_000] {
        for at in [16, len as usize / 2 + 16, len as usize - 24] {
            let allocations = full_leaf_insert_allocations(len, at);
            assert_eq!(allocations, 2, "len {len}, at {at}");
        }
    }
}

#[test]
fn a_leaf_split_that_fills_its_parent_splits_the_parent_too() {
    // 24 full leaves build as two inner nodes of twelve under the root.
    // Splitting leaves 11, 10, 9 and 8 fills the first node to sixteen
    // children (two allocations each); the next split overflows it, and
    // it splits into two nodes: one allocation more.
    let chunks: Vec<Vec<u32>> = (0..24).map(|j| vec![j; 64]).collect();
    let mut model = chunks.concat();
    let mut tree = ChunkTree::from_chunk_vecs(chunks);
    for (leaf, expected) in [(11, 2), (10, 2), (9, 2), (8, 2), (7, 3)] {
        let at = 64 * leaf + 32;
        let ((), allocations) = allocations_in(|| tree.insert(at, 99));
        model.insert(at, 99);
        assert_eq!(allocations, expected, "leaf {leaf}");
    }
    assert_eq!(tree, model);
    tree.check_invariants();
}

#[test]
fn a_point_delete_that_empties_a_leaf_unlinks_it_in_place() {
    // A one-element leaf among 32-element ones: removing its element
    // unlinks the leaf from its node, and nothing is allocated.
    let mut chunks: Vec<Vec<u32>> = (0..40).map(|j| vec![j; 32]).collect();
    chunks[20] = vec![7_777];
    let mut model = chunks.concat();
    let mut tree = ChunkTree::from_chunk_vecs(chunks);
    let at = 20 * 32;
    let (removed, allocations) = allocations_in(|| tree.remove(at));
    assert_eq!(removed, model.remove(at));
    assert_eq!(allocations, 0, "unlink");
    assert_eq!(tree, model);
    tree.check_invariants();

    // 17 leaves build as nodes of nine and eight: unlinking one of the
    // eight leaves that node underfull, and it merges with its sibling
    // into the one child of the root, which then gives way to it. Moving
    // children between nodes allocates nothing either.
    let mut chunks: Vec<Vec<u32>> = (0..17).map(|j| vec![j; 32]).collect();
    chunks[12] = vec![7_777];
    let mut model = chunks.concat();
    let mut tree = ChunkTree::from_chunk_vecs(chunks);
    let at = 12 * 32;
    let (removed, allocations) = allocations_in(|| tree.remove(at));
    assert_eq!(removed, model.remove(at));
    assert_eq!(allocations, 0, "unlink + merge");
    assert_eq!(tree, model);
    tree.check_invariants();
}

#[test]
fn a_push_onto_a_shared_leaf_copies_it_once_with_room() {
    // A queue's one-leaf tree, forked: the push copies the shared chunk
    // with a slot for the new element (the copy and its leaf) and does
    // not grow the copy again.
    let original: ChunkTree<u32> = ChunkTree::from_vec((0..5).collect());
    let mut fork = original.clone();
    let ((), allocations) = allocations_in(|| fork.push(5));
    assert_eq!(allocations, 2, "push onto a shared leaf");
    assert_eq!(fork, (0..6).collect::<Vec<_>>());
    assert_eq!(original, (0..5).collect::<Vec<_>>());
}

#[test]
fn a_full_leaf_split_on_a_clone_leaves_the_original_alone() {
    let (original, model) = full_leaf_at(100_000, 50_016);
    let mut clone = original.clone();
    for i in 0..40 {
        clone.insert(50_016 + i, 7);
    }
    assert_eq!(original, model);
    original.check_invariants();
    assert_eq!(clone.len(), model.len() + 40);
    clone.check_invariants();
    assert!(
        clone.unshared_elems(&original) < 256,
        "the splits copied only the path they touched"
    );
}
