//! A delta rebase through the merge memo costs what the reference rebase
//! costs: over every pair of short list and text logs,
//! `Operation::delta_rebase` with a fresh memo returns `rebase_delta`'s
//! run, op for op, and allocates no more. Such logs fold within one block
//! of the memo's counted fold, which must then be the straight fold with
//! nothing built beside it. Allocation counts are a release property:
//! run with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sm_ot::delta::{rebase_delta, DeltaOp};
use sm_ot::list::ListOp;
use sm_ot::text::TextOp;

/// The system allocator, counting each thread's allocations (a `realloc`
/// is one, through the default that calls `alloc`).
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

/// Every log of at most `max_ops` steps over a `base_len`-unit document,
/// where `steps(len)` lists each op that applies to a document of `len`
/// units with the length it leaves.
fn every_log<O: Clone>(
    base_len: usize,
    max_ops: usize,
    steps: impl Fn(usize) -> Vec<(O, usize)>,
) -> Vec<Vec<O>> {
    let mut all = vec![(Vec::new(), base_len)];
    let mut from = 0;
    for _ in 0..max_ops {
        let until = all.len();
        for i in from..until {
            let (log, len) = all[i].clone();
            for (op, after) in steps(len) {
                let mut longer = log.clone();
                longer.push(op);
                all.push((longer, after));
            }
        }
        from = until;
    }
    all.into_iter().map(|(log, _)| log).collect()
}

/// Every log of at most three ops over a four-unit base against every log
/// of at most one, both ways round: the memo's rebase equals the
/// reference's and allocates no more.
fn assert_parity<O: DeltaOp + PartialEq>(steps: impl Fn(usize) -> Vec<(O, usize)>) {
    let logs = every_log(4, 3, steps);
    let short: Vec<&Vec<O>> = logs.iter().filter(|log| log.len() <= 1).collect();
    let pairs = logs.iter().flat_map(|log| {
        short
            .iter()
            .flat_map(move |&other| [(log, other), (other, log)])
    });
    for (incoming, committed) in pairs {
        let (reference, by_reference) = allocations_in(|| rebase_delta(incoming, committed));
        let mut memo = O::Memo::default();
        let (memoized, by_memo) =
            allocations_in(|| O::delta_rebase(incoming, committed, &mut memo, false));
        assert!(
            reference.is_some(),
            "{incoming:?} over {committed:?} is a delta rebase"
        );
        assert_eq!(memoized, reference, "{incoming:?} over {committed:?}");
        assert!(
            by_memo <= by_reference,
            "{incoming:?} over {committed:?}: {by_memo} allocations, the reference makes {by_reference}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "allocation counts are a release property")]
fn a_memo_rebase_of_short_list_logs_allocates_no_more_than_the_reference() {
    let steps = |len: usize| {
        let inserts = (0..=len).map(move |pos| (ListOp::Insert(pos, len as u8), len + 1));
        let runs = (0..=len).map(move |pos| (ListOp::InsertRun(pos, vec![7, 8]), len + 2));
        let deletes = (0..len).map(move |pos| (ListOp::Delete(pos), len - 1));
        inserts.chain(runs).chain(deletes).collect()
    };
    assert_parity(steps);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "allocation counts are a release property")]
fn a_memo_rebase_of_short_text_logs_allocates_no_more_than_the_reference() {
    // 1-2-char inserts, one of them multi-byte, and 1-2-char deletes.
    let steps = |len: usize| {
        let mut all = Vec::new();
        for pos in 0..=len {
            all.push((TextOp::insert(pos, "a"), len + 1));
            all.push((TextOp::insert(pos, "é✨"), len + 2));
            for n in 1..=2.min(len - pos) {
                all.push((TextOp::delete(pos, n), len - n));
            }
        }
        all
    };
    assert_parity(steps);
}
