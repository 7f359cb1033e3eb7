//! A delta rebase through the merge memo costs what the reference rebase
//! costs: over every pair of short list and text logs,
//! `Operation::delta_rebase` with a fresh memo returns `rebase_delta`'s
//! run, op for op, and allocates no more. Such logs fold within one block
//! of the memo's counted fold, which must then be the straight fold with
//! nothing built beside it. And a long log folds in bytes linear in its
//! length, even when every op edits inside one growing inserted run.
//! Allocation counts are a release property: run with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use sm_ot::delta::{rebase_delta, DeltaOp};
use sm_ot::list::ListOp;
use sm_ot::text::TextOp;
use sm_ot::Operation;

/// The system allocator, counting each thread's allocations and the bytes
/// they ask for (a `realloc` is one, through the default that calls
/// `alloc`, and asks for its new size).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged and return its result unchanged (`alloc_zeroed` and `realloc`
// keep their defaults, which go through `alloc`); the counters are
// const-initialized thread-local `Cell`s with no destructor, so touching
// them never allocates and never observes a torn-down slot.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size()));
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

/// What this thread's `counter` (`ALLOCATIONS` or `BYTES`) grows by
/// while `f` runs.
fn counted<T>(counter: &'static LocalKey<Cell<usize>>, f: impl FnOnce() -> T) -> (T, usize) {
    let before = counter.with(Cell::get);
    let out = f();
    (out, counter.with(Cell::get) - before)
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
        let (reference, by_reference) = counted(&ALLOCATIONS, || rebase_delta(incoming, committed));
        let mut memo = O::Memo::default();
        let (memoized, by_memo) = counted(&ALLOCATIONS, || {
            O::delta_rebase(incoming, committed, &mut memo, false)
        });
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

/// Bytes a fresh memo allocates to rebase `k` inserts over an empty
/// committed log, each op landing inside the last 60 units of one
/// inserted run that grows by one per op (`bench_merge`'s
/// `huge_child_split_fuse` log, before its base's last element).
fn tail_of_run_fold_bytes(k: usize) -> usize {
    let mut len = 64;
    let log: Vec<ListOp<u64>> = (0..k)
        .map(|j| {
            let at = len - 1 - (j * 13) % 60.min(len - 1);
            len += 1;
            ListOp::Insert(at, j as u64)
        })
        .collect();
    let mut memo = <ListOp<u64> as Operation>::Memo::default();
    let (rebased, bytes) = counted(&BYTES, || ListOp::delta_rebase(&log, &[], &mut memo, false));
    assert!(rebased.is_some(), "inserts are spans");
    bytes
}

/// An edit inside an inserted run copies what lies behind it in the run,
/// not the whole run: four times the ops, not sixteen times the bytes.
#[test]
#[cfg_attr(debug_assertions, ignore = "allocation counts are a release property")]
fn folding_inserts_into_one_long_run_allocates_linear_bytes() {
    let (short, long) = (
        tail_of_run_fold_bytes(16_384),
        tail_of_run_fold_bytes(65_536),
    );
    let growth = long as f64 / short as f64;
    assert!(
        growth <= 5.0,
        "16 384 -> 65 536 ops: {short} -> {long} bytes ({growth:.1}x)"
    );
}
