//! The merge memo's contract: siblings that rebase from what the merge
//! before them folded must be **observably indistinguishable** from the
//! uncached creation-order fold — bit-identical final state and
//! bit-identical `DeterminismAuditor` digest chains, with the full
//! telemetry plane installed, whatever the batch holds (an idle or a busy
//! parent, children that made no edit, span-inexpressible ops,
//! collapsed-gap pairs, dismissed children, huge logs).
//!
//! The uncached oracle is [`Seq`]: the same data behind a newtype whose
//! merges go into a fresh clone, which starts without a memo, so the same
//! program runs through the same runtime with no memo hit. Debug builds
//! also check every memo rebase against the uncached one (see
//! `Versioned::merge`); release builds rely on the comparisons here.
//!
//! The test names are the ones the staging engine's suite had: each
//! test still holds the case it was written for, now through the memo.
//!
//! The recorder slot is process-global, so every test serializes on one
//! mutex and uninstalls on exit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use spawn_merge::codec::DecodeError;
use spawn_merge::mergeable_struct;
use spawn_merge::obs::{
    self, DeterminismAuditor, FlightRecorder, Metrics, MetricsSnapshot, MultiRecorder, Recorder,
};
use spawn_merge::{
    run, run_with_pool, run_with_store, Disposition, Leaf, MCounter, MList, MMap, MText,
    MergeError, MergeStats, Mergeable, Persist, Pool, ReplayError, Store, StoreOptions,
};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize on the recorder slot and uninstall any recorder when the
/// test ends — even on panic, so one failure cannot cascade.
struct PlaneGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn serial() -> PlaneGuard {
    PlaneGuard(SERIAL.lock().unwrap_or_else(PoisonError::into_inner))
}

impl Drop for PlaneGuard {
    fn drop(&mut self) {
        obs::uninstall();
    }
}

/// The uncached oracle: `D`, merging into a fresh clone — which starts
/// without a merge memo — every time.
#[derive(Debug, Clone)]
struct Seq<D>(D);

impl<D: Mergeable> Mergeable for Seq<D> {
    fn fork(&self) -> Self {
        Seq(self.0.fork())
    }

    fn pristine(&self) -> Self {
        Seq(self.0.pristine())
    }

    fn merge_into(&mut self, child: &Self, stats: &mut MergeStats) -> Result<(), MergeError> {
        let mut fresh = self.0.clone();
        fresh.merge_into(&child.0, stats)?;
        self.0 = fresh;
        Ok(())
    }

    fn pending_ops(&self) -> usize {
        self.0.pending_ops()
    }

    fn history_marks(&self, out: &mut Vec<usize>) {
        self.0.history_marks(out)
    }

    fn fork_marks(&self, out: &mut Vec<usize>) {
        self.0.fork_marks(out)
    }

    fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
        self.0.truncate_history(watermark, cursor)
    }

    fn rollback_to(&mut self, fork: &Self) {
        self.0.rollback_to(&fork.0)
    }
}

impl<D: Persist> Persist for Seq<D> {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.0.encode_state(buf)
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        D::decode_state(buf).map(Seq)
    }

    fn encode_log(&self, buf: &mut BytesMut) {
        self.0.encode_log(buf)
    }

    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
        self.0.apply_log(buf)
    }

    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
        let mut fresh = self.0.clone();
        let stats = fresh.merge_log(&base.0, buf)?;
        self.0 = fresh;
        Ok(stats)
    }

    fn seal_history(&self) {
        self.0.seal_history()
    }

    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize {
        self.0.encode_committed_since(marks, cursor, buf)
    }
}

/// Lets one program body run on `D` and on `Seq<D>` (oracle).
trait Host<D>: Mergeable {
    fn host(data: D) -> Self;
    fn d(&self) -> &D;
    fn d_mut(&mut self) -> &mut D;
}

impl<D: Mergeable> Host<D> for D {
    fn host(data: D) -> Self {
        data
    }
    fn d(&self) -> &D {
        self
    }
    fn d_mut(&mut self) -> &mut D {
        self
    }
}

impl<D: Mergeable> Host<D> for Seq<D> {
    fn host(data: D) -> Self {
        Seq(data)
    }
    fn d(&self) -> &D {
        &self.0
    }
    fn d_mut(&mut self) -> &mut D {
        &mut self.0
    }
}

/// What the telemetry plane saw of one run.
struct Seen {
    snap: MetricsSnapshot,
    digest: u64,
}

impl Seen {
    /// Merges that continued from a memo.
    fn hits(&self) -> u64 {
        self.snap.merge_memo_hits
    }
}

/// Install the full telemetry plane (metrics + flight recorder + a fresh
/// auditor), run `f`, uninstall.
fn with_plane<T>(f: impl FnOnce() -> T) -> (T, Seen) {
    let metrics = Arc::new(Metrics::new());
    let auditor = Arc::new(DeterminismAuditor::new());
    let flight = Arc::new(FlightRecorder::new(4096));
    let sinks: Vec<Arc<dyn Recorder>> = vec![metrics.clone(), flight, auditor.clone()];
    obs::install(Arc::new(MultiRecorder::new(sinks)));
    let out = f();
    obs::uninstall();
    let seen = Seen {
        snap: metrics.snapshot(),
        digest: auditor.digest(),
    };
    (out, seen)
}

/// Run the oracle instantiation and the plain one under the plane and
/// assert state, digest and grid-rebase equality; returns the common
/// output and what the plain run showed.
fn assert_matches_seq<T: PartialEq + std::fmt::Debug>(
    oracle: impl FnOnce() -> T,
    plain: impl FnOnce() -> T,
) -> (T, Seen) {
    let (seq_out, seq) = with_plane(oracle);
    let (out, seen) = with_plane(plain);
    assert_eq!(seq.hits(), 0, "the oracle must never reuse a memo");
    assert_eq!(seq_out, out, "state diverged from the uncached fold");
    assert_eq!(
        seq.digest, seen.digest,
        "digest diverged from the uncached fold"
    );
    assert_eq!(
        seq.snap.rebases_grid_total, seen.snap.rebases_grid_total,
        "the memo sent a different set of rebases to the grid"
    );
    (out, seen)
}

/// One scripted child mutation. A `Set` is span-inexpressible: a child
/// carrying one, and every sibling merged over its run, takes the grid,
/// so scripts sweep the grid fallback as well as the memo.
#[derive(Debug, Clone)]
enum Cmd {
    Push(u8),
    Insert(usize, u8),
    Remove(usize),
    Set(usize, u8),
}

/// Apply a script; with `sets` off a `Set` lands as an `Insert`, so the
/// batch stays span-expressible.
fn apply(list: &mut MList<u8>, cmds: &[Cmd], sets: bool) {
    for c in cmds {
        match *c {
            Cmd::Push(v) => list.push(v),
            Cmd::Insert(i, v) => list.insert(i % (list.len() + 1), v),
            Cmd::Remove(i) => {
                if !list.is_empty() {
                    list.remove(i % list.len());
                }
            }
            Cmd::Set(i, v) if sets && !list.is_empty() => list.set(i % list.len(), v),
            Cmd::Set(i, v) => list.insert(i % (list.len() + 1), v),
        }
    }
}

fn scripts() -> impl Strategy<Value = Vec<Vec<Cmd>>> {
    prop::collection::vec(
        prop::collection::vec(
            prop_oneof![
                any::<u8>().prop_map(Cmd::Push),
                any::<u8>().prop_map(Cmd::Push),
                (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Cmd::Insert(i, v)),
                any::<usize>().prop_map(Cmd::Remove),
                (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Cmd::Set(i, v)),
            ],
            0..8,
        ),
        2..20,
    )
}

/// One fan-out program: each script drives one child (an empty script is
/// a child that makes no edit), the parent edits too unless `idle`, then
/// merges all.
fn run_fanout<W: Host<MList<u8>>>(scripts: &[Vec<Cmd>], sets: bool, idle: bool) -> Vec<u8> {
    let scripts = scripts.to_vec();
    let (list, ()) = run(W::host(MList::from_iter([1u8, 2, 3])), move |ctx| {
        for s in scripts {
            ctx.spawn(move |c| {
                apply(c.data_mut().d_mut(), &s, sets);
                Ok(())
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        if !idle {
            ctx.data_mut().d_mut().push(99);
        }
        ctx.merge_all();
    });
    list.d().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential sweep: arbitrary op mixes and fan-outs from two
    /// children up, idle and busy parents, oracle vs plain, telemetry
    /// plane installed — final state and digest chains must be
    /// bit-identical.
    #[test]
    fn staged_merge_all_is_digest_identical_to_sequential(
        fan in scripts(),
        sets in any::<bool>(),
        idle in any::<bool>(),
    ) {
        let guard = serial();
        let (seq_state, seq) = with_plane(|| run_fanout::<Seq<MList<u8>>>(&fan, sets, idle));
        let (state, seen) = with_plane(|| run_fanout::<MList<u8>>(&fan, sets, idle));
        drop(guard);
        prop_assert_eq!(seq_state, state);
        prop_assert_eq!(seq.digest, seen.digest);
        prop_assert_eq!(seq.snap.rebases_grid_total, seen.snap.rebases_grid_total);
    }
}

/// A large insert-only fan-out under a busy parent: the first child
/// builds the memo, every later one continues from it (the memo-hit
/// counter proves it), and the digest is the uncached one.
#[test]
fn large_fanout_stages_and_matches_sequential_digest() {
    fn program<W: Host<MList<u32>>>() -> Vec<u32> {
        let (list, ()) = run(W::host(MList::new()), |ctx| {
            for i in 0..32u32 {
                ctx.spawn(move |c| {
                    for j in 0..8 {
                        c.data_mut().d_mut().push(i * 100 + j);
                    }
                    Ok(())
                });
            }
            ctx.data_mut().d_mut().push(u32::MAX);
            ctx.merge_all();
        });
        list.d().to_vec()
    }
    let _guard = serial();
    let (_, seen) = assert_matches_seq(program::<Seq<MList<u32>>>, program::<MList<u32>>);
    assert_eq!(seen.hits(), 31, "every child after the first");
}

/// What the parent does between the spawns and the `merge_all`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ParentWork {
    /// Nothing — the paper's *spawn, let the children work, `MergeAll`*:
    /// the committed slice is empty when the first child merges.
    Idle,
    /// One committed op.
    Push,
    /// Insert an element, fork (the fuse barrier keeps the two ops
    /// apart), delete it again: a non-empty slice that composes to the
    /// identity.
    InsertThenDelete,
}

impl ParentWork {
    fn run(self, list: &mut MList<u32>) {
        match self {
            ParentWork::Idle => {}
            ParentWork::Push => list.push(u32::MAX),
            ParentWork::InsertThenDelete => {
                list.insert(0, 4242);
                let _barrier = list.fork();
                list.remove(0);
                assert_eq!(list.pending_ops(), 2, "the barrier kept both ops");
            }
        }
    }
}

/// A child's rebase counts, as its `MergeStats` report them.
type Rebases = (usize, usize);

/// One fan-out through the runtime: child `i` of `n` runs
/// `edit`, the parent does `work`, then merges under `cond`. Returns the
/// merged list and every merged child's (delta, grid) rebase counts.
fn run_batch<W: Host<MList<u32>>>(
    n: u32,
    edit: fn(u32, &mut MList<u32>),
    work: ParentWork,
    cond: fn(&MList<u32>) -> bool,
) -> (Vec<u32>, Vec<Rebases>) {
    let (list, report) = run(W::host(MList::from_iter(0..16u32)), move |ctx| {
        for i in 0..n {
            ctx.spawn(move |c| {
                edit(i, c.data_mut().d_mut());
                Ok(())
            });
        }
        work.run(ctx.data_mut().d_mut());
        ctx.merge_all_with(&|d: &W| cond(d.d()))
    });
    let rebases = report.children.iter().filter_map(|c| match &c.disposition {
        Disposition::Merged(stats) => Some((stats.delta_rebases, stats.grid_rebases)),
        _ => None,
    });
    (list.d().to_vec(), rebases.collect())
}

/// Run [`run_batch`] on the oracle and on the plain list: state, rebase
/// counts and digest must agree, and the plain run must have continued
/// from the memo `hits` times.
fn assert_batch_hits(
    n: u32,
    edit: fn(u32, &mut MList<u32>),
    work: ParentWork,
    cond: fn(&MList<u32>) -> bool,
    hits: u64,
) -> Vec<Rebases> {
    let _guard = serial();
    let ((_, rebases), seen) = assert_matches_seq(
        || run_batch::<Seq<MList<u32>>>(n, edit, work, cond),
        || run_batch::<MList<u32>>(n, edit, work, cond),
    );
    assert_eq!(seen.hits(), hits, "{n} children, parent {work:?}");
    rebases
}

/// A child edit that lands in the child's own corner of the list.
fn scattered_edit(i: u32, list: &mut MList<u32>) {
    list.insert(i as usize % 16, 100 + i);
    list.push(200 + i);
    if i.is_multiple_of(3) {
        list.remove(i as usize % 8);
    }
}

/// The paper's shape — no parent op between the spawns and `merge_all`:
/// the first child is the kernel's trivial merge (it rebases nothing and
/// counts no rebase), the second builds the memo from the first one's run, and
/// from the third editor on every child continues from it.
#[test]
fn idle_parent_batch_stages_exactly_once() {
    let rebases = assert_batch_hits(12, scattered_edit, ParentWork::Idle, |_| true, 10);
    let mut want = vec![(1, 0); 12];
    want[0] = (0, 0);
    assert_eq!(rebases, want);
}

/// Children that made no edit return before the memo is looked at,
/// wherever they sit in the batch — first (the slice stays empty behind
/// it), in the middle, or behind a grown memo — and leave it to the next
/// sibling, under an idle and under a busy parent.
#[test]
fn children_without_edits_are_identity_members() {
    fn edit(i: u32, list: &mut MList<u32>) {
        if ![0, 3, 7].contains(&i) {
            scattered_edit(i, list);
        }
    }
    for work in [ParentWork::Idle, ParentWork::Push] {
        // Nine editors: the first trivial under an idle parent, then one
        // build, and the rest continue.
        let hits = if work == ParentWork::Idle { 7 } else { 8 };
        let rebases = assert_batch_hits(12, edit, work, |_| true, hits);
        let trivial = |i: usize| [0, 3, 7].contains(&i) || (work == ParentWork::Idle && i == 1);
        let want: Vec<Rebases> = (0..12)
            .map(|i| if trivial(i) { (0, 0) } else { (1, 0) })
            .collect();
        assert_eq!(rebases, want, "parent {work:?}");
    }
}

/// A pair and a triple of siblings have no batch floor to clear: the
/// memo serves their third editor, counting a busy parent's own edit.
#[test]
fn two_and_three_child_fan_outs_fold_plainly_through_the_runtime() {
    for (n, work, hits) in [
        (2, ParentWork::Idle, 0),
        (2, ParentWork::Push, 1),
        (3, ParentWork::Idle, 1),
        (3, ParentWork::Push, 2),
    ] {
        assert_batch_hits(n, scattered_edit, work, |_| true, hits);
    }
}

/// A committed slice that inserts an element and deletes it again folds
/// to the identity, but the slice is not empty: the kernel rebases every
/// child over it on the delta path, the first one included, and the rest
/// continue from the memo.
#[test]
fn identity_composite_over_a_non_empty_slice_rebases_on_the_delta_path() {
    let work = ParentWork::InsertThenDelete;
    let rebases = assert_batch_hits(10, scattered_edit, work, |_| true, 9);
    assert_eq!(rebases, vec![(1, 0); 10]);
}

/// Under an idle parent the first child is the trivial merge whatever its
/// log holds (no rebase); a span-inexpressible `Set` in it lands in the
/// slice every later sibling rebases over, so they all take the grid and
/// no memo is ever built.
#[test]
fn set_in_the_first_child_of_an_idle_parent_poisons_behind_it() {
    fn edit(i: u32, list: &mut MList<u32>) {
        scattered_edit(i, list);
        if i == 0 {
            list.set(2, 7777);
        }
    }
    let _guard = serial();
    let ((_, rebases), seen) = assert_matches_seq(
        || run_batch::<Seq<MList<u32>>>(9, edit, ParentWork::Idle, |_| true),
        || run_batch::<MList<u32>>(9, edit, ParentWork::Idle, |_| true),
    );
    let mut want = vec![(0, 1); 9];
    want[0] = (0, 0);
    assert_eq!(rebases, want);
    assert_eq!(seen.hits(), 0);
}

/// A condition that dismisses the first child of an idle-parent batch
/// leaves the slice empty: the second child is the trivial merge.
#[test]
fn dismissed_first_child_of_an_idle_parent_hands_identity_on() {
    let cond = |d: &MList<u32>| !d.to_vec().contains(&200);
    let rebases = assert_batch_hits(8, scattered_edit, ParentWork::Idle, cond, 5);
    let mut want = vec![(1, 0); 7];
    want[0] = (0, 0);
    assert_eq!(rebases, want, "child 0 dismissed, child 1 trivial");
}

/// Fork `n` children off `parent`, edit each, then let the parent do
/// `work`.
fn forked(
    parent: &mut MList<u32>,
    n: u32,
    work: ParentWork,
    edit: impl Fn(u32, &mut MList<u32>),
) -> Vec<MList<u32>> {
    let kids = (0..n)
        .map(|i| {
            let mut kid = parent.fork();
            edit(i, &mut kid);
            kid
        })
        .collect();
    work.run(parent);
    kids
}

/// Merge `kids` — all but those at the `skip` indices — into copies of
/// `parent` one after another, by plain `merge` and by the uncached
/// oracle: state, log and per-child stats must be equal (but for the memo
/// hits the oracle never takes). Returns the memo hits of the plain fold.
fn assert_memo_matches_uncached(parent: &MList<u32>, kids: &[MList<u32>], skip: &[usize]) -> usize {
    // No recorder installed: stats then carry no wall-clock nanos.
    let _guard = serial();
    let fed = || kids.iter().enumerate().filter(|(i, _)| !skip.contains(i));
    let mut want = Seq(parent.clone());
    let want_stats: Vec<MergeStats> = fed()
        .map(|(_, k)| want.merge(&Seq(k.clone())).unwrap())
        .collect();

    let mut got = parent.clone();
    let mut hits = 0;
    let stats: Vec<MergeStats> = fed()
        .map(|(_, k)| {
            let mut stats = got.merge(k).unwrap();
            hits += stats.memo_hits;
            stats.memo_hits = 0;
            stats
        })
        .collect();

    let what = format!("skip={skip:?}");
    assert_eq!(got.to_vec(), want.0.to_vec(), "{what}: state");
    assert_eq!(got.log(), want.0.log(), "{what}: runs");
    assert_eq!(stats, want_stats, "{what}: stats");
    hits
}

/// Merge determinism under pool warmth: the same program on pools of
/// different warmth must produce the oracle's digest chain — and the memo
/// submits no pool job, so the pool runs exactly the child tasks.
#[test]
fn digest_is_identical_across_pool_warmth() {
    type Data = (MList<u8>, MCounter);
    fn program<W: Host<Data>>(warm: usize) -> (Vec<u8>, i64, u64) {
        let pool = Pool::new();
        for _ in 0..warm {
            pool.execute(|| {});
        }
        let init = W::host((MList::new(), MCounter::new(0)));
        let (data, ()) = run_with_pool(init, pool.clone(), |ctx| {
            for i in 0..12u8 {
                ctx.spawn(move |c| {
                    c.data_mut().d_mut().0.push(i);
                    c.data_mut().d_mut().1.add(i64::from(i));
                    Ok(())
                });
            }
            ctx.data_mut().d_mut().0.push(u8::MAX);
            ctx.merge_all();
        });
        let child_jobs = pool.stats().jobs_executed - warm as u64;
        (data.d().0.to_vec(), data.d().1.get(), child_jobs)
    }
    let _guard = serial();
    for warm in [0, 16] {
        let ((_, _, child_jobs), seen) =
            assert_matches_seq(|| program::<Seq<Data>>(0), || program::<Data>(warm));
        assert_eq!(seen.hits(), 11, "the list, from the second child on");
        assert_eq!(child_jobs, 12, "the memo submits no pool job");
    }
}

/// Seam level, a batch merged child by child against the uncached fold of
/// the same children — state, log and per-child `MergeStats`: the whole
/// mixed batch of twelve; child `k` carrying a span-inexpressible `Set`
/// at the first, a middle and the last position (the memo is dropped at
/// `k`, and the children behind it rebase over a slice with a `Set` in
/// it); children 3 and 7 never merged — what a merge condition's
/// dismissal amounts to; the shapes around the trivial merge: an idle
/// parent (where a `Set` in child 0 lands in every later slice), children
/// 0, 3 and 7 without an edit, and an insert-then-delete slice; and the
/// smallest batches there are, a pair and a triple.
#[test]
fn stage_commits_match_the_merge_fold_at_the_seam() {
    use ParentWork::{Idle, InsertThenDelete, Push};
    struct Case {
        children: u32,
        work: ParentWork,
        /// The child carrying a `Set`.
        set_at: Option<u32>,
        /// Children never merged.
        skip: &'static [usize],
        /// Children 0, 3 and 7 make no edit.
        idlers: bool,
        /// Merges that continue from the memo.
        hits: usize,
    }
    let case = |work, set_at, skip, hits| Case {
        children: 12,
        work,
        set_at,
        skip,
        idlers: false,
        hits,
    };
    let cases = [
        case(Push, None, &[], 11),
        case(Push, Some(0), &[], 0),
        case(Push, Some(5), &[], 4),
        case(Push, Some(11), &[], 10),
        case(Push, None, &[3, 7], 9),
        case(Idle, None, &[], 10),
        case(Idle, Some(0), &[], 0),
        case(Idle, None, &[0, 3], 8),
        case(InsertThenDelete, None, &[], 11),
        Case {
            idlers: true,
            ..case(Idle, None, &[], 7)
        },
        Case {
            idlers: true,
            ..case(Push, None, &[], 8)
        },
        Case {
            children: 2,
            ..case(Idle, None, &[], 0)
        },
        Case {
            children: 2,
            ..case(Push, None, &[], 1)
        },
        Case {
            children: 3,
            ..case(Idle, None, &[], 1)
        },
        Case {
            children: 3,
            ..case(Push, None, &[], 2)
        },
    ];
    for c in cases {
        let mut parent = MList::from_iter(0..16u32);
        let kids = forked(&mut parent, c.children, c.work, |i, kid| {
            if c.idlers && [0, 3, 7].contains(&i) {
                return;
            }
            kid.insert(i as usize, 100 + i);
            if i % 3 == 0 {
                kid.remove(i as usize + 2);
            }
            if c.set_at == Some(i) {
                kid.set(0, 7777);
            }
        });
        let hits = assert_memo_matches_uncached(&parent, &kids, c.skip);
        assert_eq!(hits, c.hits, "{} children, {:?}", c.children, c.work);
    }
}

/// A run that coalesces into the span before the point a memo rebase
/// starts from. Child 1's insert ends in a span of its own, right in
/// front of the delete child 0 left; child 2's insert lands at that
/// delete too and coalesces into child 1's span. A start point that had
/// counted that span as skipped is one output unit short from then on:
/// child 3 once came out as `[Insert(4, 103), Delete(6)]` against the
/// sequential `[Insert(5, 103), Delete(7)]`.
#[test]
fn a_run_coalescing_into_the_span_before_its_cut_keeps_the_finger_exact() {
    for work in [ParentWork::Idle, ParentWork::Push] {
        let mut parent = MList::from_iter(0..16u32);
        let kids = forked(&mut parent, 4, work, |i, kid| {
            kid.insert(i as usize, 100 + i);
            if i % 3 == 0 {
                kid.remove(i as usize + 2);
            }
        });
        assert_memo_matches_uncached(&parent, &kids, &[]);
    }
}

/// One child edit of a lead-order batch, at an absolute position.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(usize, u32),
    Remove(usize),
    Set(usize, u32),
}

fn play(list: &mut MList<u32>, script: &[Edit]) {
    for edit in script {
        match *edit {
            Edit::Insert(at, v) => list.insert(at, v),
            Edit::Remove(at) => {
                list.remove(at);
            }
            Edit::Set(at, v) => list.set(at, v),
        }
    }
}

/// What a lead-order batch holds besides its twelve editing children.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    Nothing,
    /// Children 0, 3 and 7 make no edit: identity members.
    Idlers,
    /// Child 5 is dismissed — by the merge condition through the runtime,
    /// never merged at the seam.
    Dismissed,
    /// Child 6 carries a span-inexpressible `Set`: the grid from there.
    Set,
    /// Child 4 commits the committed half of the collapsed-gap fixture
    /// in `sm_ot::delta`, child 8 brings the incoming half to the same
    /// block: a pair the grid orders by log sequencing, which child 8
    /// rebases on the memo like any other.
    CollapsedGap,
}

/// The scripts of a twelve-child batch over a 64-element list, child `i`
/// making its first edit at `leads[i]`: two inserts, and — when the
/// blocks are `apart` — a delete in every third child. Each block leaves
/// its first two elements alone, so blocks that are apart stay apart.
fn lead_scripts(leads: &[usize; 12], apart: bool, extra: Extra) -> Vec<Vec<Edit>> {
    use Edit::{Insert, Remove, Set};
    (0..12)
        .map(|i| {
            let (p, v) = (leads[i], 100 + i as u32);
            match extra {
                Extra::Idlers if [0, 3, 7].contains(&i) => vec![],
                Extra::CollapsedGap if i == 4 => {
                    vec![Remove(p + 1), Insert(p + 2, v), Remove(p + 1)]
                }
                Extra::CollapsedGap if i == 8 => {
                    let p = leads[4];
                    vec![Remove(p + 2), Insert(p + 1, v)]
                }
                _ => {
                    let mut script = vec![Insert(p, v), Insert(p + 2, 100 + v)];
                    if apart && i % 3 == 0 {
                        script.push(Remove(p + 1));
                    }
                    if extra == Extra::Set && i == 6 {
                        script.push(Set(p, 7777));
                    }
                    script
                }
            }
        })
        .collect()
}

/// A child's `MergeStats` with what differs by design between a memo and
/// an uncached merge — wall clock, and the memo hit — blanked.
fn comparable(stats: &MergeStats) -> MergeStats {
    MergeStats {
        memo_hits: 0,
        delta_nanos: 0,
        compact_nanos: 0,
        grid_nanos: 0,
        apply_nanos: 0,
        ..*stats
    }
}

/// One scripted fan-out through the runtime under a busy
/// parent; the child that inserted `dismiss` is dismissed by the merge
/// condition. Returns the merged list and every child's comparable
/// stats (`None` for a dismissed child).
fn run_scripts<W: Host<MList<u32>>>(
    scripts: &[Vec<Edit>],
    dismiss: Option<u32>,
) -> (Vec<u32>, Vec<Option<MergeStats>>) {
    let scripts = scripts.to_vec();
    let (list, report) = run(W::host(MList::from_iter(0..64u32)), move |ctx| {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let n = scripts.len();
        for script in scripts {
            let done_tx = done_tx.clone();
            ctx.spawn(move |c| {
                play(c.data_mut().d_mut(), &script);
                let _ = done_tx.send(());
                Ok(())
            });
        }
        for _ in 0..n {
            done_rx.recv().unwrap();
        }
        ParentWork::Push.run(ctx.data_mut().d_mut());
        ctx.merge_all_with(&|d: &W| dismiss.is_none_or(|v| !d.d().to_vec().contains(&v)))
    });
    let stats = report.children.iter().map(|c| match &c.disposition {
        Disposition::Merged(stats) => Some(comparable(stats)),
        _ => None,
    });
    (list.d().to_vec(), stats.collect())
}

/// Where a memo rebase starts its sweep follows the children's first
/// edits, so the order those come in is an input of its own: ascending,
/// descending, shuffled, and every child at one position (every run
/// ties with the ones before it) — each with identity members, a
/// dismissed child, a `Set` and a collapsed-gap pair in mid-batch. At
/// the seam the batch equals the uncached fold in state, log and
/// per-child `MergeStats`, under an idle and a busy parent; through the
/// runtime it equals the `Seq` oracle in state, per-child stats, grid
/// rebases and auditor digest.
#[test]
fn lead_orders_ascending_descending_shuffled_and_repeated_match_sequential() {
    let block = |slot: usize| 2 + 5 * slot;
    let orders: [(&str, [usize; 12], bool); 4] = [
        ("ascending", std::array::from_fn(block), true),
        ("descending", std::array::from_fn(|i| block(11 - i)), true),
        (
            "shuffled",
            [7, 2, 11, 0, 5, 9, 3, 10, 1, 8, 4, 6].map(block),
            true,
        ),
        ("repeated", [block(4); 12], false),
    ];
    let extras = [
        Extra::Nothing,
        Extra::Idlers,
        Extra::Dismissed,
        Extra::Set,
        Extra::CollapsedGap,
    ];
    for (name, leads, apart) in &orders {
        for extra in extras {
            // Two halves of the fixture in one place need the rest of
            // the batch somewhere else.
            if extra == Extra::CollapsedGap && !apart {
                continue;
            }
            let scripts = lead_scripts(leads, *apart, extra);
            let skip: &[usize] = if extra == Extra::Dismissed { &[5] } else { &[] };
            for work in [ParentWork::Idle, ParentWork::Push] {
                let mut parent = MList::from_iter(0..64u32);
                let kids = forked(&mut parent, 12, work, |i, kid| {
                    play(kid, &scripts[i as usize])
                });
                assert_memo_matches_uncached(&parent, &kids, skip);
            }

            let _guard = serial();
            let dismiss = (extra == Extra::Dismissed).then_some(105);
            let ((_, stats), seen) = assert_matches_seq(
                || run_scripts::<Seq<MList<u32>>>(&scripts, dismiss),
                || run_scripts::<MList<u32>>(&scripts, dismiss),
            );
            let merged = stats.iter().flatten().count();
            assert_eq!(merged, 12 - skip.len(), "{name} {extra:?}");
            assert!(seen.hits() > 0, "{name} {extra:?}");
            if extra == Extra::CollapsedGap {
                let incoming_half = stats[8].expect("child 8 merges");
                assert_eq!(
                    (incoming_half.delta_rebases, incoming_half.grid_rebases),
                    (1, 0),
                    "{name}"
                );
            }
        }
    }
}

/// An element whose clones are counted.
#[derive(Debug, PartialEq)]
struct Counted(u32);

static ELEMENT_CLONES: AtomicUsize = AtomicUsize::new(0);

impl Clone for Counted {
    fn clone(&self) -> Self {
        ELEMENT_CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

/// A memo merge costs what its child holds, not what the composite has
/// grown to: `n` children in ascending blocks, `k` scattered inserts
/// each, clone at most `c·n·k` elements for one `c` at both widths. A
/// merge that refolded the committed slice, or walked the composite and
/// cloned its insert payloads, cloned about `n²·k`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug oracle refolds the whole committed slice at every memo merge"
)]
fn memo_merges_clone_elements_linearly_in_the_batch() {
    const K: usize = 8;
    const BLOCK: usize = 2 * K;
    const C: usize = 12;
    let _guard = serial();
    for n in [32, 128] {
        let mut parent = MList::from_iter((0..n * BLOCK).map(|v| Counted(v as u32)));
        let kids: Vec<MList<Counted>> = (0..n)
            .map(|i| {
                let mut kid = parent.fork();
                for j in 0..K {
                    // Strided slots of the child's own block, never its
                    // first element: nothing fuses at record time.
                    kid.insert(i * BLOCK + 1 + (j * 3) % K, Counted((i * K + j) as u32));
                }
                kid
            })
            .collect();
        ELEMENT_CLONES.store(0, Ordering::Relaxed);
        let mut hits = 0;
        for kid in &kids {
            hits += parent.merge(kid).unwrap().memo_hits;
        }
        assert_eq!(hits, n - 2, "from the third editor on");
        let clones = ELEMENT_CLONES.load(Ordering::Relaxed);
        assert_eq!(parent.len(), n * (BLOCK + K));
        assert!(
            clones <= C * n * K,
            "{n} children x {K} inserts cloned {clones} elements, more than {C} per insert"
        );
    }
}

/// Regression: a duplicated handle in `merge_all_from_set` must count
/// once — before the dedup fix the second occurrence waited forever for
/// a second event from a child that only ever sends one.
#[test]
fn merge_all_from_set_dedups_duplicate_handles() {
    let _guard = serial();
    let (list, reports) = run(MList::<u32>::new(), |ctx| {
        let a = ctx.spawn(|c| {
            c.data_mut().push(1);
            Ok(())
        });
        let b = ctx.spawn(|c| {
            c.data_mut().push(2);
            Ok(())
        });
        let report = ctx.merge_all_from_set(&[&a, &a, &b, &a]);
        let again = ctx.merge_all_from_set(&[&a, &b]);
        (report, again)
    });
    let (report, again) = reports;
    assert_eq!(
        report.children.len(),
        2,
        "each duplicated handle merges exactly once"
    );
    assert!(report.all_merged());
    assert_eq!(report.completed_count(), 2);
    assert!(
        again.children.is_empty(),
        "retired children are skipped on the next call"
    );
    assert_eq!(
        list.to_vec(),
        vec![1, 2],
        "argument order is the merge order"
    );
}

/// A fan-out whose children mix inserts and deletes reuses the memo and
/// stays digest-identical to the uncached fold.
#[test]
fn mixed_delete_fanout_stages_and_matches_sequential_digest() {
    fn program<W: Host<MList<u32>>>() -> Vec<u32> {
        let (list, ()) = run(W::host(MList::from_iter(0..32u32)), |ctx| {
            for i in 0..24u32 {
                ctx.spawn(move |c| {
                    let list = c.data_mut().d_mut();
                    for j in 0..6 {
                        let at = ((i * 7 + j * 13) as usize) % (list.len() + 1);
                        list.insert(at, i * 100 + j);
                    }
                    // Every third child also deletes.
                    if i % 3 == 0 {
                        list.remove((i as usize * 5) % list.len());
                    }
                    Ok(())
                });
            }
            ctx.data_mut().d_mut().push(u32::MAX);
            ctx.merge_all();
        });
        list.d().to_vec()
    }
    let _guard = serial();
    let (_, seen) = assert_matches_seq(program::<Seq<MList<u32>>>, program::<MList<u32>>);
    assert!(seen.hits() > 0);
}

/// The runtime mirror of the collapsed-gap fixture in `sm_ot::delta` —
/// a committed delete closes the gap between an incoming insert and a
/// later committed insert, the one pair the grid orders by log
/// sequencing. That child rebases on the memo like its siblings, no
/// rebase reaches the grid, and the digest chain stays bit-identical.
#[test]
fn collapsed_gap_mixed_batch_stays_on_the_memo_and_matches_sequential() {
    fn program<W: Host<MText>>() -> String {
        let (text, ()) = run(W::host(MText::from("abcd")), |ctx| {
            // Child 0 commits first: delete, insert "XY", delete — the
            // committed side of the collapsed-gap fixture.
            ctx.spawn(|c| {
                let text = c.data_mut().d_mut();
                text.delete_range(1, 1);
                text.insert_str(2, "XY");
                text.delete_range(1, 1);
                Ok(())
            });
            // Child 1's delta (delete at 2, insert "q" at 1) meets child
            // 0's insert across the gap both deleted.
            ctx.spawn(|c| {
                let text = c.data_mut().d_mut();
                text.delete_range(2, 1);
                text.insert_str(1, "q");
                Ok(())
            });
            // Bystanders appending at the far end continue from the
            // memo too.
            for i in 0..6 {
                ctx.spawn(move |c| {
                    let text = c.data_mut().d_mut();
                    text.insert_str(text.char_len(), format!("<{i}>"));
                    Ok(())
                });
            }
            // Parent edit far to the right keeps the committed slice
            // non-empty without disturbing the low-position collision.
            let end = ctx.data().d().char_len();
            ctx.data_mut().d_mut().insert_str(end, "Z");
            ctx.merge_all();
        });
        text.d().to_string()
    }
    let _guard = serial();
    let (text, seen) = assert_matches_seq(program::<Seq<MText>>, program::<MText>);
    assert!(text.starts_with("aqXYd"), "position order: {text}");
    assert_eq!(
        seen.snap.rebases_grid_total, 0,
        "no rebase reaches the grid"
    );
    assert_eq!(seen.hits(), 7, "children 1 to 7");
}

/// A conditional `merge_all_with` batch: dismissed children are never
/// merged and leave the memo to the next sibling, and the committed
/// outcome — state, rejected set, and digest chain — is exactly the
/// uncached one.
#[test]
fn conditional_merge_all_stages_once_and_matches_sequential() {
    fn program<W: Host<MList<u32>>>() -> (Vec<u32>, usize) {
        let (list, report) = run(W::host(MList::from_iter([1u32, 2, 3])), |ctx| {
            for i in 0..24u32 {
                ctx.spawn(move |c| {
                    for j in 0..4 {
                        c.data_mut().d_mut().push(i * 10 + j);
                    }
                    Ok(())
                });
            }
            ctx.data_mut().d_mut().push(500);
            // Deterministic on the child's own data: rejects roughly a
            // third of the children, scattered through the batch.
            ctx.merge_all_with(&|d: &W| d.d().to_vec().iter().sum::<u32>() % 3 != 0)
        });
        (list.d().to_vec(), report.merged_count())
    }
    let _guard = serial();
    let ((_, merged), seen) = assert_matches_seq(program::<Seq<MList<u32>>>, program::<MList<u32>>);
    assert!(
        merged < 24,
        "the condition must actually reject some children for this test to bite"
    );
    assert_eq!(
        seen.hits(),
        merged as u64 - 1,
        "every merged child after the first"
    );
}

/// Run `body` journaled into a fresh store under `tag`, then reopen the
/// journal and check it replays to the live state (compared through
/// `view`). Returns that view.
fn journaled<W: Persist, V: PartialEq + std::fmt::Debug>(
    tag: &str,
    init: W,
    body: impl FnOnce(&mut spawn_merge::TaskCtx<W>),
    view: impl Fn(&W) -> V,
) -> V {
    let dir = std::env::temp_dir().join(format!("sm-parallel-merge-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let (live, ()) = run_with_store(init, Pool::new(), &store, body).unwrap();
    drop(store);
    let rec = Store::open(&dir, StoreOptions::default())
        .unwrap()
        .recover::<W>()
        .unwrap()
        .expect("journal exists");
    assert_eq!(
        view(&rec.data),
        view(&live),
        "{tag}: journal replay differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
    view(&live)
}

/// A durable `CommitSink` does not cost the memo: it seals the history
/// after every commit, which moves the fuse barrier but not the log, so
/// the siblings behind keep continuing from it; the digest chain matches
/// the uncached run, and recovery replays both journals to the same
/// state.
#[test]
fn staged_merge_coexists_with_store_sink_and_recovers() {
    fn program<W: Host<MList<u32>> + Persist>(tag: &str) -> Vec<u32> {
        journaled(
            tag,
            W::host(MList::new()),
            |ctx| {
                for i in 0..16u32 {
                    ctx.spawn(move |c| {
                        let list = c.data_mut().d_mut();
                        for j in 0..6 {
                            list.push(i * 10 + j);
                        }
                        if i % 4 == 0 {
                            list.remove(list.len() - 1);
                        }
                        Ok(())
                    });
                }
                ctx.data_mut().d_mut().push(9999);
                ctx.merge_all();
            },
            |w| w.d().to_vec(),
        )
    }
    let _guard = serial();
    let (_, seen) = assert_matches_seq(
        || program::<Seq<MList<u32>>>("seq"),
        || program::<MList<u32>>("memo"),
    );
    assert_eq!(seen.hits(), 15);
}

mergeable_struct! {
    /// A sequence field beside two fields with no memo.
    #[derive(Debug, Clone)]
    struct Board {
        items: MList<u32>,
        hits: MCounter,
        tags: MMap<u8, u32>,
    }
}

impl Persist for Board {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.items.encode_state(buf);
        self.hits.encode_state(buf);
        self.tags.encode_state(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(Board {
            items: Persist::decode_state(buf)?,
            hits: Persist::decode_state(buf)?,
            tags: Persist::decode_state(buf)?,
        })
    }

    fn encode_log(&self, buf: &mut BytesMut) {
        self.items.encode_log(buf);
        self.hits.encode_log(buf);
        self.tags.encode_log(buf);
    }

    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
        Ok(self.items.apply_log(buf)? + self.hits.apply_log(buf)? + self.tags.apply_log(buf)?)
    }

    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
        let mut stats = self.items.merge_log(&base.items, buf)?;
        stats += self.hits.merge_log(&base.hits, buf)?;
        stats += self.tags.merge_log(&base.tags, buf)?;
        Ok(stats)
    }

    fn seal_history(&self) {
        self.items.seal_history();
        self.hits.seal_history();
        self.tags.seal_history();
    }

    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize {
        self.items.encode_committed_since(marks, cursor, buf)
            + self.hits.encode_committed_since(marks, cursor, buf)
            + self.tags.encode_committed_since(marks, cursor, buf)
    }
}

/// A composite under a `Store` sink where only the list keeps a memo: the
/// counter and the map merge beside it, between the sink's per-commit
/// seals, and state, digest and journal all match the uncached run.
#[test]
fn composite_stages_the_list_and_commits_other_fields_inline_under_a_sink() {
    type View = (Vec<u32>, i64, Vec<(u8, u32)>);
    fn program<W: Host<Board> + Persist>(tag: &str) -> View {
        let init = Board {
            items: MList::from_iter(0..8u32),
            hits: MCounter::new(0),
            tags: MMap::new(),
        };
        journaled(
            tag,
            W::host(init),
            |ctx| {
                for i in 0..12u32 {
                    ctx.spawn(move |c| {
                        let board = c.data_mut().d_mut();
                        board.items.insert(i as usize % 8, 100 + i);
                        board.items.push(200 + i);
                        board.hits.add(i64::from(i));
                        // Every key is written by three children: the
                        // last merged wins.
                        board.tags.insert((i % 4) as u8, i);
                        Ok(())
                    });
                }
                let board = ctx.data_mut().d_mut();
                board.items.push(u32::MAX);
                board.hits.add(1000);
                board.tags.insert(0, u32::MAX);
                ctx.merge_all();
            },
            |w| {
                let b = w.d();
                let tags = b.tags.iter().map(|(k, v)| (*k, *v)).collect();
                (b.items.to_vec(), b.hits.get(), tags)
            },
        )
    }
    let _guard = serial();
    let (_, seen) = assert_matches_seq(
        || program::<Seq<Board>>("board-seq"),
        || program::<Board>("board-memo"),
    );
    assert_eq!(seen.hits(), 11, "the list, from the second child on");
}

/// A composite with no sequence field keeps no memo: no hit, and not one
/// pool job beyond the children.
#[test]
fn all_declining_composite_emits_no_merge_staged() {
    fn program<W: Host<Vec<MCounter>>>() -> (Vec<i64>, u64) {
        let pool = Pool::new();
        let init = W::host((0..4).map(MCounter::new).collect());
        let (data, ()) = run_with_pool(init, pool.clone(), |ctx| {
            for i in 0..16usize {
                ctx.spawn(move |c| {
                    c.data_mut().d_mut()[i % 4].add(i as i64);
                    Ok(())
                });
            }
            ctx.data_mut().d_mut()[0].add(1000);
            ctx.merge_all();
        });
        let counts = data.d().iter().map(MCounter::get).collect();
        (counts, pool.stats().jobs_executed)
    }
    let _guard = serial();
    // Equal outputs include equal job counts.
    let (_, seen) = assert_matches_seq(program::<Seq<Vec<MCounter>>>, program::<Vec<MCounter>>);
    assert_eq!(seen.hits(), 0);
}

/// One huge child log, two inserted runs growing at their own ends,
/// folded by the memo must be indistinguishable from the straight fold:
/// state and digest against the oracle, through the runtime.
#[test]
fn huge_child_fold_matches_sequential_digest() {
    /// Thousands of ops in one child's log.
    const HUGE: u32 = 5_000;
    fn program<W: Host<MList<u32>>>() -> Vec<u32> {
        let (list, ()) = run(W::host(MList::from_iter(0..8u32)), |ctx| {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            for i in 0..8u32 {
                let done_tx = done_tx.clone();
                ctx.spawn(move |c| {
                    let list = c.data_mut().d_mut();
                    // Two runs growing at their own ends, alternately:
                    // consecutive ops never touch, so nothing fuses at
                    // record time and child 0's log really is `HUGE` ops
                    // long — in two spans that are cheap to fold.
                    for j in 0..if i == 0 { HUGE } else { 6 } {
                        let at = if j % 2 == 0 {
                            list.len()
                        } else {
                            4 + j as usize / 2
                        };
                        list.insert(at, i * 100_000 + j);
                    }
                    if i % 3 == 1 {
                        list.remove(i as usize / 3);
                    }
                    let _ = done_tx.send(());
                    Ok(())
                });
            }
            for _ in 0..8 {
                done_rx.recv().unwrap();
            }
            ctx.data_mut().d_mut().push(u32::MAX);
            ctx.merge_all();
        });
        list.d().to_vec()
    }
    let _guard = serial();
    let (_, seen) = assert_matches_seq(program::<Seq<MList<u32>>>, program::<MList<u32>>);
    assert_eq!(seen.hits(), 7);
}
