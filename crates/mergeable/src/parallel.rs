//! The merge-staging engine: off-thread rebasing that is **bit-identical**
//! to the sequential creation-order fold.
//!
//! # The seam
//!
//! [`Mergeable::stage_merge_all`](crate::Mergeable::stage_merge_all) turns
//! a batch of forked children into a [`StagedCommit`]: a hand-off object
//! whose workers pre-compute each child's rebased operation run on an
//! executor while the parent thread walks the children *in creation
//! order* committing run `0`, run `1`, … exactly as `merge` would have.
//! The commit path ([`Versioned::commit_staged`]) re-derives every field
//! the determinism auditor hashes (`child_ops`, `applied_ops`,
//! `committed_ops`, and the post-fusion `oplog_len`) from the live parent
//! log, so the observable event stream cannot diverge from the
//! sequential schedule by construction — and debug builds recompute the
//! sequential rebase at every commit and assert the staged run matches
//! operation for operation.
//!
//! # One plan
//!
//! A sequence log ([`stage_versioned_delta`]) stages when every child of
//! the batch has a non-empty span-expressible log, all share one fork
//! base inside the parent's retained history, and the parent committed
//! something since that fork. Everything else — other algebras, `Set`s,
//! mixed fork bases, an idle parent — has no stage (`None`): the caller
//! folds it with plain [`Mergeable::merge`] on the merging thread, and a
//! composite whose every field declines has no stage either.
//!
//! **Pass A** (parallel): the sibling logs split into [`StageCtx::lanes`]
//! chunks and each chunk folds its logs into normalized span-set deltas
//! over the fork-base coordinates. **The walk** (one coordinator, index
//! order) performs exactly the delta-level operations of the sequential
//! kernel: screen with [`Delta::rebase_is_order_sensitive`], transform
//! against the committed composite, emit the rebased run, compose it
//! into the composite. The committed composite therefore grows
//! *incrementally* instead of being refolded from the whole committed
//! log per child — that, not the threads, is what collapses the
//! sequential fold's O(n³) total work at high fan-out. The parent
//! commits the runs in creation order as they arrive.
//!
//! # Split/fuse for one huge log
//!
//! A single ≥[`StageCtx::split_min_ops`]-op log (one 10⁶-op child, or a
//! long committed slice) does not serialize its own fold: the staging
//! thread segments the log, ships each segment's fold to an executor
//! worker, and fuses the segment composites in order under the log's
//! [`GapBias`] — exact because composition under a fixed bias is
//! associative ([`sm_ot::delta::from_ops_chunked`] is the sequential
//! oracle for this plan).
//!
//! # The poison protocol
//!
//! The coordinator sends `(index, Option<StagedRun>)`; `None` marks a
//! member it could not stage exactly (order-sensitivity screen fire, or
//! a span-inexpressible op discovered mid-fold). Commits happen in index
//! order, and the first consumed `None` **poisons** the leaf: that child
//! and every later child in the batch commit through the plain
//! sequential `merge` (the exact kernel, grid fallback included). The
//! committed outcome is therefore always the sequential one — a staged
//! prefix that is bit-identical by construction, then a plainly merged
//! suffix. Fallbacks are counted in `MergeStats::screen_rejects`.
//!
//! Staging never blocks event collection and the parent commits in
//! creation order, so the schedule of observable effects is the
//! sequential one; only wall-clock (never hashed) differs.

use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

use sm_ot::delta::{from_ops_biased, Delta, DeltaOp, GapBias};
use sm_ot::Operation;

use crate::versioned::elapsed_nanos;
use crate::{MergeError, MergeStats, Mergeable, Versioned};

/// A unit of staging work shipped to the executor.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A clonable handle that runs staging jobs — in the runtime this wraps
/// the task pool's `execute`.
pub type ExecHandle = Arc<dyn Fn(Job) + Send + Sync>;

/// Everything the staging plan needs to know about its environment. The
/// runtime derives every field (pool, hardware parallelism, a constant,
/// recorder state); tests build one directly to drive the seam.
#[derive(Clone)]
pub struct StageCtx {
    /// Where staging jobs run.
    pub exec: ExecHandle,
    /// Target number of parallel pass-A chunks / split segments (≥ 1).
    pub lanes: usize,
    /// Minimum op count at which a *single* log's fold is split across
    /// segment workers and fused in order ([`from_ops_chunked`]
    /// semantics); `usize::MAX` disables the split.
    ///
    /// [`from_ops_chunked`]: sm_ot::delta::from_ops_chunked
    pub split_min_ops: usize,
    /// Whether an `sm_obs` recorder is installed: gates every clock read
    /// so uninstalled staging reads no clocks, like the sequential path.
    pub timing: bool,
}

impl StageCtx {
    /// A context that runs every job synchronously on the calling thread:
    /// staging through it is pure overhead but exercises the identical
    /// code path — the differential harness.
    pub fn inline() -> Self {
        StageCtx {
            exec: Arc::new(|job: Job| job()),
            lanes: 1,
            split_min_ops: usize::MAX,
            timing: false,
        }
    }
}

/// Shape of the staging plan a [`StagedCommit`] built, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Leaves staged on the delta plan.
    pub delta_leaves: usize,
    /// Delta leaves whose batch carries deletes (by the push-time shape
    /// cache; a subset of `delta_leaves`).
    pub mixed_leaves: usize,
    /// Composite fields with no stage of their own, merged inline at
    /// commit time.
    pub inline_leaves: usize,
    /// Total parallel chunks across all delta leaves.
    pub chunks: usize,
}

impl std::ops::AddAssign for StageProfile {
    fn add_assign(&mut self, rhs: Self) {
        self.delta_leaves += rhs.delta_leaves;
        self.mixed_leaves += rhs.mixed_leaves;
        self.inline_leaves += rhs.inline_leaves;
        self.chunks += rhs.chunks;
    }
}

/// A staged batch merge: pre-rebased runs for children `0..n` of one
/// batch, committed one child at a time in creation order.
///
/// `commit` must be called with the same parent the batch was staged
/// from, the same child data in the same order, and the indices
/// `0, 1, 2, …` in that order (a batch may be abandoned early, never
/// skipped into), with no other mutation of the parent's mergeable state
/// in between — the runtime's `merge_all` upholds this by construction.
pub trait StagedCommit<D> {
    /// Merge child `index`'s staged run into `parent`, blocking only if
    /// that child's staging work has not finished yet. Equivalent to
    /// `parent.merge(child)` — same result, same stats.
    fn commit(&mut self, parent: &mut D, child: &D, index: usize)
        -> Result<MergeStats, MergeError>;

    /// The plan shape, for the `MergeStaged` telemetry event.
    fn profile(&self) -> StageProfile;
}

/// One pre-rebased run plus the stats measured while staging it.
struct StagedRun<O> {
    run: Vec<O>,
    pre: MergeStats,
}

/// The leaf [`StagedCommit`] over the single [`Versioned`] log that
/// `get` / `get_mut` project out of a façade `D`: receives
/// `(index, Option<run>)` pairs from the coordinator — in index order,
/// there being one coordinator and one channel — and commits them, with
/// `None` poisoning the batch suffix (see the module docs).
struct StagedLeaf<O: Operation, G, H> {
    get: G,
    get_mut: H,
    rx: Receiver<(usize, Option<StagedRun<O>>)>,
    profile: StageProfile,
    timing: bool,
    poisoned: bool,
}

impl<D, O, G, H> StagedCommit<D> for StagedLeaf<O, G, H>
where
    O: Operation,
    G: for<'a> Fn(&'a D) -> &'a Versioned<O>,
    H: for<'a> Fn(&'a mut D) -> &'a mut Versioned<O>,
{
    fn commit(
        &mut self,
        parent: &mut D,
        child: &D,
        index: usize,
    ) -> Result<MergeStats, MergeError> {
        let (parent, child) = ((self.get_mut)(parent), (self.get)(child));
        if !self.poisoned {
            let (i, staged) = self
                .rx
                .recv()
                .expect("the staging coordinator died before delivering its rebased run");
            assert_eq!(i, index, "staged runs commit in batch order");
            if let Some(staged) = staged {
                return parent.commit_staged(child, staged.run, staged.pre, self.timing);
            }
            // The poison marker is the coordinator's last message.
            self.poisoned = true;
        }
        // Poisoned suffix: the staged prefix left `parent` in exactly
        // the sequential state, so the plain kernel (grid fallback and
        // all) finishes the batch bit-identically.
        let mut stats = parent.merge(child)?;
        stats.screen_rejects = 1;
        Ok(stats)
    }

    fn profile(&self) -> StageProfile {
        self.profile
    }
}

/// A sibling log handed to pass A: either the raw ops, or — for a log
/// big enough that one worker folding it alone would dominate the
/// critical path — a composite the staging thread already split/fused
/// across segment workers.
enum FoldItem<O: DeltaOp> {
    Log(Vec<O>),
    Folded(Delta<O::Payload>),
}

impl<O: DeltaOp> FoldItem<O> {
    fn fold(self, bias: GapBias) -> Option<Delta<O::Payload>> {
        match self {
            FoldItem::Folded(d) => Some(d),
            FoldItem::Log(log) => from_ops_biased(&log, bias),
        }
    }
}

/// Fold one log into a delta, splitting it across executor workers when
/// it is at least `ctx.split_min_ops` ops long: segment folds run
/// concurrently and the segment composites fuse in order, exact because
/// composition under a fixed bias is associative
/// ([`sm_ot::delta::from_ops_chunked`] is the sequential oracle).
///
/// Called from the staging thread only; the pool grows on demand, so
/// blocking here on segment results cannot starve the pass-A workers.
fn fold_log_split<O: DeltaOp>(
    ops: &[O],
    bias: GapBias,
    ctx: &StageCtx,
) -> Option<Delta<O::Payload>> {
    if ops.len() < ctx.split_min_ops || ctx.lanes <= 1 {
        return from_ops_biased(ops, bias);
    }
    let seg_len = ops
        .len()
        .div_ceil(ctx.lanes)
        .max(ctx.split_min_ops / 2)
        .max(1);
    let mut segs = Vec::new();
    for seg in ops.chunks(seg_len) {
        let seg = seg.to_vec();
        let (tx, rx) = channel();
        segs.push(rx);
        (ctx.exec)(Box::new(move || {
            let _ = tx.send(from_ops_biased(&seg, bias));
        }));
    }
    let mut acc = Delta::identity();
    for seg in segs {
        acc = acc.compose_biased(&seg.recv().ok()??, bias);
    }
    Some(acc)
}

/// Stage a batch of sibling sequence logs (the module docs' one plan) —
/// each the [`Versioned`] log `get` / `get_mut` project out of its façade
/// — or `None` when the batch does not qualify (by the push-time
/// [`LogShape`](crate::LogShape) cache, no rescans) and the caller folds
/// it sequentially.
///
/// Pass A folds each chunk of sibling logs into deltas concurrently (a
/// huge single log additionally split/fuses across segment workers); one
/// coordinator then walks every member delta in index order performing
/// exactly the sequential kernel's delta steps — screen with
/// [`Delta::rebase_is_order_sensitive`], transform, compose — against an
/// incrementally grown committed composite. A screen fire poisons the
/// batch suffix (module docs) instead of bailing the whole batch.
pub(crate) fn stage_versioned_delta<D, O, G, H>(
    parent: &D,
    children: &[&D],
    get: G,
    get_mut: H,
    ctx: &StageCtx,
) -> Option<Box<dyn StagedCommit<D>>>
where
    D: 'static,
    O: DeltaOp,
    G: for<'a> Fn(&'a D) -> &'a Versioned<O> + 'static,
    H: for<'a> Fn(&'a mut D) -> &'a mut Versioned<O> + 'static,
{
    let parent = get(parent);
    let children: Vec<&Versioned<O>> = children.iter().map(|c| get(c)).collect();
    let fork_base = children.first()?.fork_base();
    let lo = parent.log_start();
    // A non-empty committed slice: the fork base lies strictly inside
    // the parent's retained log.
    let qualified = fork_base >= lo
        && fork_base - lo < parent.log().len()
        && children.iter().all(|c| {
            c.fork_base() == fork_base && !c.log().is_empty() && c.log_shape().delta_foldable()
        });
    if !qualified {
        return None;
    }
    // The shape cache is a conservative bound and the committed slice is
    // not covered by it at all: a fold that meets a span-inexpressible op
    // after all declines the batch.
    let c0 = fold_log_split(&parent.log()[fork_base - lo..], GapBias::Start, ctx)?;
    let timing = ctx.timing;

    // Pass A (parallel per chunk): fold only — re-associating the
    // transform/compose walk over deltas with deletes is unproven. One
    // channel per chunk, so the coordinator starts on chunk 0 while the
    // later ones still fold.
    let chunk_len = children.len().div_ceil(ctx.lanes.clamp(1, children.len()));
    let mut folds = Vec::new();
    for chunk in children.chunks(chunk_len) {
        // Huge logs pre-fold here on the staging thread (split/fuse), so
        // no single pass-A worker serializes a giant fold.
        let mut items: Vec<FoldItem<O>> = Vec::with_capacity(chunk.len());
        for c in chunk {
            items.push(if c.log().len() >= ctx.split_min_ops {
                FoldItem::Folded(fold_log_split(c.log(), GapBias::End, ctx)?)
            } else {
                FoldItem::Log(c.log().to_vec())
            });
        }
        let (fold_tx, fold_rx) = channel();
        folds.push(fold_rx);
        (ctx.exec)(Box::new(move || {
            let ds: Option<Vec<Delta<O::Payload>>> = items
                .into_iter()
                .map(|item| item.fold(GapBias::End))
                .collect();
            let _ = fold_tx.send(ds);
        }));
    }
    let chunks = folds.len();

    // Coordinator: the sequential kernel's delta walk, verbatim —
    // screen, transform, compose — against an incrementally grown
    // committed composite. One worker, index order.
    let (slot_tx, slot_rx) = channel();
    (ctx.exec)(Box::new(move || {
        let mut base = c0;
        let mut index = 0usize;
        for fold in folds {
            // A fold that failed (or whose worker died) poisons from
            // its chunk's first member on.
            let Some(ds) = fold.recv().ok().flatten() else {
                let _ = slot_tx.send((index, None));
                return;
            };
            for d in ds {
                if base.rebase_is_order_sensitive(&d) {
                    // The exact committed-vs-incoming screen the
                    // sequential kernel would run for this child:
                    // poison here, grid fallback at commit time.
                    let _ = slot_tx.send((index, None));
                    return;
                }
                let t0 = timing.then(Instant::now);
                let (_, rebased) = base.transform(&d);
                let pre = MergeStats {
                    delta_rebases: 1,
                    delta_spans: base.span_count() + d.span_count(),
                    delta_nanos: t0.map_or(0, elapsed_nanos),
                    ..MergeStats::default()
                };
                base = base.compose(&rebased);
                let run = rebased.into_ops();
                let _ = slot_tx.send((index, Some(StagedRun { run, pre })));
                index += 1;
            }
        }
    }));

    let insert_only =
        parent.log_shape().insert_only() && children.iter().all(|c| c.log_shape().insert_only());
    Some(Box::new(StagedLeaf {
        get,
        get_mut,
        rx: slot_rx,
        profile: StageProfile {
            delta_leaves: 1,
            mixed_leaves: usize::from(!insert_only),
            inline_leaves: 0,
            chunks,
        },
        timing,
        poisoned: false,
    }))
}

/// Commits one field of one child of the batch.
type FieldCommit<D> = Box<dyn FnMut(&mut D, &D, usize) -> Result<MergeStats, MergeError>>;

/// Field-wise composite of per-field stages: commits every field of one
/// child (in declaration order, summing stats) before moving on, exactly
/// like the sequential field-wise merge. Built by the tuple, `Vec<M>`
/// and [`mergeable_struct!`](crate::mergeable_struct) derives.
pub struct FieldStage<D> {
    fields: Vec<FieldCommit<D>>,
    profile: StageProfile,
}

impl<D: 'static> Default for FieldStage<D> {
    fn default() -> Self {
        FieldStage {
            fields: Vec::new(),
            profile: StageProfile::default(),
        }
    }
}

impl<D: 'static> FieldStage<D> {
    /// Add the next field in declaration order: `stage` is what the
    /// field's own `stage_merge_all` returned for the projected batch. A
    /// field that declined merges by plain sequential `merge` inside the
    /// batch walk.
    pub fn field<F, G, H>(&mut self, get: G, get_mut: H, stage: Option<Box<dyn StagedCommit<F>>>)
    where
        F: Mergeable,
        G: for<'a> Fn(&'a D) -> &'a F + 'static,
        H: for<'a> Fn(&'a mut D) -> &'a mut F + 'static,
    {
        self.fields.push(match stage {
            Some(mut stage) => {
                self.profile += stage.profile();
                Box::new(move |p: &mut D, c: &D, i| stage.commit(get_mut(p), get(c), i))
            }
            None => {
                self.profile.inline_leaves += 1;
                Box::new(move |p: &mut D, c: &D, _| get_mut(p).merge(get(c)))
            }
        });
    }

    /// The composite stage — `None` when every field declined, so the
    /// caller folds the batch sequentially with no staging overhead.
    pub fn finish(self) -> Option<Box<dyn StagedCommit<D>>> {
        (self.profile.delta_leaves > 0).then(|| Box::new(self) as Box<dyn StagedCommit<D>>)
    }
}

impl<D> StagedCommit<D> for FieldStage<D> {
    fn commit(
        &mut self,
        parent: &mut D,
        child: &D,
        index: usize,
    ) -> Result<MergeStats, MergeError> {
        let mut stats = MergeStats::default();
        for field in &mut self.fields {
            stats += field(parent, child, index)?;
        }
        Ok(stats)
    }

    fn profile(&self) -> StageProfile {
        self.profile
    }
}
