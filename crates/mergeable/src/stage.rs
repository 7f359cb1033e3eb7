//! The merge-staging engine: a batch `merge_all` whose committed composite
//! grows **incrementally**, bit-identical to the sequential creation-order
//! fold.
//!
//! # The seam
//!
//! [`Mergeable::stage_merge_all`] turns
//! a batch of forked children into a [`StagedCommit`]; the merging thread
//! then feeds it the children it decides to merge, *in creation order*,
//! and each [`StagedCommit::commit`] does exactly what `merge` would have.
//! Nothing runs anywhere else: the engine owns no thread, channel or job.
//!
//! # Stage, commit, poison, dismissal
//!
//! **Stage** (`stage_versioned_delta`): a sequence log stages when every
//! child of the batch shares one fork base inside the parent's retained
//! history (its end included: an idle parent, the paper's *spawn, let the
//! children work, `MergeAll`*). What the parent committed since that fork
//! — possibly nothing — folds **once** into a normalized span-set delta
//! over the fork-base coordinates: the *composite*. Everything else —
//! other algebras, a span-inexpressible committed slice, mixed fork bases
//! — has no stage (`None`): the caller folds it with plain
//! [`Mergeable::merge`], and a composite none of whose fields stage has
//! no stage either.
//!
//! **Commit** performs the delta steps of the sequential kernel
//! ([`sm_ot::delta::rebase_delta`]) against the composite instead of a
//! refold of the whole committed log: fold the child's log, then
//! [`Composite::absorb`] it — the kernel's screen
//! ([`Delta::rebase_is_order_sensitive`]), its incoming-only transform
//! ([`Delta::transform_incoming`]) and the in-place compose of the
//! rebased run into the composite ([`Delta::compose_in_place`]), all
//! three started at the composite's *finger*, a remembered span boundary
//! before which the child's delta only retains — and commit the rebased
//! run (`Versioned::commit_staged`). A commit costs what the child holds
//! plus the composite spans at and behind its first edit: a batch whose
//! children edit ascending positions in creation order — the paper's
//! data-parallel fan-out — is linear in its edits, no other order costs
//! more than sweeps from the composite's start did, and either way the
//! sequential fold's O(n³) total work at high fan-out is gone. The
//! commit re-derives every
//! field the determinism auditor hashes (`child_ops`, `applied_ops`,
//! `committed_ops`, the post-fusion `oplog_len`) from the live parent
//! log, so the observable event stream cannot diverge from the sequential
//! schedule by construction — and debug builds recompute the sequential
//! rebase at every commit and assert the staged run matches operation for
//! operation.
//!
//! An **identity member** — a child with an empty log, or any child while
//! the committed slice is still empty — is the kernel's O(1) trivial
//! merge and goes through plain `merge`, un-poisoned, so its stats are the
//! sequential ones by construction. When the slice *was* empty, the
//! composite is then folded from what that merge appended to the parent's
//! log — the compacted, fused run the next sequential rebase would fold,
//! not the child's raw log — and a span-inexpressible op in it poisons
//! the rest of the batch.
//!
//! **Poison** is a local flag. A child whose fold meets a
//! span-inexpressible op, or whose delta fires the order-sensitivity
//! screen, sets it: that child and every later one commit through plain
//! `merge` (the exact kernel, grid fallback included). The outcome is
//! always the sequential one — a staged prefix that is bit-identical by
//! construction, then a plainly merged suffix — and each fallback counts
//! in `MergeStats::screen_rejects`.
//!
//! **Dismissal** is not feeding. A child's run is computed only when that
//! child is committed, so a child the caller dismisses (a merge condition,
//! an abort) never touches the composite, which stays exactly "everything
//! committed since the fork base".
//!
//! # Huge logs
//!
//! A log of `SEGMENT_MIN_OPS` (4 096) ops or more folds in segments of
//! the square root of that ([`from_ops_chunked`]): a fold is O(k · s) in
//! ops × resulting spans, so short segment folds fused in order cost a
//! fraction of one straight fold — measured, from 4 096 ops up segmenting
//! never loses, and on tail-scattered logs it wins an order of magnitude
//! — and the result is equal because composition under a fixed
//! [`GapBias`] is associative.

use std::time::Instant;

use sm_ot::delta::{from_ops_biased, from_ops_chunked, Composite, Delta, DeltaOp, GapBias};

use crate::versioned::elapsed_nanos;
use crate::{Leaf, MergeError, MergeStats, Mergeable, Versioned};

/// Op count from which one log folds in segments. A segment is the
/// square root of this long: folding k ops in segments of c costs about
/// k·c in the folds plus (k/c)·s in fusing s spans, least at c = √s ≤ √k.
const SEGMENT_MIN_OPS: usize = 4_096;

/// Fold one log into a base-coordinate delta; `None` when an op is not
/// span-expressible.
fn fold<O: DeltaOp>(ops: &[O], bias: GapBias) -> Option<Delta<O::Payload>> {
    if ops.len() < SEGMENT_MIN_OPS {
        from_ops_biased(ops, bias)
    } else {
        from_ops_chunked(ops, SEGMENT_MIN_OPS.isqrt(), bias)
    }
}

/// Shape of the plan a [`StagedCommit`] built, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Leaves staged on the delta plan.
    pub delta_leaves: usize,
    /// Composite fields with no stage of their own, merged by plain
    /// `merge` at commit time.
    pub inline_leaves: usize,
}

impl std::ops::AddAssign for StageProfile {
    fn add_assign(&mut self, rhs: Self) {
        self.delta_leaves += rhs.delta_leaves;
        self.inline_leaves += rhs.inline_leaves;
    }
}

/// A staged batch merge: commits children of one batch one at a time.
///
/// `commit` must be called with the parent the batch was staged from and
/// with children of that batch in batch order — any of them may be left
/// out — with no other mutation of the parent's mergeable state in
/// between; the runtime's `merge_all` upholds this by construction.
pub trait StagedCommit<D> {
    /// Merge `child` into `parent`. Equivalent to `parent.merge(child)` —
    /// same result, same stats (but for `screen_rejects`).
    fn commit(&mut self, parent: &mut D, child: &D) -> Result<MergeStats, MergeError>;

    /// The plan shape, for the `MergeStaged` telemetry event.
    fn profile(&self) -> StageProfile;
}

/// The leaf [`StagedCommit`]: one batch over the [`Versioned`] log of a
/// sequence [`Leaf`] (see the module docs).
struct StagedLeaf<O: DeltaOp> {
    /// Everything committed since the batch's fork base, as one delta
    /// over the fork-base coordinates.
    composite: Composite<O::Payload>,
    poisoned: bool,
}

impl<O: DeltaOp> StagedLeaf<O> {
    /// Commit `child` against the composite; `None` when the child must
    /// go to the plain kernel and take the rest of the batch with it.
    fn commit_on_composite(
        &mut self,
        parent: &mut Versioned<O>,
        child: &Versioned<O>,
    ) -> Option<Result<MergeStats, MergeError>> {
        // An identity member is the kernel's O(1) trivial merge. The test
        // is on the live slice, not on the composite: an insert-then-
        // delete slice composes to the identity and the kernel still
        // rebases over it on the delta path.
        let fork_base = child.fork_base();
        let slice_was_empty = parent.history_len() == fork_base;
        if slice_was_empty || child.log().is_empty() {
            let stats = parent.merge(child);
            if slice_was_empty && stats.is_ok() {
                // What that merge appended — the compacted, fused log the
                // next sequential rebase would fold, not the child's raw
                // log — is the whole committed slice now.
                let slice = &parent.log()[fork_base - parent.log_start()..];
                match fold(slice, GapBias::Start) {
                    Some(folded) => self.composite = Composite::new(folded),
                    None => self.poisoned = true,
                }
            }
            return Some(stats);
        }
        // Clocks are read only while a recorder is installed, like the
        // sequential path.
        let timing = sm_obs::is_enabled();
        let t0 = timing.then(Instant::now);
        let incoming = fold(child.log(), GapBias::End)?;
        // Both span counts as the sequential kernel reports them: the
        // composite's before this child's run goes in.
        let delta_spans = self.composite.span_count() + incoming.span_count();
        // The exact committed-vs-incoming screen and transform the
        // sequential kernel would run for this child.
        let rebased = self.composite.absorb(&incoming)?;
        let pre = MergeStats {
            delta_rebases: 1,
            delta_spans,
            delta_nanos: t0.map_or(0, elapsed_nanos),
            ..MergeStats::default()
        };
        let stats = parent.commit_staged(child, rebased.into_ops(), pre, timing);
        // A run that failed to commit is in the composite all the same.
        self.poisoned = stats.is_err();
        Some(stats)
    }
}

impl<L: Leaf> StagedCommit<L> for StagedLeaf<L::Op>
where
    L::Op: DeltaOp,
{
    fn commit(&mut self, parent: &mut L, child: &L) -> Result<MergeStats, MergeError> {
        let (parent, child) = (parent.versioned_mut(), child.versioned());
        if !self.poisoned {
            if let Some(stats) = self.commit_on_composite(parent, child) {
                return stats;
            }
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
        StageProfile {
            delta_leaves: 1,
            inline_leaves: 0,
        }
    }
}

/// Stage a batch of sibling sequence leaves on their [`Versioned`] logs,
/// or `None` when the batch does not qualify (module docs) and the caller
/// folds it sequentially.
pub(crate) fn stage_versioned_delta<L: Leaf>(
    parent: &L,
    children: &[&L],
) -> Option<Box<dyn StagedCommit<L>>>
where
    L::Op: DeltaOp,
{
    let parent = parent.versioned();
    let fork_base = children.first()?.versioned().fork_base();
    let lo = parent.log_start();
    let qualified = (lo..=parent.history_len()).contains(&fork_base)
        && children
            .iter()
            .all(|c| c.versioned().fork_base() == fork_base);
    if !qualified {
        return None;
    }
    let composite = Composite::new(fold(&parent.log()[fork_base - lo..], GapBias::Start)?);
    Some(Box::new(StagedLeaf {
        composite,
        poisoned: false,
    }))
}

/// Element-wise composite over a `Vec<M>`: commits every element of one
/// child, in order, through the element's own stage or — where it has
/// none — by plain sequential `merge` inside the batch walk.
pub(crate) struct VecStage<M> {
    stages: Vec<Option<Box<dyn StagedCommit<M>>>>,
    profile: StageProfile,
}

impl<M> VecStage<M> {
    /// One entry per element: what its `stage_merge_all` returned for the
    /// projected batch.
    pub(crate) fn new(stages: Vec<Option<Box<dyn StagedCommit<M>>>>) -> Self {
        let mut profile = StageProfile::default();
        for stage in &stages {
            match stage {
                Some(stage) => profile += stage.profile(),
                None => profile.inline_leaves += 1,
            }
        }
        VecStage { stages, profile }
    }
}

impl<M: Mergeable> StagedCommit<Vec<M>> for VecStage<M> {
    fn commit(&mut self, parent: &mut Vec<M>, child: &Vec<M>) -> Result<MergeStats, MergeError> {
        let mut stats = MergeStats::default();
        for ((stage, p), c) in self.stages.iter_mut().zip(parent).zip(child) {
            stats += match stage {
                Some(stage) => stage.commit(p, c)?,
                None => p.merge(c)?,
            };
        }
        Ok(stats)
    }

    fn profile(&self) -> StageProfile {
        self.profile
    }
}

/// Commits one field of one child of the batch.
type FieldCommit<D> = Box<dyn FnMut(&mut D, &D) -> Result<MergeStats, MergeError>>;

/// Field-wise composite of per-field stages: commits every field of one
/// child (in declaration order, summing stats) before moving on, exactly
/// like the sequential field-wise merge. Built by the tuple and
/// [`mergeable_struct!`](crate::mergeable_struct) derives.
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
                Box::new(move |p: &mut D, c: &D| stage.commit(get_mut(p), get(c)))
            }
            None => {
                self.profile.inline_leaves += 1;
                Box::new(move |p: &mut D, c: &D| get_mut(p).merge(get(c)))
            }
        });
    }
}

impl<D> StagedCommit<D> for FieldStage<D> {
    fn commit(&mut self, parent: &mut D, child: &D) -> Result<MergeStats, MergeError> {
        let mut stats = MergeStats::default();
        for field in &mut self.fields {
            stats += field(parent, child)?;
        }
        Ok(stats)
    }

    fn profile(&self) -> StageProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use sm_ot::tree::Node;

    use super::*;
    use crate::{
        mergeable_struct, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText, MTree,
    };

    mergeable_struct! {
        #[derive(Clone)]
        struct EveryLeaf {
            list: MList<u32>,
            text: MText,
            queue: MQueue<u32>,
            map: MMap<u32, u32>,
            set: MSet<u32>,
            counter: MCounter,
            cmap: MCounterMap<u32>,
            register: MRegister<u32>,
            tree: MTree<u32>,
        }
    }

    /// One edit per field.
    fn edit(d: &mut EveryLeaf, n: u32) {
        d.list.push(n);
        d.text.push_str(n.to_string());
        d.queue.push_back(n);
        d.map.insert(n, n);
        d.set.insert(n);
        d.counter.add(n.into());
        d.cmap.add(n, 1);
        d.register.set(n);
        d.tree.push_child(&[], Node::leaf(n));
    }

    #[test]
    fn the_three_sequence_leaves_stage_and_the_other_six_do_not() {
        // Three siblings of a parent that has since committed an edit of
        // its own: the batch qualifies wherever there is a stage.
        let mut parent = EveryLeaf {
            list: MList::from_iter([0]),
            text: MText::from("0"),
            queue: MQueue::from_vec(vec![0]),
            map: MMap::new(),
            set: MSet::new(),
            counter: MCounter::new(0),
            cmap: MCounterMap::new(),
            register: MRegister::new(0),
            tree: MTree::new(0),
        };
        let children: Vec<EveryLeaf> = (1..=3)
            .map(|n| {
                let mut child = parent.fork();
                edit(&mut child, n);
                child
            })
            .collect();
        edit(&mut parent, 9);
        macro_rules! staged {
            ($field:ident) => {{
                let kids: Vec<_> = children.iter().map(|c| &c.$field).collect();
                parent.$field.stage_merge_all(&kids).map(|s| s.profile())
            }};
        }
        let delta_leaf = Some(StageProfile {
            delta_leaves: 1,
            inline_leaves: 0,
        });
        assert_eq!(staged!(list), delta_leaf);
        assert_eq!(staged!(text), delta_leaf);
        assert_eq!(staged!(queue), delta_leaf);
        assert_eq!(staged!(map), None);
        assert_eq!(staged!(set), None);
        assert_eq!(staged!(counter), None);
        assert_eq!(staged!(cmap), None);
        assert_eq!(staged!(register), None);
        assert_eq!(staged!(tree), None);

        let kids: Vec<_> = children.iter().collect();
        let mut stage = parent.stage_merge_all(&kids).expect("three fields stage");
        assert_eq!(
            stage.profile(),
            StageProfile {
                delta_leaves: 3,
                inline_leaves: 6,
            }
        );

        // And the plan commits what the plain fold does.
        let (mut staged, mut folded) = (parent.clone(), parent);
        for child in &children {
            assert_eq!(
                stage.commit(&mut staged, child).unwrap(),
                folded.merge(child).unwrap()
            );
        }
        assert_eq!(staged.list, folded.list);
        assert_eq!(staged.text, folded.text);
        assert_eq!(staged.queue, folded.queue);
        assert_eq!(staged.counter.get(), 9 + 1 + 2 + 3);
        assert_eq!(staged.map, folded.map);
        assert_eq!(staged.tree, folded.tree);
    }
}
