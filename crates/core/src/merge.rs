//! The **Merge** family (§II-D of the paper).
//!
//! | Function | Waits for | Order | Deterministic? |
//! |---|---|---|---|
//! | [`TaskCtx::merge_all`] | the next event of *every* live child | creation order | **yes** |
//! | [`TaskCtx::merge_all_from_set`] | every child in the set | argument order | **yes** |
//! | [`TaskCtx::merge_any`] | the first event of any child | arrival order | no (explicit) |
//! | [`TaskCtx::merge_any_from_set`] | the first event of any child in the set | arrival order | no (explicit) |
//!
//! Every function comes in a `_with` variant taking a **condition
//! function** evaluated on the child's computed data before merging; if it
//! returns `false` the merge is not performed and the child's changes are
//! omitted — the runtime-managed rollback of §II-D. Unlike transactional
//! memory there is no rollback on *conflict*: conflicting writes are always
//! resolved by operational transformation; only an explicit condition (or
//! an abort) discards work.
//!
//! A child event is either a **sync request** (the child continues after
//! the merge on a fresh fork) or a **completion** (the child retires).
//! `merge_all` processes exactly one event per live child per call — which
//! is what makes a `for { MergeAll() }` loop over syncing children proceed
//! in deterministic rounds (the simulation pattern of listing 4). The
//! syncing children of one call get their verdicts (and their own data
//! back, re-forked right after each one's own merge) together, after the
//! last merge of the walk — or as soon as the walk has to block for a
//! later child's event, which may depend on an earlier child having
//! resumed.
//!
//! A `merge_all` is one creation-order walk, one child event at a time.
//! Siblings forked at one point rebase over a committed slice that each
//! merge only extends, so a sequence log keeps what its last merge folded
//! (the merge memo, see `sm_mergeable::Versioned::merge`) and the next
//! sibling continues from it instead of refolding the slice — for every
//! kind of merge call, in whatever order the events arrive.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

use sm_mergeable::{MergeStats, Mergeable};
use sm_obs::{emit, EventKind, MergeOpStats, Phase};

use crate::error::AbortReason;
use crate::task::{
    Event, EventBody, Resume, SyncReply, SyncReturn, TaskCtx, TaskHandle, TaskId, TaskOutcome,
};

/// What happened to one child during a merge call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// The child's changes were merged.
    Merged(MergeStats),
    /// A merge condition rejected the child's changes (rolled back).
    Rejected,
    /// The child aborted itself (error or panic); changes dismissed.
    AbortedByChild(AbortReason),
    /// The parent had externally aborted the child; changes dismissed.
    AbortedExternally,
}

impl Disposition {
    /// True if the child's changes were actually merged.
    pub fn is_merged(&self) -> bool {
        matches!(self, Disposition::Merged(_))
    }
}

/// Per-child record of a merge call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedChild {
    /// Which child.
    pub task: TaskId,
    /// True if the child completed (retired); false if it synced and keeps
    /// running.
    pub completed: bool,
    /// What happened to its changes.
    pub disposition: Disposition,
}

/// Result of a `merge_all` / `merge_all_from_set` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// One entry per processed child, in merge order.
    pub children: Vec<MergedChild>,
}

impl MergeReport {
    /// Children whose changes were merged.
    pub fn merged_count(&self) -> usize {
        self.children
            .iter()
            .filter(|c| c.disposition.is_merged())
            .count()
    }

    /// True if every processed child merged successfully.
    pub fn all_merged(&self) -> bool {
        self.children.iter().all(|c| c.disposition.is_merged())
    }

    /// Children that completed (retired) during this call.
    pub fn completed_count(&self) -> usize {
        self.children.iter().filter(|c| c.completed).count()
    }
}

/// A merge condition: inspects the child's computed data; returning `false`
/// rejects the merge.
pub type Condition<'a, D> = &'a dyn Fn(&D) -> bool;

impl<D: Mergeable> TaskCtx<D> {
    /// **MergeAll**: wait for the next event of every live child and merge
    /// them *in creation order* — fully deterministic (§II-D).
    ///
    /// Completed children are merged once and retired; syncing children are
    /// merged, handed a fresh fork, and stay live. One event per child per
    /// call.
    pub fn merge_all(&mut self) -> MergeReport {
        self.merge_all_inner(None, &|_| true)
    }

    /// [`merge_all`](Self::merge_all) with a merge condition.
    pub fn merge_all_with(&mut self, condition: Condition<'_, D>) -> MergeReport {
        self.merge_all_inner(None, condition)
    }

    /// **MergeAllFromSet**: wait for and merge exactly the children in
    /// `set`, in **argument order** — deterministic. Handles of already
    /// retired children are skipped, and a handle that appears more than
    /// once counts once, at its first position (a duplicate must not
    /// consume a second event from the same child).
    pub fn merge_all_from_set(&mut self, set: &[&TaskHandle]) -> MergeReport {
        self.merge_all_inner(Some(dedup_handle_ids(set)), &|_| true)
    }

    /// [`merge_all_from_set`](Self::merge_all_from_set) with a merge
    /// condition.
    pub fn merge_all_from_set_with(
        &mut self,
        set: &[&TaskHandle],
        condition: Condition<'_, D>,
    ) -> MergeReport {
        self.merge_all_inner(Some(dedup_handle_ids(set)), condition)
    }

    /// **MergeAny**: wait for the first event from *any* live child and
    /// merge it — first-completed-first-merged, which deliberately
    /// introduces non-determinism (§II-D). Returns `None` immediately if
    /// there are no live children.
    pub fn merge_any(&mut self) -> Option<MergedChild> {
        self.merge_any_inner(None, &|_| true)
    }

    /// [`merge_any`](Self::merge_any) with a merge condition.
    pub fn merge_any_with(&mut self, condition: Condition<'_, D>) -> Option<MergedChild> {
        self.merge_any_inner(None, condition)
    }

    /// **MergeAnyFromSet**: wait for the first event from any child in
    /// `set` and merge it. Returns `None` immediately if no child in the
    /// set is live — "it will never block, because there is nothing it
    /// could wait for" (§IV-B); this is how a deadlocked semaphore system
    /// degrades to a livelock instead of a deadlock.
    pub fn merge_any_from_set(&mut self, set: &[&TaskHandle]) -> Option<MergedChild> {
        let ids: BTreeSet<TaskId> = set.iter().map(|h| h.id()).collect();
        self.merge_any_inner(Some(ids), &|_| true)
    }

    /// [`merge_any_from_set`](Self::merge_any_from_set) with a merge
    /// condition.
    pub fn merge_any_from_set_with(
        &mut self,
        set: &[&TaskHandle],
        condition: Condition<'_, D>,
    ) -> Option<MergedChild> {
        let ids: BTreeSet<TaskId> = set.iter().map(|h| h.id()).collect();
        self.merge_any_inner(Some(ids), condition)
    }

    fn merge_all_inner(
        &mut self,
        subset: Option<Vec<TaskId>>,
        cond: Condition<'_, D>,
    ) -> MergeReport {
        self.adopt_children();
        let ids: Vec<TaskId> = match subset {
            // All live children, creation order.
            None => self.children.iter().map(|c| c.id).collect(),
            // The given set, argument order, restricted to live children.
            Some(requested) => requested
                .into_iter()
                .filter(|id| self.children.iter().any(|c| c.id == *id))
                .collect(),
        };
        let mut report = MergeReport::default();
        for id in &ids {
            let ev = self.next_event_for(*id);
            report.children.push(self.handle_event(ev, cond));
        }
        self.flush_replies();
        self.gc_history();
        report
    }

    fn merge_any_inner(
        &mut self,
        subset: Option<BTreeSet<TaskId>>,
        cond: Condition<'_, D>,
    ) -> Option<MergedChild> {
        // The target set is re-evaluated while waiting: children may Clone
        // new siblings at any time, and an open-ended merge_any must be
        // willing to merge those too (the server pattern of listing 3).
        loop {
            self.adopt_children();
            let live: BTreeSet<TaskId> = self.children.iter().map(|c| c.id).collect();
            let targets: BTreeSet<TaskId> = match &subset {
                None => live,
                Some(s) => s.intersection(&live).copied().collect(),
            };
            if targets.is_empty() {
                return None;
            }
            if let Some(pos) = self.pending.iter().position(|e| targets.contains(&e.child)) {
                let ev = self.pending.remove(pos).expect("position is valid");
                let merged = self.handle_event(ev, cond);
                self.flush_replies();
                self.gc_history();
                return Some(merged);
            }
            let ev = self
                .family
                .pool
                .recv(&self.events_rx)
                .expect("event channel cannot disconnect while the context holds its family");
            if targets.contains(&ev.child) {
                let merged = self.handle_event(ev, cond);
                self.flush_replies();
                self.gc_history();
                return Some(merged);
            }
            // Not (yet) a target: either outside the caller's set, or a
            // just-cloned sibling we have not adopted. Stash and re-adopt.
            self.pending.push_back(ev);
        }
    }

    /// Merge the next event of exactly one child, addressed by id.
    /// Returns `None` if that child is not live. Deterministic given the
    /// id — the primitive behind trace replay.
    pub(crate) fn merge_one(&mut self, id: TaskId) -> Option<MergedChild> {
        self.adopt_children();
        if !self.children.iter().any(|c| c.id == id) {
            return None;
        }
        let ev = self.next_event_for(id);
        let merged = self.handle_event(ev, &|_| true);
        self.flush_replies();
        self.gc_history();
        Some(merged)
    }

    /// Implicit MergeAll at task completion: "a task is not completed
    /// unless all its children have completed and have been merged" (§II).
    pub(crate) fn drain_children(&mut self) {
        loop {
            self.adopt_children();
            if self.children.is_empty() {
                return;
            }
            self.merge_all();
        }
    }

    /// Teardown for an aborting task: raise every child's abort flag, then
    /// drain. Children see the flag through failed syncs (or by polling)
    /// and wind down; their changes are discarded.
    pub(crate) fn abort_children_and_drain(&mut self) {
        loop {
            self.adopt_children();
            if self.children.is_empty() {
                return;
            }
            for c in &self.children {
                c.abort.store(true, Ordering::SeqCst);
            }
            self.merge_all();
        }
    }

    /// Block until the next event *from child `id`*, buffering events from
    /// other children in arrival order. Parked verdicts leave before the
    /// wait: `id` may only be able to reach its next event after a sibling
    /// merged earlier in this call has resumed (§IV-A's semaphore).
    fn next_event_for(&mut self, id: TaskId) -> Event<D> {
        if let Some(pos) = self.pending.iter().position(|e| e.child == id) {
            return self.pending.remove(pos).expect("position is valid");
        }
        // A round no worker has claimed yet runs here (see `round.rs`).
        let slot = self
            .child_index(id)
            .and_then(|i| self.children[i].round.as_ref());
        if let Some((task, data)) = slot.and_then(|slot| slot.lock().round.take()) {
            return task.run(data);
        }
        loop {
            let ev = self.events_rx.try_recv().unwrap_or_else(|_| {
                self.flush_replies();
                self.family
                    .pool
                    .recv(&self.events_rx)
                    .expect("event channel cannot disconnect while the context holds its family")
            });
            if ev.child == id {
                return ev;
            }
            self.pending.push_back(ev);
        }
    }

    /// Send the verdicts [`handle_event`](Self::handle_event) parked. A
    /// `merge_all` answers its `Sync`s after the last merge of the walk —
    /// woken early, the children would pre-empt the merging thread on a
    /// busy box — but never later than its next blocking wait;
    /// `merge_any*` and `merge_one` answer at once.
    fn flush_replies(&mut self) {
        for (resume, verdict) in self.replies.drain(..) {
            match resume {
                // The sender returns to the child inside its own message
                // (see `SyncReturn`); the clone only lives for the send.
                Resume::Reply(reply) => {
                    let _ = reply.clone().send(SyncReturn { verdict, reply });
                }
                Resume::Round(task) => task.resume(verdict),
            }
        }
    }

    /// Where `id` sits in the child list, which is kept in id order.
    fn child_index(&self, id: TaskId) -> Option<usize> {
        self.children.binary_search_by_key(&id, |c| c.id).ok()
    }

    /// Merge (or reject) one child event; a `Sync`'s verdict is parked in
    /// `self.replies` for the caller to flush.
    fn handle_event(&mut self, ev: Event<D>, cond: Condition<'_, D>) -> MergedChild {
        let pos = self
            .child_index(ev.child)
            .expect("event from unknown child");
        let externally_aborted = self.children[pos].abort.load(Ordering::SeqCst);
        let child = ev.child;

        let (completed, disposition) = match ev.body {
            EventBody::Done { data, outcome } => {
                // Retired before its condition runs: a condition that
                // unwinds leaves no child listed whose event is gone.
                self.children.remove(pos);
                let disposition = match (outcome, data) {
                    (TaskOutcome::Aborted(reason), _) => Disposition::AbortedByChild(reason),
                    _ if externally_aborted => Disposition::AbortedExternally,
                    (TaskOutcome::Completed, Some(data)) if cond(&data) => {
                        Disposition::Merged(self.merge_child(&data, child, false))
                    }
                    (TaskOutcome::Completed, Some(_)) => Disposition::Rejected,
                    (TaskOutcome::Completed, None) => Disposition::AbortedByChild(
                        AbortReason::Error("task completed without data".into()),
                    ),
                };
                (true, disposition)
            }
            EventBody::Sync { mut data, resume } => {
                let (verdict, disposition) = if externally_aborted {
                    (SyncReply::Rejected(data), Disposition::AbortedExternally)
                } else if cond(&data) {
                    let stats = self.merge_child(&data, child, true);
                    // The child continues on its own data, re-forked from
                    // ours: a field nobody wrote keeps what it shares with
                    // us. Its old fork bases no longer pin the history.
                    data.refork(self.data());
                    let marks = &mut self.children[pos].fork_marks;
                    marks.clear();
                    data.fork_marks(marks);
                    (SyncReply::Accepted(data), Disposition::Merged(stats))
                } else {
                    (SyncReply::Rejected(data), Disposition::Rejected)
                };
                self.replies.push((resume, verdict));
                (false, disposition)
            }
        };
        if !disposition.is_merged() {
            self.emit_rejected(child);
        }
        MergedChild {
            task: child,
            completed,
            disposition,
        }
    }

    /// The `MergeRejected` event for a child whose changes were dismissed.
    /// Child paths are built inside the emit closures: an unrecorded run
    /// allocates none.
    fn emit_rejected(&self, child: TaskId) {
        emit(&self.path, || EventKind::MergeRejected {
            child: self.path.child(child),
        });
    }

    /// Fork-watermark history GC (root task only).
    ///
    /// Every live child rebases, at merge time, against the suffix of the
    /// root's committed log starting at its fork base. The element-wise
    /// minimum of live children's fork marks is therefore a watermark `W`
    /// below which no log prefix can ever be transformed against again —
    /// that prefix is dropped, turning committed-log growth from
    /// O(total history) into O(outstanding divergence). With no live
    /// children the whole history is droppable.
    ///
    /// Non-root tasks must keep their full log: it is exactly what their
    /// own parent rebases when *they* are merged.
    fn gc_history(&mut self) {
        if !self.is_root() || self.data.is_none() {
            return;
        }
        let fold = {
            let adopted = self.family.adopted.lock();
            fold_fork_watermark(
                self.children
                    .iter()
                    .chain(adopted.iter())
                    .map(|child| child.fork_marks.as_slice()),
            )
        };
        let data = self.data.as_mut().expect("checked above");
        let watermark = match fold {
            WatermarkFold::Min(w) => w,
            WatermarkFold::Unbounded => {
                let mut marks = Vec::new();
                data.history_marks(&mut marks);
                marks
            }
            WatermarkFold::ArityMismatch { expected, found } => {
                // Children disagree on how many versioned fields the data
                // tree has — the bookkeeping is inconsistent and any
                // watermark computed from it could over-truncate history a
                // live fork still needs. Refuse to GC this round.
                debug_assert!(
                    false,
                    "fork-mark arity mismatch across live children: \
                     expected {expected} marks, found {found}"
                );
                return;
            }
        };
        // The watermark is the minimum over *live* fork bases, which can
        // lie beyond the last merge commit (root-local ops recorded after
        // it, with every younger fork past them). Let a durability sink
        // journal the outstanding slice before it is dropped.
        if let Some(mut sink) = self.sink.take() {
            sink.truncating(self.data(), &watermark);
            self.sink = Some(sink);
        }
        let data = self.data.as_mut().expect("checked above");
        let mut cursor = 0;
        let dropped = data.truncate_history(&watermark, &mut cursor);
        if dropped > 0 {
            emit(&self.path, || EventKind::LogTruncated { dropped });
            if let Some(mut sink) = self.sink.take() {
                sink.truncated(self.data(), dropped);
                self.sink = Some(sink);
            }
        }
    }

    /// Perform the actual OT merge of one child's data, emitting the
    /// `MergeStarted` / `MergeFinished` observability pair around it.
    fn merge_child(&mut self, child_data: &D, child: TaskId, child_continues: bool) -> MergeStats {
        emit(&self.path, || EventKind::MergeStarted {
            child: self.path.child(child),
        });
        let merge_t0 = sm_obs::is_enabled().then(Instant::now);
        let stats = self
            .data_mut()
            .merge(child_data)
            .expect("merging a forked child cannot fail");
        if let Some(t0) = merge_t0 {
            let merge_nanos = t0.elapsed().as_nanos() as u64;
            let oplog_len = self.data().pending_ops();
            emit(&self.path, || EventKind::MergeFinished {
                child: self.path.child(child),
                child_continues,
                ops: MergeOpStats::from(&stats),
                oplog_len,
                merge_nanos,
            });
            // Surface the merge's internal phase breakdown (measured by
            // the mergeable layer, which has no task identity) as
            // properly attributed phase-timer events.
            sm_obs::timer::observe(&self.path, Phase::RebaseDelta, stats.delta_nanos);
            sm_obs::timer::observe(&self.path, Phase::RebaseCompact, stats.compact_nanos);
            sm_obs::timer::observe(&self.path, Phase::RebaseGrid, stats.grid_nanos);
            sm_obs::timer::observe(&self.path, Phase::StateApply, stats.apply_nanos);
        }
        // Journal the commit point: the merged ops are now part of this
        // task's committed log and no GC has run yet this round, so a
        // durability sink sees every committed operation exactly once.
        if let Some(mut sink) = self.sink.take() {
            sink.committed(self.data(), &self.path.child(child), child_continues);
            self.sink = Some(sink);
        }
        stats
    }
}

/// The ids of `set` in argument order with repeats dropped: each handle
/// names one child event per call no matter how often it is passed.
fn dedup_handle_ids(set: &[&TaskHandle]) -> Vec<TaskId> {
    let mut seen = BTreeSet::new();
    set.iter()
        .map(|h| h.id())
        .filter(|id| seen.insert(*id))
        .collect()
}

/// Outcome of folding live children's fork marks into a GC watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WatermarkFold {
    /// No live children: every history position is droppable.
    Unbounded,
    /// The element-wise minimum of all children's fork marks.
    Min(Vec<usize>),
    /// Two children reported different mark arities. A watermark computed
    /// by pairing only the common prefix could silently skip the slots of
    /// one child entirely and advance past a live fork — GC must not run.
    ArityMismatch {
        /// Arity of the first child's marks.
        expected: usize,
        /// The differing arity that was encountered.
        found: usize,
    },
}

/// Element-wise minimum over children's fork-mark vectors, refusing to
/// fold vectors of unequal arity.
///
/// Every child of the same parent walks the same data tree in
/// [`Mergeable::fork_marks`], so the vectors must all have one entry per
/// versioned field. A bare `zip` here would silently truncate to the
/// shorter vector on a mismatch and could wrongly advance the watermark;
/// instead the mismatch is surfaced and the caller skips this GC round.
fn fold_fork_watermark<'a>(marks: impl IntoIterator<Item = &'a [usize]>) -> WatermarkFold {
    let mut watermark: Option<Vec<usize>> = None;
    for child_marks in marks {
        match &mut watermark {
            None => watermark = Some(child_marks.to_vec()),
            Some(w) => {
                if w.len() != child_marks.len() {
                    return WatermarkFold::ArityMismatch {
                        expected: w.len(),
                        found: child_marks.len(),
                    };
                }
                for (slot, mark) in w.iter_mut().zip(child_marks) {
                    *slot = (*slot).min(*mark);
                }
            }
        }
    }
    match watermark {
        Some(w) => WatermarkFold::Min(w),
        None => WatermarkFold::Unbounded,
    }
}

#[cfg(test)]
mod watermark_tests {
    use super::*;

    #[test]
    fn no_children_is_unbounded() {
        assert_eq!(
            fold_fork_watermark(std::iter::empty()),
            WatermarkFold::Unbounded
        );
    }

    #[test]
    fn single_child_is_its_marks() {
        let a = [3usize, 7];
        assert_eq!(
            fold_fork_watermark([a.as_slice()]),
            WatermarkFold::Min(vec![3, 7])
        );
    }

    #[test]
    fn fold_is_elementwise_minimum() {
        let a = [5usize, 2, 9];
        let b = [3usize, 8, 9];
        let c = [4usize, 2, 1];
        assert_eq!(
            fold_fork_watermark([a.as_slice(), b.as_slice(), c.as_slice()]),
            WatermarkFold::Min(vec![3, 2, 1])
        );
    }

    #[test]
    fn arity_mismatch_is_detected_not_truncated() {
        // Regression: the old fold `zip`ed the vectors, so a short child
        // silently dropped the trailing slots and the watermark could
        // advance past marks it never compared. The fold must refuse.
        let a = [5usize, 2, 9];
        let b = [3usize];
        assert_eq!(
            fold_fork_watermark([a.as_slice(), b.as_slice()]),
            WatermarkFold::ArityMismatch {
                expected: 3,
                found: 1
            }
        );
        // Mismatch on a later child, after a successful fold step.
        let c = [1usize, 1, 1];
        let d = [0usize, 0, 0, 0];
        assert_eq!(
            fold_fork_watermark([a.as_slice(), c.as_slice(), d.as_slice()]),
            WatermarkFold::ArityMismatch {
                expected: 3,
                found: 4
            }
        );
    }

    #[test]
    fn longer_first_child_also_mismatches() {
        let a = [1usize];
        let b = [0usize, 4];
        assert_eq!(
            fold_fork_watermark([a.as_slice(), b.as_slice()]),
            WatermarkFold::ArityMismatch {
                expected: 1,
                found: 2
            }
        );
    }
}
