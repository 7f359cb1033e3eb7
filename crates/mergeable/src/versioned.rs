//! Shared fork/merge machinery behind every mergeable structure.
//!
//! A [`Versioned`] couples an OT state with the **operation log** the paper
//! requires: *"each task has to record the operations applied to its data
//! structures"* (§I). Forking hands the child the same state plus an empty
//! log and remembers where in the parent's history the fork happened
//! (`fork_base`). Merging rebases the child's log over everything the
//! parent committed since that point (its own operations **and** previously
//! merged siblings'), applies the rebased operations, and appends them to
//! the parent's history — which is exactly why later siblings transform
//! against earlier ones and the whole merge order is serialized.
//!
//! # Copy-on-write
//!
//! The paper flags the fork copy as its main constant overhead (~400 ms for
//! 20 tasks × 20 queues) and names copy-on-write as the future-work remedy.
//! Every fork here is copy-on-write: it is O(1) and a copy is paid
//! lazily, at the first post-fork write on either side, in **one layer**:
//!
//! - A state a copy of which costs no more than an `Arc` handle is kept
//!   **by value** ([`Operation::STATE_BY_VALUE`]). That is a drop-free
//!   state of at most 32 bytes (a counter, a digest or flag register),
//!   which a fork copies and a write edits in place, and the persistent
//!   trees behind `MList`, `MQueue` and `MText` (`ChunkTree`, `Rope`),
//!   which already are copy-on-write: a clone shares their root and an
//!   edit path-copies what it touches.
//! - Every other state (the maps, sets, the tree, a large register value)
//!   sits behind an [`Arc`] and is cloned at its first write while shared
//!   ([`Arc::make_mut`]).
//!
//! Only a write pays: a merge that applies nothing (a child that recorded
//! nothing, or a run the transform emptied) leaves the state shared, a
//! merge over a parent that committed nothing since the fork takes the
//! child's state as it is (a *fast-forward*; a by-value scalar applies the
//! run to its own copy instead, which costs less than taking any state),
//! forking a log nobody edited since its last fork is one `Arc` bump or a
//! copy as cheap, and [`Versioned::refork`] turns a merged child back into
//! a fork in place, keeping a state it already shares with the parent and
//! its log's allocation — so a `Sync` over a wide composite costs what the
//! child touched, not what the composite holds.
//!
//! A fork keeps the state it was handed from its first write on (one more
//! handle or by-value copy, taken where every state write goes through),
//! so [`Versioned::pristine`] rebuilds that copy only when asked — a
//! `Clone`d sibling's starting point. A root never keeps one.
//!
//! # Log compaction and truncation
//!
//! The rebase grid costs O(|committed|·|incoming|) pair transforms, so the
//! log is kept short three ways:
//!
//! 1. **Tail fusion** — [`Versioned::record`] fuses the new operation into
//!    the log tail ([`sm_ot::Operation::compose`] /
//!    [`sm_ot::Operation::annihilates`]) whenever no outstanding fork point
//!    sits at the end of the log (`fuse_barrier`); a fork point between two
//!    fused operations would otherwise see half an operation.
//! 2. **Merge-time compaction** — [`Versioned::merge`] compacts read-only
//!    views of both the committed slice and the child's log
//!    ([`sm_ot::compose::compact_cow`]) before rebasing; compaction rules
//!    are rebase-preserving, so the result is unchanged while the grid
//!    shrinks multiplicatively.
//! 3. **Prefix truncation** — once every live fork descends from a history
//!    position ≥ W, the prefix below W can never be rebased against again;
//!    [`Versioned::truncate_prefix`] drops it and `log_start` keeps indices
//!    absolute. The runtime drives this with a fork watermark (GC).
//!
//! # The merge memo
//!
//! Siblings merged one after another rebase over a committed slice that
//! only grows: everything since their common fork base, the earlier
//! siblings' runs included. So a sequence log keeps what its last
//! delta-path merge folded ([`sm_ot::delta::Memo`]), keyed on that
//! child's fork base and the history length the merge left: the fold of
//! the committed slice, paused. The next merge of a child with the same
//! fork base, with nothing written in between, resumes it over the run
//! appended since, as it sits in the log; any other merge rebuilds it. A
//! merged op that fuses into the slice's last op is folded onto it
//! (`Operation::delta_absorb`). A merged op that cancels that op, a record
//! that rewrites the log tail in place, a rollback and a refork drop it. The memo is not part of the
//! value: a clone, a fork and a snapshot start without one, and debug
//! builds check every rebase it serves against the uncached one.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sm_ot::compose::compact_cow;
use sm_ot::{seq, ApplyError, Operation};

use crate::persist::ReplayError;

/// Saturating elapsed nanoseconds since `t0`.
fn elapsed_nanos(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Statistics returned by a merge, aggregated across composite structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Operations the child had recorded since its fork.
    pub child_ops: usize,
    /// Operations actually applied after rebasing (collapsed duplicates
    /// make this smaller; splits make it larger).
    pub applied_ops: usize,
    /// Parent-side operations the child's log was transformed against.
    pub committed_ops: usize,
    /// Child-side operations after pre-rebase compaction.
    pub child_ops_compacted: usize,
    /// Parent-side operations after pre-rebase compaction.
    pub committed_ops_compacted: usize,
    /// Transformation-grid size actually paid: the product of the two
    /// compacted lengths. Compare with `child_ops * committed_ops` for the
    /// raw grid the merge would have cost without compaction. Zero when the
    /// delta path ran — no grid is built at all.
    pub grid_cells: usize,
    /// Rebases that took the O(m+n) sorted span-set path
    /// ([`sm_ot::delta`]). For composite structures this counts per-field
    /// rebases, so `delta_rebases + grid_rebases` is the total.
    pub delta_rebases: usize,
    /// Rebases that fell back to the pairwise transformation grid
    /// ([`sm_ot::seq`]): non-sequence algebras and logs containing
    /// operations a span-set cannot express (e.g. `ListOp::Set`). A merge
    /// where either side's log is empty rebases nothing and counts
    /// neither kind.
    pub grid_rebases: usize,
    /// Total normalized spans swept by delta-path rebases (incoming +
    /// committed sides): the m+n the linear transform actually paid.
    pub delta_spans: usize,
    /// Delta-path rebases that continued from the merge memo (module
    /// docs) instead of refolding the committed slice.
    pub memo_hits: usize,
    /// Nanoseconds spent in successful delta-path rebases. Timing fields
    /// are only populated while an `sm_obs` recorder is installed (one
    /// relaxed load otherwise) and are wall-clock: excluded from every
    /// determinism check, consumed by the phase-timer histograms.
    pub delta_nanos: u64,
    /// Nanoseconds spent in pre-rebase span compaction (grid path only).
    pub compact_nanos: u64,
    /// Nanoseconds spent in the pairwise transformation grid, including
    /// the declined delta-path attempt that preceded it.
    pub grid_nanos: u64,
    /// Nanoseconds spent applying the rebased operations to the state.
    pub apply_nanos: u64,
}

impl std::ops::AddAssign for MergeStats {
    fn add_assign(&mut self, rhs: Self) {
        self.child_ops += rhs.child_ops;
        self.applied_ops += rhs.applied_ops;
        self.committed_ops += rhs.committed_ops;
        self.child_ops_compacted += rhs.child_ops_compacted;
        self.committed_ops_compacted += rhs.committed_ops_compacted;
        self.grid_cells += rhs.grid_cells;
        self.delta_rebases += rhs.delta_rebases;
        self.grid_rebases += rhs.grid_rebases;
        self.delta_spans += rhs.delta_spans;
        self.memo_hits += rhs.memo_hits;
        self.delta_nanos += rhs.delta_nanos;
        self.compact_nanos += rhs.compact_nanos;
        self.grid_nanos += rhs.grid_nanos;
        self.apply_nanos += rhs.apply_nanos;
    }
}

/// The counts a `MergeFinished` event carries; the phase nanos surface
/// as their own `PhaseTimed` events instead.
impl From<&MergeStats> for sm_obs::MergeOpStats {
    fn from(s: &MergeStats) -> Self {
        sm_obs::MergeOpStats {
            child_ops: s.child_ops,
            applied_ops: s.applied_ops,
            committed_ops: s.committed_ops,
            child_ops_compacted: s.child_ops_compacted,
            committed_ops_compacted: s.committed_ops_compacted,
            grid_cells: s.grid_cells,
            delta_rebases: s.delta_rebases,
            grid_rebases: s.grid_rebases,
            delta_spans: s.delta_spans,
            memo_hits: s.memo_hits,
        }
    }
}

/// Error merging a child structure back into its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The child's fork point lies beyond the parent's history — the child
    /// was not forked from this structure (or histories were tampered with).
    InvalidForkPoint {
        /// The child's recorded fork base.
        fork_base: usize,
        /// The parent's current history length.
        parent_log_len: usize,
    },
    /// The child's fork point lies in a history prefix this structure has
    /// already garbage-collected — the fork watermark advanced past a live
    /// fork, which the runtime's bookkeeping is supposed to prevent.
    ForkPointTruncated {
        /// The child's recorded fork base.
        fork_base: usize,
        /// The first history position still retained.
        log_start: usize,
    },
    /// Composite structures disagree in shape (e.g. `Vec<M>` length drift).
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A rebased operation failed to apply — indicates a transformation
    /// function bug; surfaced loudly rather than silently dropped.
    Apply(ApplyError),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::InvalidForkPoint {
                fork_base,
                parent_log_len,
            } => write!(
                f,
                "child fork point {fork_base} exceeds parent history length {parent_log_len}; \
                 the child was not forked from this structure"
            ),
            MergeError::ForkPointTruncated {
                fork_base,
                log_start,
            } => write!(
                f,
                "child fork point {fork_base} precedes the retained history start {log_start}; \
                 the committed-log prefix it needs was garbage-collected"
            ),
            MergeError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MergeError::Apply(e) => write!(f, "rebased operation failed to apply: {e}"),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<ApplyError> for MergeError {
    fn from(e: ApplyError) -> Self {
        MergeError::Apply(e)
    }
}

/// OT state + operation log + fork bookkeeping.
///
/// This is the engine room; the public structures (`MList`, `MQueue`, …)
/// are thin typed façades over it.
///
/// Log positions are **absolute**: the in-memory `log` holds history
/// positions `log_start .. log_start + log.len()`; earlier positions were
/// truncated by [`Versioned::truncate_prefix`] and can never be needed
/// again once every live fork's base is ≥ `log_start`.
#[derive(Debug)]
pub struct Versioned<O: Operation> {
    state: Held<O::State>,
    log: Vec<O>,
    /// Absolute history position of `log[0]` (count of truncated ops).
    log_start: usize,
    /// Absolute history position this instance was forked at.
    fork_base: usize,
    /// Highest absolute fork base handed out by [`Versioned::fork`].
    /// Recording may only fuse into the log tail when the tail operation's
    /// absolute position is ≥ this barrier — otherwise a live fork point
    /// would end up *between* two fused operations.
    fuse_barrier: AtomicUsize,
    /// The state this instance was handed at its fork, for
    /// [`Versioned::pristine`].
    origin: Origin<O::State>,
    /// What the last delta-path merge folded (module docs, *The merge
    /// memo*). Boxed, so a log that never builds one — every fork, and
    /// every log of an algebra without a delta form — pays one pointer.
    memo: Option<Box<MergeMemo<O>>>,
}

/// The merge memo of one log (module docs).
#[derive(Debug)]
struct MergeMemo<O: Operation> {
    /// The `(fork base, history length)` `kept` is good for; `None` once
    /// a write made it good for nothing.
    key: Option<(usize, usize)>,
    kept: O::Memo,
}

/// Where a [`Versioned`] keeps its state (module docs, *Copy-on-write*).
#[derive(Clone)]
enum Held<S> {
    /// By value: copying it costs no more than an `Arc` handle
    /// ([`Operation::STATE_BY_VALUE`]).
    Value(S),
    /// Behind an `Arc`, copied at the first write while another handle
    /// holds it.
    Shared(Arc<S>),
}

impl<S> Held<S> {
    fn get(&self) -> &S {
        match self {
            Held::Value(state) => state,
            Held::Shared(state) => state,
        }
    }
}

impl<S: Clone> Held<S> {
    /// The state, for a write: a shared one is copied first if another
    /// handle holds it.
    fn make_mut(&mut self) -> &mut S {
        match self {
            Held::Value(state) => state,
            Held::Shared(state) => Arc::make_mut(state),
        }
    }
}

/// Prints the state alone, whichever way it is held.
impl<S: fmt::Debug> fmt::Debug for Held<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Whether `a` and `b` hold one state by identity: one `Arc`, or two
/// by-value states [`Operation::shares_state`] calls one. A by-value
/// scalar never is: it is copied, not shared.
fn same_state<O: Operation>(a: &Held<O::State>, b: &Held<O::State>) -> bool {
    match (a, b) {
        (Held::Value(a), Held::Value(b)) => O::shares_state(a, b),
        (Held::Shared(a), Held::Shared(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// What a [`Versioned`] remembers of the state its fork handed it.
#[derive(Debug, Clone)]
enum Origin<S> {
    /// Built by `new`: a root was handed no copy.
    Root,
    /// A fork that has not written its state yet: the current state is
    /// the one it was handed.
    Forked,
    /// A fork that has written: the state it was handed, kept at the
    /// first write.
    Kept(Held<S>),
}

impl<O: Operation> Clone for Versioned<O> {
    fn clone(&self) -> Self {
        Versioned {
            state: self.state.clone(),
            log: self.log.clone(),
            log_start: self.log_start,
            fork_base: self.fork_base,
            fuse_barrier: AtomicUsize::new(self.fuse_barrier.load(Ordering::Relaxed)),
            origin: self.origin.clone(),
            memo: None,
        }
    }
}

impl<O: Operation> Versioned<O> {
    /// Wrap an initial state. The log starts empty; this instance is a root
    /// (its `fork_base` is 0 and meaningless until it is itself a fork).
    pub fn new(state: O::State) -> Self {
        Versioned {
            state: Self::hold(state),
            log: Vec::new(),
            log_start: 0,
            fork_base: 0,
            fuse_barrier: AtomicUsize::new(0),
            origin: Origin::Root,
            memo: None,
        }
    }

    /// `state` held by value when the algebra says a copy costs no more
    /// than a handle, behind an `Arc` otherwise.
    fn hold(state: O::State) -> Held<O::State> {
        if O::STATE_BY_VALUE {
            Held::Value(state)
        } else {
            Held::Shared(Arc::new(state))
        }
    }

    /// Borrow the current state.
    pub fn state(&self) -> &O::State {
        self.state.get()
    }

    /// The operations recorded locally and still retained (since creation,
    /// fork, or the last prefix truncation).
    pub fn log(&self) -> &[O] {
        &self.log
    }

    /// Number of locally recorded operations still retained. Tail fusion
    /// makes this a count of *compacted* operations, not of `record` calls.
    pub fn pending_ops(&self) -> usize {
        self.log.len()
    }

    /// Total absolute history length (truncated prefix + retained log).
    pub fn history_len(&self) -> usize {
        self.log_start + self.log.len()
    }

    /// Absolute history position of the first retained operation.
    pub fn log_start(&self) -> usize {
        self.log_start
    }

    /// The (absolute) parent-history position this instance was forked at.
    pub fn fork_base(&self) -> usize {
        self.fork_base
    }

    /// Append `op` to the log, fusing or cancelling against the tail when
    /// the fork barrier allows it. Does not touch the state. A push that
    /// rewrites the tail in place drops the merge memo: the history
    /// length alone no longer tells the log apart from the one the memo
    /// folded.
    fn push_op(&mut self, op: O) {
        let barrier = self.fuse_barrier.load(Ordering::Relaxed);
        if push_fused(&mut self.log, self.log_start, op, barrier).is_some() {
            self.forget_memo();
        }
    }

    /// Make the merge memo good for nothing; its allocation stays for
    /// the next build.
    fn forget_memo(&mut self) {
        if let Some(memo) = &mut self.memo {
            memo.key = None;
        }
    }

    /// Append a run of already-applied operations to the log, checking the
    /// fuse barrier **once** for the whole run. The fusion semantics are
    /// identical to pushing one at a time: the barrier only ever guards the
    /// current log tail, and appending can only move the tail *past* the
    /// barrier, never back across it. Used by [`Versioned::merge`] for the
    /// rebased run; does not touch the state.
    ///
    /// `memo`, the merge memo this merge leaves, folded the log before the
    /// run. An op that fuses into the op the fold ended on is handed to it
    /// ([`Operation::delta_absorb`]); returns `false` when it could not
    /// follow one, or one cancelled that op.
    fn extend_ops(
        &mut self,
        ops: impl IntoIterator<Item = O>,
        mut memo: Option<&mut O::Memo>,
    ) -> bool {
        let barrier = self.fuse_barrier.load(Ordering::Relaxed);
        let folded = self.log.len();
        let mut followed = true;
        for op in ops {
            let len = self.log.len();
            let Some(op) = push_fused(&mut self.log, self.log_start, op, barrier) else {
                continue;
            };
            if let Some(memo) = memo.as_deref_mut().filter(|_| len <= folded) {
                followed &= self.log.len() == len && O::delta_absorb(memo, &op);
            }
        }
        followed
    }

    /// Apply and record a locally generated operation.
    ///
    /// # Errors
    /// Fails if the operation does not apply to the current state; the
    /// state is left unchanged and nothing is recorded.
    pub fn record(&mut self, op: O) -> Result<(), ApplyError> {
        op.apply(self.state_slot().make_mut())?;
        self.push_op(op);
        Ok(())
    }

    /// The held state, for a write. Every state write goes through
    /// here: a fork's first write keeps a copy of the state it was handed
    /// (a handle, or a by-value copy as cheap), which
    /// [`Versioned::pristine`] returns.
    fn state_slot(&mut self) -> &mut Held<O::State> {
        if let Origin::Forked = self.origin {
            self.origin = Origin::Kept(self.state.clone());
        }
        &mut self.state
    }

    /// Apply and record an operation that the caller has already validated.
    ///
    /// # Panics
    /// Panics if the operation fails to apply — callers use this after
    /// checking preconditions against the current state.
    pub fn record_validated(&mut self, op: O) {
        self.record(op)
            .expect("operation was validated against the current state");
    }

    /// Replace the state wholesale without recording an operation.
    ///
    /// Recovery-only (`crate::persist`): journal replay may reconstruct
    /// the post-replay state through a batched side path and install the
    /// result here. The log stays empty, which is indistinguishable from
    /// a fully GC'd history — both export future committed slices
    /// relative to marks captured after the install.
    pub(crate) fn set_state(&mut self, state: O::State) {
        *self.state_slot() = Self::hold(state);
    }

    /// Move the state out, leaving an empty one behind, without recording
    /// an operation: recovery's list replay session owns what it replays
    /// into and hands it back through [`Versioned::set_state`]. A state
    /// nobody shares moves without a copy, so every later write to it is
    /// copy-free too.
    pub(crate) fn take_state(&mut self) -> O::State
    where
        O::State: Default,
    {
        std::mem::take(self.state_slot().make_mut())
    }

    /// Record `op` while performing the state mutation through `mutate`,
    /// which must have exactly the effect `op.apply` would have. This gives
    /// façades a single copy-on-write state access for operations that also
    /// need to *read* the state (e.g. remove-and-return), instead of one
    /// access to read and a second inside `record`.
    pub fn record_with<R>(&mut self, op: O, mutate: impl FnOnce(&mut O::State) -> R) -> R {
        let result = mutate(self.state_slot().make_mut());
        self.push_op(op);
        result
    }

    /// Fork a child copy: same state, empty log, fork point at the current
    /// end of this instance's history. O(1): the state is shared, or
    /// copied where a copy costs no more than a handle.
    ///
    /// Forking also raises the fuse barrier: operations recorded here after
    /// the fork will not fuse across this fork point, so the child can
    /// always be rebased against an exact suffix of the history. The
    /// barrier only ever rises between `&mut` calls, so when it is already
    /// here (every fork after the first of an unedited log) the fork
    /// writes nothing shared: one load and the `Arc` bump.
    #[must_use]
    pub fn fork(&self) -> Self {
        Versioned {
            state: self.state.clone(),
            log: Vec::new(),
            log_start: 0,
            fork_base: self.fork_point(),
            fuse_barrier: AtomicUsize::new(0),
            origin: Origin::Forked,
            memo: None,
        }
    }

    /// The fork point a fork taken now gets: the present history length,
    /// with the fuse barrier raised to it (see [`Versioned::fork`]).
    fn fork_point(&self) -> usize {
        let here = self.history_len();
        if self.fuse_barrier.load(Ordering::Relaxed) < here {
            self.fuse_barrier.fetch_max(here, Ordering::Relaxed);
        }
        here
    }

    /// Turn `self` into `parent.fork()` in place — what a child that
    /// `parent` has just merged continues on. The state is kept when it
    /// already is the parent's (nobody wrote it since the last fork or
    /// refork; a by-value scalar is copied instead), so an untouched log
    /// costs no allocation: the log keeps its buffer, and the kept origin
    /// is dropped.
    pub fn refork(&mut self, parent: &Self) {
        if !same_state::<O>(&self.state, &parent.state) {
            self.state = parent.state.clone();
        }
        self.log.clear();
        self.log_start = 0;
        self.fork_base = parent.fork_point();
        *self.fuse_barrier.get_mut() = 0;
        self.origin = Origin::Forked;
        self.memo = None;
    }

    /// The copy this instance's fork handed it: the state as of the fork
    /// (or the last [`Versioned::refork`]), an empty log, the same fork
    /// point — field for field what a `clone()` taken right after the fork
    /// would hold. O(1): the state is shared. A root, which was handed
    /// nothing, returns its current state.
    #[must_use]
    pub fn pristine(&self) -> Self {
        let state = match &self.origin {
            Origin::Kept(state) => state.clone(),
            Origin::Root | Origin::Forked => self.state.clone(),
        };
        Versioned {
            state,
            log: Vec::new(),
            log_start: 0,
            fork_base: self.fork_base,
            fuse_barrier: AtomicUsize::new(0),
            origin: match self.origin {
                Origin::Root => Origin::Root,
                _ => Origin::Forked,
            },
            memo: None,
        }
    }

    /// A child's fork point must lie inside this instance's retained
    /// history.
    fn check_fork_point(&self, fork_base: usize) -> Result<(), MergeError> {
        if fork_base > self.history_len() {
            return Err(MergeError::InvalidForkPoint {
                fork_base,
                parent_log_len: self.history_len(),
            });
        }
        if fork_base < self.log_start {
            return Err(MergeError::ForkPointTruncated {
                fork_base,
                log_start: self.log_start,
            });
        }
        Ok(())
    }

    /// Merge a forked child back: rebase its log over everything committed
    /// here since the fork, apply, and append to this history.
    ///
    /// When both sides are non-empty and the algebra supports it, the
    /// rebase takes the O(m+n) sorted span-set path
    /// ([`sm_ot::Operation::delta_rebase`]) — both logs fold into
    /// normalized deltas over the fork-base coordinate space and transform
    /// in one linear sweep, no grid at all. Otherwise both sides are
    /// compacted first (read-only; borrowed unchanged when already compact)
    /// and rebased over the pairwise transformation grid; compaction rules
    /// are rebase-preserving, so the result is unchanged while the grid
    /// shrinks multiplicatively.
    ///
    /// Three cases, after the fork point is validated:
    ///
    /// - **Empty log.** A child that recorded nothing owes the parent
    ///   nothing: O(1), no rebase, no scan of the committed slice, no
    ///   allocation, and the state stays shared with every fork that
    ///   shares it. Its [`MergeStats`] count no rebase of either kind;
    ///   `committed_ops` (and `committed_ops_compacted`) read
    ///   `history_len() − fork_base` off the history length.
    /// - **Fast-forward.** Nothing was committed here since the fork
    ///   (`fork_base == history_len()`) and this state is the very one
    ///   the child was handed (one `Arc`, or one chunk-tree root; a
    ///   by-value scalar never answers yes: applying to it in place is
    ///   cheaper than any handle):
    ///   the child's state already is this state plus its log, so it is
    ///   taken as it is — no apply, no copy-on-write copy. The rebase
    ///   still runs, so the appended run and the [`MergeStats`] are those
    ///   of the replay.
    /// - **Rebase.** Otherwise the child's log is rebased over what was
    ///   committed since the fork, applied and appended.
    ///
    /// A delta-path merge leaves the merge memo (module docs) for the
    /// next sibling: a child with the same fork base, merged with nothing
    /// written here in between, rebases from it. The child that recorded
    /// nothing returns before the memo is looked at.
    ///
    /// Merging never aborts on conflicting operations — that is the OT
    /// guarantee; the error cases are structural misuse only.
    pub fn merge(&mut self, child: &Self) -> Result<MergeStats, MergeError> {
        let mut stats = MergeStats::default();
        self.merge_into(child, &mut stats)?;
        Ok(stats)
    }

    /// [`Versioned::merge`], adding its [`MergeStats`] to `stats`: what
    /// a composite's walk calls, so a field the child never wrote costs
    /// the fork-point check and two additions.
    pub(crate) fn merge_into(
        &mut self,
        child: &Self,
        stats: &mut MergeStats,
    ) -> Result<(), MergeError> {
        // Fast-forward (see `merge`). `log_start == 0`: a child that
        // dropped a prefix of its own log no longer holds every change
        // since its fork, so its state is not what replaying it gives.
        let fast_forward = match &child.origin {
            Origin::Kept(handed)
                if child.fork_base == self.history_len()
                    && child.log_start == 0
                    && same_state::<O>(handed, &self.state) =>
            {
                Some(&child.state)
            }
            _ => None,
        };
        self.merge_log_at(child.fork_base, &child.log, fast_forward, stats)
    }

    /// Merge the run a clone of `base` would hold after recording `run`,
    /// without building that clone: `run` is checked against `base`'s
    /// state ([`Operation::check_run`]), never applied to it, and fused
    /// exactly as [`Versioned::record`] fuses, so the result, the
    /// history and the [`MergeStats`] are those of
    /// `clone + record each + merge`. This is how a log that arrives
    /// serialized — a session commit made against `base` — merges
    /// (`Persist::merge_log`).
    ///
    /// # Errors
    /// [`ReplayError::Apply`] when `run` does not apply in order to
    /// `base`'s state; nothing here is touched then.
    /// [`ReplayError::Merge`] when the merge itself fails.
    pub fn merge_run(&mut self, base: &Self, run: Vec<O>) -> Result<MergeStats, ReplayError> {
        O::check_run(base.state(), &run).map_err(|e| ReplayError::Apply(e.to_string()))?;
        let barrier = base.fuse_barrier.load(Ordering::Relaxed);
        let mut log = Vec::with_capacity(base.log.len() + run.len());
        log.extend_from_slice(&base.log);
        for op in run {
            push_fused(&mut log, base.log_start, op, barrier);
        }
        // No child state exists to fast-forward to: the run is applied.
        let mut stats = MergeStats::default();
        self.merge_log_at(base.fork_base, &log, None, &mut stats)
            .map_err(ReplayError::Merge)?;
        Ok(stats)
    }

    /// The one merge body behind [`Versioned::merge_into`] and
    /// [`Versioned::merge_run`]: rebase `child_log`, recorded by a fork
    /// taken at `fork_base`, over what was committed here since, apply
    /// it (or install `fast_forward`, the child's state, which already
    /// holds it) and append it, adding the stats to `stats`.
    fn merge_log_at(
        &mut self,
        fork_base: usize,
        child_log: &[O],
        fast_forward: Option<&Held<O::State>>,
        stats: &mut MergeStats,
    ) -> Result<(), MergeError> {
        self.check_fork_point(fork_base)?;
        if child_log.is_empty() {
            let committed_ops = self.history_len() - fork_base;
            stats.committed_ops += committed_ops;
            stats.committed_ops_compacted += committed_ops;
            return Ok(());
        }
        // Phase timing is live-telemetry only: clocks are read solely
        // while an sm_obs recorder is installed, so the uninstalled
        // merge path pays one relaxed load and no syscalls.
        let timing = sm_obs::is_enabled();
        // Taken out for the merge: a failed apply leaves none behind.
        let mut memo = self.memo.take();
        let key = (fork_base, self.history_len());
        let reuse = memo.as_mut().is_some_and(|m| m.key.take() == Some(key));
        let mut fresh = O::Memo::default();
        let kept = memo.as_mut().map_or(&mut fresh, |m| &mut m.kept);
        let committed_raw = &self.log[fork_base - self.log_start..];
        let (rebased, mut merged) = rebase_over(child_log, committed_raw, kept, reuse, timing);
        if cfg!(debug_assertions) && reuse {
            let (expect, _) = rebase_over(
                child_log,
                committed_raw,
                &mut O::Memo::default(),
                false,
                false,
            );
            debug_assert_eq!(
                format!("{rebased:?}"),
                format!("{expect:?}"),
                "a rebase from the merge memo diverged from the uncached one"
            );
        }
        if let Some(state) = fast_forward {
            *self.state_slot() = state.clone();
        } else {
            let apply_t0 = timing.then(std::time::Instant::now);
            self.apply_run(&rebased)?;
            merged.apply_nanos = apply_t0.map_or(0, elapsed_nanos);
        }
        let keep = merged.delta_rebases == 1;
        let followed = match rebased {
            Cow::Borrowed(run) => self.extend_ops(run.iter().cloned(), keep.then_some(&mut *kept)),
            Cow::Owned(run) => self.extend_ops(run, keep.then_some(&mut *kept)),
        };
        if keep && followed {
            let memo = memo.get_or_insert_with(|| {
                Box::new(MergeMemo {
                    key: None,
                    kept: fresh,
                })
            });
            memo.key = Some((fork_base, self.history_len()));
        }
        self.memo = memo;
        *stats += merged;
        Ok(())
    }

    /// Apply a rebased run to the state. A run the transform emptied
    /// (every operation a duplicate of a committed one) must not reach
    /// the state at all: that would copy a state the forks share for no
    /// edit.
    fn apply_run(&mut self, run: &[O]) -> Result<(), ApplyError> {
        if run.is_empty() {
            return Ok(());
        }
        let state = self.state_slot().make_mut();
        for op in run {
            op.apply(state)?;
        }
        Ok(())
    }

    /// Seal the current history: raise the fuse barrier to the present
    /// history length so no later [`Versioned::record`] can fuse into (or
    /// annihilate) an operation already in the log.
    ///
    /// Durability needs this: a journal that has persisted the log up to
    /// position P must be able to assume those operations are immutable,
    /// but tail fusion rewrites the last log entry in place. Sealing at
    /// every journal commit makes the persisted prefix append-only.
    /// Takes `&self` — the barrier is atomic, exactly like the raise in
    /// [`Versioned::fork`].
    pub fn seal(&self) {
        self.fuse_barrier
            .fetch_max(self.history_len(), Ordering::Relaxed);
    }

    /// Drop every retained operation below the absolute history position
    /// `watermark`; returns how many were dropped. Callers must guarantee
    /// no live fork has a base below `watermark` (the runtime computes the
    /// minimum over live forks). Positions stay absolute via `log_start`,
    /// so later merges and forks are byte-identical to the untruncated run.
    pub fn truncate_prefix(&mut self, watermark: usize) -> usize {
        let keep_from = watermark.saturating_sub(self.log_start).min(self.log.len());
        if keep_from == 0 {
            return 0;
        }
        self.log.drain(..keep_from);
        self.log_start += keep_from;
        // What a memo no child forked inside the retained history can
        // reuse holds is freed now, not at the next build.
        if let Some(memo) = self.memo.as_deref_mut() {
            if memo.key.is_none_or(|(base, _)| base < self.log_start) {
                memo.key = None;
                memo.kept = O::Memo::default();
            }
        }
        keep_from
    }

    /// Undo everything recorded here since `fork` was taken: the state,
    /// the retained log and the fuse barrier go back to what they were
    /// right after `self.fork()` returned `fork`, so whatever is recorded
    /// next fuses, numbers and exports exactly as if the undone operations
    /// had never happened. O(1) plus dropping the undone log suffix.
    ///
    /// `fork` must be an **unmodified** fork of `self` (nothing recorded on
    /// it), `self` must not have been truncated past its fork point, and
    /// every fork of `self` taken after it is invalidated.
    ///
    /// # Panics
    /// Panics if `fork`'s fork point lies outside the retained history —
    /// it was not forked from this structure, or the prefix was truncated
    /// past it.
    pub fn rollback_to(&mut self, fork: &Self) {
        assert!(
            (self.log_start..=self.history_len()).contains(&fork.fork_base),
            "rollback target {} outside retained history {}..={}",
            fork.fork_base,
            self.log_start,
            self.history_len()
        );
        assert!(fork.log.is_empty(), "rollback target was modified");
        *self.state_slot() = fork.state.clone();
        self.log.truncate(fork.fork_base - self.log_start);
        // The log may grow back to the memo's length with other ops.
        self.forget_memo();
        // `fork()` left the barrier exactly here (barrier ≤ history length
        // always); seals and later forks since then are being undone.
        *self.fuse_barrier.get_mut() = fork.fork_base;
    }

    /// Whether `self` and `other` hold one state by identity: a fork and
    /// the instance it was forked from (or fast-forwarded into) while
    /// neither has written, one `Arc` or one chunk-tree root. A state
    /// kept by value because a copy is as cheap as a handle (a counter, a
    /// small register) is copied, never shared, so it always answers
    /// `false`. Diagnostic; the copy-on-write tests read it.
    pub fn shares_state_with(&self, other: &Self) -> bool {
        same_state::<O>(&self.state, &other.state)
    }
}

/// Append `op` to `log`, whose first entry sits at history position
/// `log_start`, fusing or cancelling it against the tail when the tail
/// lies above the fuse `barrier`: the one fusion rule of every recorded
/// log. Returns `op` when it fused into the tail or cancelled it instead
/// of landing as an entry of its own.
fn push_fused<O: Operation>(
    log: &mut Vec<O>,
    log_start: usize,
    op: O,
    barrier: usize,
) -> Option<O> {
    let fusible = log_start + log.len() > barrier;
    if let Some(last) = log.last_mut().filter(|_| fusible) {
        if Operation::annihilates(last, &op) {
            log.pop();
            return Some(op);
        }
        if let Some(fused) = Operation::compose(last, &op) {
            *last = fused;
            return Some(op);
        }
    }
    log.push(op);
    None
}

/// Rebase `child_log` over `committed_raw` (both rooted at the same fork
/// base): the delta fast path when the algebra supports it — from `memo`
/// when `reuse` says it covers `committed_raw` — the compacted pairwise
/// grid otherwise. This is the single rebase kernel: [`Versioned::merge`]
/// runs it, and debug builds re-run it uncached for every rebase the memo
/// served. Over an empty `committed_raw` the run is the compacted child
/// log, borrowed when it already was compact, so the merge applies and
/// appends it without a temporary copy.
///
/// `timing` gates the wall-clock fields (live telemetry only; stats
/// nanos stay zero otherwise and no clock is read).
fn rebase_over<'a, O: Operation>(
    child_log: &'a [O],
    committed_raw: &[O],
    memo: &mut O::Memo,
    reuse: bool,
    timing: bool,
) -> (Cow<'a, [O]>, MergeStats) {
    let attempt_t0 = timing.then(std::time::Instant::now);
    let delta = if !child_log.is_empty() && !committed_raw.is_empty() {
        O::delta_rebase(child_log, committed_raw, memo, reuse)
    } else {
        None
    };
    let attempt_nanos = attempt_t0.map_or(0, elapsed_nanos);
    match delta {
        Some((rebased, d)) => {
            let stats = MergeStats {
                child_ops: child_log.len(),
                applied_ops: rebased.len(),
                committed_ops: committed_raw.len(),
                // The delta path never compacts: normalization
                // subsumes it. Report the raw lengths.
                child_ops_compacted: child_log.len(),
                committed_ops_compacted: committed_raw.len(),
                grid_cells: 0,
                delta_rebases: 1,
                grid_rebases: 0,
                delta_spans: d.incoming_spans + d.committed_spans,
                memo_hits: usize::from(reuse),
                delta_nanos: attempt_nanos,
                ..MergeStats::default()
            };
            (Cow::Owned(rebased), stats)
        }
        None => {
            let compact_t0 = timing.then(std::time::Instant::now);
            let committed: Cow<'_, [O]> = compact_cow(committed_raw);
            let incoming: Cow<'a, [O]> = compact_cow(child_log);
            let compact_nanos = compact_t0.map_or(0, elapsed_nanos);
            let grid_t0 = timing.then(std::time::Instant::now);
            let (incoming_len, committed_len) = (incoming.len(), committed.len());
            // Over nothing committed the run is the compacted log itself,
            // borrowed when it already was compact: no copy to append.
            let rebased = if committed.is_empty() {
                incoming
            } else {
                Cow::Owned(seq::rebase(&incoming, &committed))
            };
            let stats = MergeStats {
                child_ops: child_log.len(),
                applied_ops: rebased.len(),
                committed_ops: committed_raw.len(),
                child_ops_compacted: incoming_len,
                committed_ops_compacted: committed_len,
                grid_cells: incoming_len * committed_len,
                delta_rebases: 0,
                // With either side empty there was nothing to rebase.
                grid_rebases: usize::from(!child_log.is_empty() && !committed_raw.is_empty()),
                delta_spans: 0,
                compact_nanos,
                // The declined delta attempt is part of what the
                // grid path cost this merge.
                grid_nanos: attempt_nanos + grid_t0.map_or(0, elapsed_nanos),
                ..MergeStats::default()
            };
            (rebased, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_ot::list::ListOp;
    use sm_ot::state::ChunkTree;

    type V = Versioned<ListOp<u32>>;

    fn ct(v: Vec<u32>) -> ChunkTree<u32> {
        ChunkTree::from_vec(v)
    }

    #[test]
    fn record_applies_and_logs() {
        let mut v = V::new(ct(vec![1, 2, 3]));
        v.record(ListOp::Insert(3, 4)).unwrap();
        assert_eq!(v.state(), &vec![1, 2, 3, 4]);
        assert_eq!(v.pending_ops(), 1);
    }

    #[test]
    fn record_failure_leaves_state_and_log_untouched() {
        let mut v = V::new(ct(vec![1]));
        assert!(v.record(ListOp::Delete(5)).is_err());
        assert_eq!(v.state(), &vec![1]);
        assert_eq!(v.pending_ops(), 0);
    }

    #[test]
    fn contiguous_records_fuse_in_the_log() {
        let mut v = V::new(ct(vec![]));
        for i in 0..10 {
            v.record(ListOp::Insert(i as usize, i)).unwrap();
        }
        assert_eq!(v.state().len(), 10);
        assert_eq!(v.pending_ops(), 1, "contiguous appends fuse to one run");
        assert_eq!(v.history_len(), 1);
    }

    #[test]
    fn insert_then_delete_annihilates_in_the_log() {
        let mut v = V::new(ct(vec![1, 2]));
        v.record(ListOp::Insert(1, 9)).unwrap();
        v.record(ListOp::Delete(1)).unwrap();
        assert_eq!(v.state(), &vec![1, 2]);
        assert_eq!(v.pending_ops(), 0);
    }

    #[test]
    fn fork_barrier_blocks_fusion_across_fork_points() {
        let mut v = V::new(ct(vec![]));
        v.record(ListOp::Insert(0, 1)).unwrap();
        let mut child = v.fork(); // fork point at history position 1
        v.record(ListOp::Insert(1, 2)).unwrap();
        assert_eq!(
            v.pending_ops(),
            2,
            "append after the fork must not fuse across the fork point"
        );
        child.record(ListOp::Insert(1, 3)).unwrap();
        v.merge(&child).unwrap();
        assert_eq!(v.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn seal_blocks_fusion_into_persisted_prefix() {
        let mut v = V::new(ct(vec![]));
        v.record(ListOp::Insert(0, 1)).unwrap();
        v.seal(); // a journal persisted the log up to here
        v.record(ListOp::Insert(1, 2)).unwrap();
        assert_eq!(
            v.pending_ops(),
            2,
            "an append after a seal must not rewrite the sealed tail"
        );
        // Beyond the seal, fusion resumes as usual.
        v.record(ListOp::Insert(2, 3)).unwrap();
        assert_eq!(v.pending_ops(), 2);
        assert_eq!(v.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn record_with_mutates_once_and_logs() {
        let mut v = V::new(ct(vec![10, 20, 30]));
        let removed = v.record_with(ListOp::Delete(1), |s| s.remove(1));
        assert_eq!(removed, 20);
        assert_eq!(v.state(), &vec![10, 30]);
        assert_eq!(v.pending_ops(), 1);
    }

    #[test]
    fn fork_and_merge_disjoint_edits() {
        let mut parent = V::new(ct(vec![1, 2, 3]));
        let mut child = parent.fork();
        child.record(ListOp::Insert(3, 5)).unwrap();
        parent.record(ListOp::Insert(3, 4)).unwrap();

        let stats = parent.merge(&child).unwrap();
        // Parent appended 4 first (committed), child's append transformed
        // after it: [1,2,3,4,5] — the paper's listing 1 result.
        assert_eq!(parent.state(), &vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.child_ops, 1);
        assert_eq!(stats.applied_ops, 1);
        assert_eq!(stats.committed_ops, 1);
        assert_eq!(stats.child_ops_compacted, 1);
        assert_eq!(stats.committed_ops_compacted, 1);
        // Pure sequence logs take the span-set path: no grid is built.
        assert_eq!(stats.grid_cells, 0);
        assert_eq!(stats.delta_rebases, 1);
        assert_eq!(stats.grid_rebases, 0);
        assert!(stats.delta_spans > 0);
    }

    #[test]
    fn merge_with_set_falls_back_to_the_grid() {
        let mut parent = V::new(ct(vec![1, 2, 3]));
        let mut child = parent.fork();
        child.record(ListOp::Set(0, 9)).unwrap();
        parent.record(ListOp::Insert(0, 7)).unwrap();
        let stats = parent.merge(&child).unwrap();
        assert_eq!(parent.state(), &vec![7, 9, 2, 3]);
        assert_eq!(stats.delta_rebases, 0);
        assert_eq!(stats.grid_rebases, 1);
        assert_eq!(stats.grid_cells, 1);
    }

    #[test]
    fn trivial_merge_counts_no_rebase() {
        let mut parent = V::new(ct(vec![1]));
        let child = parent.fork();
        parent.record(ListOp::Insert(1, 2)).unwrap();
        let stats = parent.merge(&child).unwrap();
        assert_eq!(stats.delta_rebases, 0);
        assert_eq!(stats.grid_rebases, 0);
        assert_eq!(stats.delta_spans, 0);
        // An empty committed slice rebases nothing either.
        let mut child = parent.fork();
        child.record(ListOp::Insert(0, 3)).unwrap();
        let stats = parent.merge(&child).unwrap();
        assert_eq!((stats.delta_rebases, stats.grid_rebases), (0, 0));
        assert_eq!(parent.state(), &vec![3, 1, 2]);
    }

    #[test]
    fn delta_and_grid_paths_agree_on_scattered_logs() {
        // Drive the same scattered merge with the real (delta) path and
        // with a Set-poisoned committed log forced onto the grid, after
        // which the Set is overwritten back — both must agree on the
        // sequence part. Cheap inline sanity check; the exhaustive
        // differential suite lives in tests/delta_rebase.rs.
        let mut parent = V::new((0..16).collect::<ChunkTree<u32>>());
        let mut child = parent.fork();
        for (i, pos) in [3usize, 11, 7, 0, 14, 5].iter().enumerate() {
            child.record(ListOp::Insert(*pos, 100 + i as u32)).unwrap();
            parent.record(ListOp::Insert(*pos, 200 + i as u32)).unwrap();
        }
        let mut reference = parent.clone();
        let stats = parent.merge(&child).unwrap();
        assert_eq!(stats.delta_rebases, 1);
        assert_eq!(stats.grid_cells, 0);

        // Reference: rebase the same logs through the grid directly.
        let committed = reference.log()[child.fork_base()..].to_vec();
        let rebased = sm_ot::seq::rebase(child.log(), &committed);
        for op in &rebased {
            reference.record(op.clone()).unwrap();
        }
        assert_eq!(parent.state(), reference.state());
    }

    #[test]
    fn sibling_merges_serialize_in_merge_order() {
        let mut parent = V::new(ct(vec![]));
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        c1.record(ListOp::Insert(0, 10)).unwrap();
        c2.record(ListOp::Insert(0, 20)).unwrap();

        parent.merge(&c1).unwrap();
        parent.merge(&c2).unwrap();
        // c1 merged first: its insert is committed before c2's, and c2's
        // tie-break shifts right.
        assert_eq!(parent.state(), &vec![10, 20]);
    }

    #[test]
    fn merge_order_matters_and_is_deterministic() {
        // merge(x, y) != merge(y, x) in general (§II-A of the paper) —
        // but each order always gives the same answer.
        for _ in 0..5 {
            let mut p1 = V::new(ct(vec![]));
            let mut a = p1.fork();
            let mut b = p1.fork();
            a.record(ListOp::Insert(0, 1)).unwrap();
            b.record(ListOp::Insert(0, 2)).unwrap();
            p1.merge(&a).unwrap();
            p1.merge(&b).unwrap();
            assert_eq!(p1.state(), &vec![1, 2]);

            let mut p2 = V::new(ct(vec![]));
            let mut a = p2.fork();
            let mut b = p2.fork();
            a.record(ListOp::Insert(0, 1)).unwrap();
            b.record(ListOp::Insert(0, 2)).unwrap();
            p2.merge(&b).unwrap();
            p2.merge(&a).unwrap();
            assert_eq!(p2.state(), &vec![2, 1]);
        }
    }

    #[test]
    fn nested_fork_merge() {
        // Child forks a grandchild; the grandchild merges into the child,
        // then the child into the parent.
        let mut parent = V::new(ct(vec![0]));
        let mut child = parent.fork();
        let mut grandchild = child.fork();
        grandchild.record(ListOp::Insert(1, 2)).unwrap();
        child.record(ListOp::Insert(1, 1)).unwrap();
        child.merge(&grandchild).unwrap();
        assert_eq!(child.state(), &vec![0, 1, 2]);

        parent.record(ListOp::Insert(0, 9)).unwrap();
        parent.merge(&child).unwrap();
        assert_eq!(parent.state(), &vec![9, 0, 1, 2]);
    }

    #[test]
    fn invalid_fork_point_rejected() {
        let mut parent = V::new(ct(vec![]));
        let mut other = V::new(ct(vec![]));
        other.record(ListOp::Insert(0, 1)).unwrap();
        let child = other.fork(); // fork_base = 1
        let err = parent.merge(&child).unwrap_err();
        assert!(matches!(
            err,
            MergeError::InvalidForkPoint {
                fork_base: 1,
                parent_log_len: 0
            }
        ));
    }

    #[test]
    fn truncated_fork_point_rejected() {
        let mut parent = V::new(ct(vec![]));
        let mut child = parent.fork(); // fork_base = 0
        child.record(ListOp::Insert(0, 1)).unwrap();
        parent.record(ListOp::Insert(0, 2)).unwrap();
        parent.record(ListOp::Set(0, 3)).unwrap();
        assert_eq!(parent.truncate_prefix(parent.history_len()), 1);
        let err = parent.merge(&child).unwrap_err();
        assert!(matches!(
            err,
            MergeError::ForkPointTruncated {
                fork_base: 0,
                log_start: 1
            }
        ));
    }

    #[test]
    fn truncation_is_transparent_to_later_merges() {
        // Two parents with identical histories; one truncates the prefix
        // below the live fork's base. Subsequent merges must be identical.
        let build = |truncate: bool| {
            let mut parent = V::new(ct(vec![]));
            parent.record(ListOp::Insert(0, 1)).unwrap();
            parent.record(ListOp::Insert(0, 2)).unwrap();
            let mut child = parent.fork(); // fork_base = history_len()
            if truncate {
                let dropped = parent.truncate_prefix(child.fork_base());
                assert!(dropped > 0);
            }
            child.record(ListOp::Insert(0, 3)).unwrap();
            parent.record(ListOp::Insert(0, 4)).unwrap();
            parent.merge(&child).unwrap();
            parent.state().clone()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn rollback_restores_state_log_and_fuse_barrier() {
        let mut v = V::new(ct(vec![]));
        v.record(ListOp::Insert(0, 1)).unwrap();
        let base = v.fork(); // barrier = 1
        let mut child = base.clone();
        child.record(ListOp::Insert(1, 2)).unwrap();
        v.merge(&child).unwrap();
        v.seal(); // barrier = 2, as a journal commit would leave it
        v.rollback_to(&base);
        assert_eq!(v.state(), &vec![1]);
        assert_eq!((v.pending_ops(), v.history_len()), (1, 1));
        // With the barrier back at 1 the next two appends fuse with each
        // other (a barrier left at 2 would keep them apart) but not into
        // the operation below the fork point.
        v.record(ListOp::Insert(1, 3)).unwrap();
        v.record(ListOp::Insert(2, 4)).unwrap();
        assert_eq!(v.pending_ops(), 2);
        // The fork is still a valid merge base afterwards.
        v.merge(&child).unwrap();
        assert_eq!(v.state(), &vec![1, 3, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "outside retained history")]
    fn rollback_past_a_truncated_fork_point_panics() {
        let mut v = V::new(ct(vec![]));
        let base = v.fork(); // fork_base = 0
        v.record(ListOp::Insert(0, 1)).unwrap();
        v.truncate_prefix(v.history_len());
        v.rollback_to(&base);
    }

    #[test]
    fn cow_fork_shares_until_write() {
        let mut parent = V::new((0..1000).collect::<ChunkTree<u32>>());
        let child = parent.fork();
        assert!(parent.shares_state_with(&child));
        parent.record(ListOp::Set(0, 99)).unwrap();
        assert!(
            !parent.shares_state_with(&child),
            "write must unshare the writer"
        );
        assert_eq!(child.state()[0], 0, "child view unaffected by parent write");
    }

    #[test]
    fn a_scalar_is_kept_by_value_and_merges_by_applying() {
        use sm_ot::counter::CounterOp;
        let mut parent = Versioned::new(5i64);
        assert!(matches!(parent.state, Held::Value(5)));
        let mut child = parent.fork();
        assert!(!parent.shares_state_with(&child), "copied, not shared");
        child.record(CounterOp::add(2)).unwrap();
        // Nothing committed since the fork, yet no fast-forward: the
        // run applies to the parent's own value.
        let stats = parent.merge(&child).unwrap();
        assert_eq!((*parent.state(), stats.applied_ops), (7, 1));
        assert_eq!(*child.pristine().state(), 5);
        child.refork(&parent);
        assert_eq!(*child.state(), 7);
    }

    #[test]
    fn duplicate_delete_collapses_across_merge() {
        let mut parent = V::new(ct(vec![1, 2, 3]));
        let mut child = parent.fork();
        child.record(ListOp::Delete(0)).unwrap();
        parent.record(ListOp::Delete(0)).unwrap();
        let stats = parent.merge(&child).unwrap();
        assert_eq!(
            parent.state(),
            &vec![2, 3],
            "element 1 deleted once, not twice"
        );
        assert_eq!(stats.child_ops, 1);
        assert_eq!(
            stats.applied_ops, 0,
            "duplicate delete collapses to nothing"
        );
    }

    #[test]
    fn untouched_merge_shares_the_state_and_leaves_the_history_alone() {
        let mut parent = V::new(ct(vec![1, 2, 3]));
        let child = parent.fork();
        parent.record(ListOp::Set(0, 9)).unwrap();
        parent.record(ListOp::Delete(2)).unwrap();
        let younger = parent.fork(); // shares the edited state
        let stats = parent.merge(&child).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                committed_ops: 2,
                committed_ops_compacted: 2,
                ..MergeStats::default()
            }
        );
        assert!(parent.shares_state_with(&younger));
        assert_eq!((parent.pending_ops(), parent.history_len()), (2, 2));
    }

    #[test]
    fn a_run_the_transform_emptied_shares_the_state_too() {
        // The child's only operation duplicates a committed delete: the
        // rebased run is empty, so there is no edit to unshare the state for.
        let mut parent = V::new(ct(vec![1, 2, 3]));
        let mut child = parent.fork();
        child.record(ListOp::Delete(0)).unwrap();
        parent.record(ListOp::Delete(0)).unwrap();
        let younger = parent.fork();
        let stats = parent.merge(&child).unwrap();
        assert_eq!((stats.child_ops, stats.applied_ops), (1, 0));
        assert!(parent.shares_state_with(&younger));
        assert_eq!((parent.pending_ops(), parent.history_len()), (1, 1));
        assert_eq!(parent.state(), &vec![2, 3]);

        // The same for a state behind an `Arc`, which a write would copy:
        // both sides delete one subtree.
        use sm_ot::tree::{Node, TreeOp};
        let mut parent = Versioned::new(Node::branch(0u32, vec![Node::leaf(1), Node::leaf(2)]));
        let mut child = parent.fork();
        child.record(TreeOp::Delete { path: vec![0] }).unwrap();
        parent.record(TreeOp::Delete { path: vec![0] }).unwrap();
        let younger = parent.fork();
        let stats = parent.merge(&child).unwrap();
        assert_eq!((stats.child_ops, stats.applied_ops), (1, 0));
        assert!(matches!(parent.state, Held::Shared(_)));
        assert!(parent.shares_state_with(&younger));
    }

    /// `child`'s pristine copy: what a `clone()` of the fork held.
    fn assert_pristine(child: &V, handed: &V, path: &str) {
        let pristine = child.pristine();
        assert_eq!(pristine.state(), handed.state(), "{path}: state");
        assert_eq!(
            (
                pristine.pending_ops(),
                pristine.log_start(),
                pristine.fork_base()
            ),
            (0, 0, handed.fork_base()),
            "{path}: log and fork point"
        );
        assert_eq!(pristine.fuse_barrier.load(Ordering::Relaxed), 0, "{path}");
    }

    #[test]
    fn a_fork_keeps_what_it_was_handed_through_every_write_path() {
        let mut parent = V::new(ct(vec![1, 2, 3]));
        parent.record(ListOp::Insert(3, 4)).unwrap();

        let mut child = parent.fork();
        let handed = child.clone();
        assert_pristine(&child, &handed, "untouched");
        child.record(ListOp::Insert(0, 9)).unwrap();
        child.record(ListOp::Delete(2)).unwrap();
        assert_pristine(&child, &handed, "record");

        let mut child = parent.fork();
        let handed = child.clone();
        child.record_with(ListOp::Delete(0), |s| s.remove(0));
        assert_pristine(&child, &handed, "record_with");

        let mut child = parent.fork();
        let handed = child.clone();
        let mut grandchild = child.fork();
        grandchild.record(ListOp::Insert(0, 7)).unwrap();
        child.merge(&grandchild).unwrap();
        assert_eq!(child.state(), &vec![7, 1, 2, 3, 4]);
        assert_pristine(&child, &handed, "merge");

        let mut child = parent.fork();
        let handed = child.clone();
        child.set_state(ct(vec![5]));
        assert_pristine(&child, &handed, "set_state");

        let mut child = parent.fork();
        let handed = child.clone();
        let base = child.fork();
        child.rollback_to(&base);
        assert_pristine(&child, &handed, "rollback_to");
    }

    #[test]
    fn a_root_keeps_no_state_and_a_refork_forgets_the_kept_one() {
        let mut root = V::new(ct(vec![1]));
        root.record(ListOp::Insert(1, 2)).unwrap();
        assert_eq!(root.pristine().state(), &vec![1, 2], "a root keeps nothing");

        let mut child = root.fork();
        child.record(ListOp::Insert(0, 0)).unwrap();
        assert!(
            child.pristine().shares_state_with(&root),
            "the fork kept what it was handed"
        );
        root.merge(&child).unwrap();
        child.refork(&root);
        assert_eq!(child.state(), &vec![0, 1, 2]);
        child.record(ListOp::Delete(0)).unwrap();
        assert_pristine(&child, &root.fork(), "after a refork");
    }

    #[test]
    fn merge_of_unmodified_child_is_noop() {
        let mut parent = V::new(ct(vec![1]));
        let child = parent.fork();
        parent.record(ListOp::Insert(1, 2)).unwrap();
        let stats = parent.merge(&child).unwrap();
        assert_eq!(stats.child_ops, 0);
        assert_eq!(parent.state(), &vec![1, 2]);
    }
}
