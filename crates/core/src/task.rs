//! Tasks: the unit of concurrency in Spawn & Merge.
//!
//! An executing program is a tree of tasks (§II): each task owns an
//! isolated fork of its parent's mergeable data and communicates with its
//! parent exclusively through merge events. This module defines
//! [`TaskCtx`] (the handle a task function receives), [`spawn`]
//! ([`TaskCtx::spawn`]), [`TaskCtx::sync`], [`TaskCtx::clone_task`] and
//! external aborts; the `Merge*` family lives in [`crate::merge`].
//!
//! A task holds one copy of its data and no other. An accepted `Sync`
//! hands the child its own data back, re-forked in place by the parent
//! ([`Mergeable::refork`]), and a `Clone` builds its sibling's starting
//! copy only when it is called ([`Mergeable::pristine`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sm_mergeable::Mergeable;
use sm_obs::{emit, AbortCause, EventKind, TaskPath};

use crate::error::{AbortReason, SyncError, TaskAbort, TaskResult};
use crate::pool::Pool;
use crate::round::{RoundSlot, RoundTask};

/// Identifier of a task, unique within its parent and monotonically
/// increasing in creation order (`MergeAll` merges in this order).
pub type TaskId = u64;

/// How a task finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task function returned `Ok`.
    Completed,
    /// The task aborted (error, panic, or externally).
    Aborted(AbortReason),
}

/// Child → parent event payloads.
pub(crate) enum EventBody<D> {
    /// The child reached a `Sync()` point: merge me and send back a fresh
    /// fork (or reject me and hand my data back).
    Sync {
        /// The child's data (with its recorded operations).
        data: D,
        /// Where the parent's verdict goes.
        resume: Resume<D>,
    },
    /// The child finished.
    Done {
        /// The child's final data; `None` if it aborted.
        data: Option<D>,
        /// How it finished.
        outcome: TaskOutcome,
    },
}

pub(crate) struct Event<D> {
    pub child: TaskId,
    pub body: EventBody<D>,
}

/// Parent's verdict on a sync request.
pub(crate) enum SyncReply<D> {
    /// Changes merged; here is the child's data, re-forked from the
    /// parent's in place.
    Accepted(D),
    /// Merge rejected (condition failed or externally aborted); the
    /// child's data is returned untouched.
    Rejected(D),
}

/// Where the verdict on a `Sync` goes.
pub(crate) enum Resume<D> {
    /// A blocked [`TaskCtx::sync`]: the only sender of the child's reply
    /// channel, so a request dropped unanswered disconnects it.
    Reply(ReplySender<D>),
    /// A round task, queued again with the verdict (`round.rs`).
    Round(Box<RoundTask<D>>),
}

/// The sending half of a child's `Sync` reply channel.
pub(crate) type ReplySender<D> = Sender<SyncReturn<D>>;

/// A verdict on its way back to the child. The sender it was sent through
/// rides along, so a child reuses one reply channel for all its `Sync`s
/// while the request in the parent's hands still holds the only sender.
pub(crate) struct SyncReturn<D> {
    pub verdict: SyncReply<D>,
    pub reply: ReplySender<D>,
}

/// State shared between a parent task and all of its children.
pub(crate) struct Family<D> {
    /// The owning (parent) task's observability path; children derive
    /// theirs as `path.child(id)`.
    pub path: TaskPath,
    /// Events from children to the parent.
    pub events_tx: Sender<Event<D>>,
    /// Children created via `Clone` by existing children; the parent
    /// adopts them at its next merge call.
    pub adopted: Mutex<Vec<ChildRecord<D>>>,
    /// Child-id allocator for this parent.
    pub next_id: AtomicU64,
    /// The runtime's worker pool.
    pub pool: Pool,
}

/// Parent-side bookkeeping for one child.
pub(crate) struct ChildRecord<D> {
    pub id: TaskId,
    pub abort: Arc<AtomicBool>,
    /// Absolute fork base of every log inside the child's data (in
    /// structure-traversal order), captured at fork / last accepted sync.
    /// The element-wise minimum over live children is the watermark below
    /// which the root's committed-log prefix can be garbage-collected.
    pub fork_marks: Vec<usize>,
    /// A round task's slot, where its next round waits for a thread.
    pub round: Option<Arc<RoundSlot<D>>>,
}

/// A handle to a spawned task, used to address it in `MergeAllFromSet` /
/// `MergeAnyFromSet` and to abort it externally.
#[derive(Clone)]
pub struct TaskHandle {
    pub(crate) id: TaskId,
    pub(crate) abort: Arc<AtomicBool>,
}

impl TaskHandle {
    /// The task's id (creation-ordered within its parent).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Mark the task as externally aborted (§II-F). This does not stop the
    /// task forcefully; it raises a flag the task can poll via
    /// [`TaskCtx::is_aborted`], and guarantees that the parent discards the
    /// task's changes when it eventually merges with it.
    pub fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Whether the abort flag is raised.
    pub fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("aborted", &self.is_aborted())
            .finish()
    }
}

/// The context handed to every task function.
///
/// `D` is the program's mergeable data type (a structure from
/// `sm_mergeable`, a tuple, a `Vec`, or a [`sm_mergeable::mergeable_struct!`]
/// composite). The context exposes:
///
/// * [`data`](TaskCtx::data) / [`data_mut`](TaskCtx::data_mut) — the task's
///   isolated copy,
/// * [`spawn`](TaskCtx::spawn) — create a child task on a fork of the data,
/// * the `Merge*` family (see `merge.rs`) — fold children back in,
/// * [`sync`](TaskCtx::sync) — child-side: merge with the parent and
///   continue on fresh data,
/// * [`clone_task`](TaskCtx::clone_task) — create a sibling task,
/// * [`is_aborted`](TaskCtx::is_aborted) — poll the external abort flag.
pub struct TaskCtx<D: Mergeable> {
    /// The task's data; `None` transiently during `sync` and permanently
    /// if the parent vanished mid-sync. A `Clone`d sibling starts from
    /// its [`Mergeable::pristine`] copy ("it inherits the same initial
    /// value of data from its sibling", §II-E).
    pub(crate) data: Option<D>,
    pub(crate) id: TaskId,
    /// Globally unique, deterministic identity for observability.
    pub(crate) path: TaskPath,
    /// Link to the parent's family; `None` for the root task.
    pub(crate) parent: Option<Arc<Family<D>>>,
    /// This task's `Sync` reply channel, made at the first `sync` and
    /// reused by every later one; `None` while a request holds the sender
    /// (and for good if the parent dropped one unanswered).
    reply: Option<(ReplySender<D>, Receiver<SyncReturn<D>>)>,
    pub(crate) abort_flag: Arc<AtomicBool>,
    /// This task's own family (shared with its children).
    pub(crate) family: Arc<Family<D>>,
    pub(crate) events_rx: Receiver<Event<D>>,
    /// Live children, ordered by id (= creation order).
    pub(crate) children: Vec<ChildRecord<D>>,
    /// Events received while waiting for a specific child, in arrival
    /// order.
    pub(crate) pending: VecDeque<Event<D>>,
    /// Verdicts of the `Sync`s a merge call has handled and not yet
    /// answered (see `flush_replies` in `merge.rs`).
    pub(crate) replies: Vec<(Resume<D>, SyncReply<D>)>,
    /// Durability observer of this task's merge commits (root task only;
    /// installed by [`crate::run_with_sink`]).
    pub(crate) sink: Option<Box<dyn crate::CommitSink<D>>>,
}

impl<D: Mergeable> TaskCtx<D> {
    pub(crate) fn new(
        data: D,
        id: TaskId,
        parent: Option<Arc<Family<D>>>,
        abort_flag: Arc<AtomicBool>,
        pool: Pool,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let path = match &parent {
            Some(family) => family.path.child(id),
            None => TaskPath::root(),
        };
        TaskCtx {
            data: Some(data),
            id,
            path: path.clone(),
            parent,
            reply: None,
            abort_flag,
            family: Arc::new(Family {
                path,
                events_tx,
                adopted: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                pool,
            }),
            events_rx,
            children: Vec::new(),
            pending: VecDeque::new(),
            replies: Vec::new(),
            sink: None,
        }
    }

    /// This task's id (0 for the root).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True if this is the root task.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// This task's globally unique observability path (`sm_obs`): the
    /// chain of task ids from the root, fixed deterministically by spawn
    /// order.
    pub fn path(&self) -> &TaskPath {
        &self.path
    }

    /// Emit a freeform [`sm_obs`] mark annotation attributed to this task.
    /// `label` only runs while a recorder is installed, so an unrecorded
    /// run never builds the string.
    pub fn mark<S: Into<String>>(&self, label: impl FnOnce() -> S) {
        emit(&self.path, || EventKind::Mark {
            label: label().into(),
        });
    }

    /// Read access to the task's data copy.
    ///
    /// # Panics
    /// Panics if the data was lost because the parent task disappeared
    /// during a `sync`.
    pub fn data(&self) -> &D {
        self.data
            .as_ref()
            .expect("task data unavailable (parent task is gone)")
    }

    /// Mutable access to the task's data copy. All mutations are recorded
    /// as operations and serialized at the next merge.
    pub fn data_mut(&mut self) -> &mut D {
        self.data
            .as_mut()
            .expect("task data unavailable (parent task is gone)")
    }

    /// Number of live (unmerged) children.
    pub fn live_children(&self) -> usize {
        self.children.len() + self.family.adopted.lock().len()
    }

    /// Whether the parent has externally aborted this task. Long-running
    /// tasks should poll this and wind down when it is raised; the parent
    /// discards this task's changes either way.
    pub fn is_aborted(&self) -> bool {
        self.abort_flag.load(Ordering::SeqCst)
    }

    /// Return `Err(TaskAbort)` if this task has been externally aborted —
    /// convenient with the `?` operator in task functions.
    pub fn check_abort(&self) -> Result<(), TaskAbort> {
        if self.is_aborted() {
            Err(TaskAbort::new("externally aborted"))
        } else {
            Ok(())
        }
    }

    /// **Spawn**: create a child task executing `f` on a fork of this
    /// task's data. Returns immediately with a handle (§II-C).
    ///
    /// The child runs concurrently with no shared state; its changes become
    /// visible here only through one of the `Merge*` functions. A child
    /// whose function returns `Err` or panics is *aborted*: its changes are
    /// dismissed at merge time.
    pub fn spawn<F>(&mut self, f: F) -> TaskHandle
    where
        F: FnOnce(&mut TaskCtx<D>) -> TaskResult + Send + 'static,
    {
        let (id, data, fork_marks) = self.fork_child();
        let handle = spawn_task(&self.family, id, data, f);
        // Parent-spawned children are recorded directly, in creation order
        // (ids are monotone, so plain push keeps `children` sorted).
        self.children.push(ChildRecord {
            id,
            abort: Arc::clone(&handle.abort),
            fork_marks,
            round: None,
        });
        handle
    }

    /// A new child's id, its fork of this task's data and the fork's
    /// marks, with its `TaskSpawned` emitted.
    pub(crate) fn fork_child(&mut self) -> (TaskId, D, Vec<usize>) {
        let spawn_t0 = sm_obs::is_enabled().then(Instant::now);
        let id = self.family.next_id.fetch_add(1, Ordering::Relaxed);
        let data = self.data().fork();
        let mut fork_marks = Vec::new();
        data.fork_marks(&mut fork_marks);
        // Emit BEFORE dispatching: the spawned task may start emitting its
        // own events immediately, and `TaskSpawned` must be the first event
        // of its per-task sequence (the determinism auditor hashes chains
        // in program order). `spawn_nanos` therefore covers the fork, not
        // the pool dispatch.
        if let Some(t0) = spawn_t0 {
            let spawn_nanos = t0.elapsed().as_nanos() as u64;
            emit(&self.path.child(id), || EventKind::TaskSpawned {
                spawn_nanos,
            });
        }
        (id, data, fork_marks)
    }

    /// **Clone**: create a *sibling* task executing `f` on this task's
    /// pristine data copy (the value received at spawn or at the last
    /// `sync`, before local modifications — §II-E). The parent adopts the
    /// sibling at its next merge call and merges with it like any other
    /// child.
    ///
    /// Returns [`SyncError::RootTask`] on the root task (it has no parent
    /// to adopt the sibling), and [`SyncError::ParentGone`] once a failed
    /// `sync` has lost the data.
    pub fn clone_task<F>(&mut self, f: F) -> Result<TaskHandle, SyncError>
    where
        F: FnOnce(&mut TaskCtx<D>) -> TaskResult + Send + 'static,
    {
        let parent = self.parent.as_ref().ok_or(SyncError::RootTask)?;
        let spawn_t0 = sm_obs::is_enabled().then(Instant::now);
        // The sibling starts from the copy this task was handed, which
        // carries the fork bases of that fork from the parent.
        let data = self.data.as_ref().ok_or(SyncError::ParentGone)?.pristine();
        let id = parent.next_id.fetch_add(1, Ordering::Relaxed);
        let mut fork_marks = Vec::new();
        data.fork_marks(&mut fork_marks);
        // Register the sibling BEFORE it can run: the parent must be able
        // to resolve the child id of any event it receives.
        let abort = Arc::new(AtomicBool::new(false));
        parent.adopted.lock().push(ChildRecord {
            id,
            abort: Arc::clone(&abort),
            fork_marks,
            round: None,
        });
        // Emit BEFORE dispatching, for the same reason as in `spawn`: the
        // sibling's `TaskSpawned` must open its per-task event sequence.
        if let Some(t0) = spawn_t0 {
            let clone = parent.path.child(id);
            let spawn_nanos = t0.elapsed().as_nanos() as u64;
            emit(&self.path, || EventKind::CloneCreated {
                clone: clone.clone(),
            });
            emit(&clone, || EventKind::TaskSpawned { spawn_nanos });
        }
        let handle = spawn_task_with_abort(parent, id, data, f, abort);
        Ok(handle)
    }

    /// **Sync**: block until the parent merges with this task, then
    /// continue on a fresh fork of the parent's data (§II-E). Equivalent to
    /// completing the task and spawning a new one right after the merge —
    /// but readable.
    ///
    /// On success the local data is the fresh fork: the parent re-forks
    /// the data it merged in place and hands it back. On
    /// [`SyncError::MergeRejected`] / [`SyncError::Aborted`] the local data
    /// is kept untouched (rollback semantics): the task may retry later,
    /// continue, or abort. [`SyncError::ParentGone`] loses the data for
    /// good, and every later `sync` reports it again.
    pub fn sync(&mut self) -> Result<(), SyncError> {
        let Some(parent) = self.parent.as_ref() else {
            return Err(SyncError::RootTask);
        };
        if self.live_children() > 0 {
            return Err(SyncError::HasLiveChildren);
        }
        let Some(data) = self.data.take() else {
            return Err(SyncError::ParentGone);
        };
        let (reply_tx, reply_rx) = self.reply.take().unwrap_or_else(unbounded);
        emit(&self.path, || EventKind::SyncBlocked);
        let blocked_t0 = Instant::now();
        if parent
            .events_tx
            .send(Event {
                child: self.id,
                body: EventBody::Sync {
                    data,
                    resume: Resume::Reply(reply_tx),
                },
            })
            .is_err()
        {
            self.emit_sync_resumed(blocked_t0, false);
            return Err(SyncError::ParentGone);
        }
        // An error here is the parent dropping the request unanswered.
        let verdict = self.family.pool.recv(&reply_rx).ok().map(|back| {
            self.reply = Some((back.reply, reply_rx));
            back.verdict
        });
        self.emit_sync_resumed(blocked_t0, matches!(verdict, Some(SyncReply::Accepted(_))));
        match verdict {
            Some(SyncReply::Accepted(fresh)) => {
                self.data = Some(fresh);
                Ok(())
            }
            Some(SyncReply::Rejected(original)) => {
                self.data = Some(original);
                if self.is_aborted() {
                    Err(SyncError::Aborted)
                } else {
                    Err(SyncError::MergeRejected)
                }
            }
            None => Err(SyncError::ParentGone),
        }
    }

    fn emit_sync_resumed(&self, blocked_t0: Instant, accepted: bool) {
        emit(&self.path, || EventKind::SyncResumed {
            blocked_nanos: blocked_t0.elapsed().as_nanos() as u64,
            accepted,
        });
    }

    /// Consume the context, yielding the final data (root task teardown:
    /// the root cannot `sync`, so its data is never lost).
    pub(crate) fn into_data(self) -> D {
        self.data.expect("the root task's data is never lost")
    }

    /// Move adopted (cloned) children into the ordered children list.
    pub(crate) fn adopt_children(&mut self) {
        let mut adopted = self.family.adopted.lock();
        if adopted.is_empty() {
            return;
        }
        self.children.append(&mut adopted);
        drop(adopted);
        // Ids are allocated monotonically but adoption may interleave with
        // direct spawns, so restore creation order explicitly.
        self.children.sort_by_key(|c| c.id);
    }
}

/// Launch a task on the pool: build its context, run its function, report
/// the outcome to the parent.
fn spawn_task<D, F>(parent: &Arc<Family<D>>, id: TaskId, data: D, f: F) -> TaskHandle
where
    D: Mergeable,
    F: FnOnce(&mut TaskCtx<D>) -> TaskResult + Send + 'static,
{
    spawn_task_with_abort(parent, id, data, f, Arc::new(AtomicBool::new(false)))
}

/// [`spawn_task`] with a caller-provided abort flag (used by `clone_task`,
/// which must register the flag with the parent before the task can run).
fn spawn_task_with_abort<D, F>(
    parent: &Arc<Family<D>>,
    id: TaskId,
    data: D,
    f: F,
    abort: Arc<AtomicBool>,
) -> TaskHandle
where
    D: Mergeable,
    F: FnOnce(&mut TaskCtx<D>) -> TaskResult + Send + 'static,
{
    let handle = TaskHandle {
        id,
        abort: Arc::clone(&abort),
    };
    let parent_family = Arc::clone(parent);
    let pool = parent.pool.clone();
    parent.pool.execute(move || {
        let externally_aborted = Arc::clone(&abort);
        let mut ctx = TaskCtx::new(data, id, Some(Arc::clone(&parent_family)), abort, pool);
        let path = ctx.path.clone();
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));

        let (data, outcome) = match result {
            Ok(Ok(())) => {
                // A task is not completed unless all its children have been
                // merged (§II): implicit MergeAll until the tree below us is
                // drained.
                ctx.drain_children();
                match ctx.data.take() {
                    Some(data) => (Some(data), TaskOutcome::Completed),
                    // A `sync` the parent dropped lost the data, and the
                    // function carried on regardless.
                    None => {
                        let lost = TaskAbort::from(SyncError::ParentGone);
                        (None, TaskOutcome::Aborted(AbortReason::Error(lost.reason)))
                    }
                }
            }
            Ok(Err(abort_err)) => {
                ctx.abort_children_and_drain();
                (
                    None,
                    TaskOutcome::Aborted(AbortReason::Error(abort_err.reason)),
                )
            }
            Err(panic) => {
                ctx.abort_children_and_drain();
                let msg = panic_message(&panic);
                (None, TaskOutcome::Aborted(AbortReason::Panic(msg)))
            }
        };
        let body = finished(&path, &externally_aborted, data, outcome);
        // If the parent is gone the send fails; nothing more to do.
        let _ = parent_family.events_tx.send(Event { child: id, body });
    });

    handle
}

/// A finished task's `Done` event, after its last audited event.
pub(crate) fn finished<D>(
    path: &TaskPath,
    externally_aborted: &AtomicBool,
    data: Option<D>,
    outcome: TaskOutcome,
) -> EventBody<D> {
    match &outcome {
        TaskOutcome::Completed => emit(path, || EventKind::TaskCompleted),
        TaskOutcome::Aborted(reason) => {
            let cause = match reason {
                _ if externally_aborted.load(Ordering::SeqCst) => AbortCause::External,
                AbortReason::Error(_) => AbortCause::Failed,
                AbortReason::Panic(_) => AbortCause::Panicked,
                AbortReason::External => AbortCause::External,
            };
            emit(path, || EventKind::TaskAborted { cause });
        }
    }
    EventBody::Done { data, outcome }
}

pub(crate) fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
