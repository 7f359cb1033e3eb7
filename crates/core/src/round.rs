//! Round tasks: a child whose `Sync` returns (§II: `Sync()` is "≡
//! complete + re-spawn, but readable"). Returning [`Round::Sync`] from a
//! [`TaskCtx::spawn_rounds`] child is its `Sync`; the parent queues the
//! next round when it flushes its verdicts, so no thread waits for one. A
//! [`RoundCtx`] cannot wait on its parent, so a `merge_all*` / `merge_one`
//! walk that finds a round no worker has taken runs it itself: the walk
//! merges in creation order, so which thread ran a round changes the
//! cost, never the result. `merge_any*` never runs a round (DESIGN §3.2).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sm_mergeable::Mergeable;
use sm_obs::{emit, EventKind, TaskPath};

use crate::error::{AbortReason, SyncError, TaskAbort};
use crate::task::{
    finished, panic_message, ChildRecord, Event, EventBody, Family, Resume, SyncReply, TaskCtx,
    TaskHandle, TaskId,
};
use crate::TaskOutcome::{Aborted, Completed};

/// How a round ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// `Sync()`: merge this round's changes into the parent, and run the
    /// next round on what the parent hands back.
    Sync,
    /// The task completed: the parent merges its data and retires it.
    Done,
}

/// The context one round of a round task receives: its data, its identity
/// and the verdict on its last `Sync` — and no way to block on its parent.
pub struct RoundCtx<'a, D> {
    data: &'a mut D,
    path: &'a TaskPath,
    abort: &'a AtomicBool,
    synced: Option<Result<(), SyncError>>,
}

impl<D> RoundCtx<'_, D> {
    /// Read access to the task's data copy.
    pub fn data(&self) -> &D {
        self.data
    }

    /// Mutable access to the task's data copy; recorded as operations and
    /// merged at the round's `Sync` or completion.
    pub fn data_mut(&mut self) -> &mut D {
        self.data
    }

    /// The task's observability path.
    pub fn path(&self) -> &TaskPath {
        self.path
    }

    /// Whether the parent has externally aborted this task.
    pub fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// The verdict on the `Sync` that ended the previous round, as a
    /// blocking [`TaskCtx::sync`] would have returned it: `Ok(())` with the
    /// data re-forked from the parent's, or [`SyncError::MergeRejected`] /
    /// [`SyncError::Aborted`] with the round's own data kept. `None` in
    /// the first round.
    pub fn synced(&self) -> Option<Result<(), SyncError>> {
        self.synced.clone()
    }
}

/// Where a round task's next round waits for a thread. Its pool job and a
/// parent walk race to take it, and the loser finds nothing. A child keeps
/// at most one job queued: a job still waiting whose round the walk took
/// takes the next round when it runs.
pub(crate) type RoundSlot<D> = Mutex<Slot<D>>;

pub(crate) struct Slot<D> {
    pub(crate) round: Option<(Box<RoundTask<D>>, D)>,
    job_queued: bool,
}

type RoundFn<D> = dyn FnMut(&mut RoundCtx<'_, D>) -> Result<Round, TaskAbort> + Send;

/// A round task between rounds: its function and what a blocking task
/// keeps on its stack.
pub(crate) struct RoundTask<D> {
    round: Box<RoundFn<D>>,
    id: TaskId,
    path: TaskPath,
    abort: Arc<AtomicBool>,
    synced: Option<Result<(), SyncError>>,
    blocked_t0: Instant,
    parent: Arc<Family<D>>,
    slot: Arc<RoundSlot<D>>,
}

impl<D: Mergeable> RoundTask<D> {
    /// Put the next round in its slot, with a pool job queued that runs
    /// it unless the parent's walk takes it first.
    fn queue(self: Box<Self>, data: D) {
        let (slot, parent) = (Arc::clone(&self.slot), Arc::clone(&self.parent));
        let mut next = slot.lock();
        next.round = Some((self, data));
        if std::mem::replace(&mut next.job_queued, true) {
            return;
        }
        drop(next);
        parent.pool.clone().execute(move || {
            let claimed = {
                let mut next = slot.lock();
                next.job_queued = false;
                next.round.take()
            };
            if let Some((task, data)) = claimed {
                // If the parent is gone the send fails; nothing more to do.
                let _ = parent.events_tx.send(task.run(data));
            }
        });
    }

    /// Run one round on the calling thread, catching a panic as the pool's
    /// workers do, and return the event the parent merges.
    pub(crate) fn run(mut self: Box<Self>, mut data: D) -> Event<D> {
        let task = &mut *self;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            (task.round)(&mut RoundCtx {
                data: &mut data,
                path: &task.path,
                abort: &task.abort,
                synced: task.synced.clone(),
            })
        }));
        let child = self.id;
        let (data, outcome) = match ran {
            Ok(Ok(Round::Sync)) => {
                emit(&self.path, || EventKind::SyncBlocked);
                self.blocked_t0 = Instant::now();
                let resume = Resume::Round(self);
                let body = EventBody::Sync { data, resume };
                return Event { child, body };
            }
            Ok(Ok(Round::Done)) => (Some(data), Completed),
            Ok(Err(e)) => (None, Aborted(AbortReason::Error(e.reason))),
            Err(p) => (None, Aborted(AbortReason::Panic(panic_message(&p)))),
        };
        let body = finished(&self.path, &self.abort, data, outcome);
        Event { child, body }
    }

    /// The parent's verdict on this round's `Sync`: resume as a blocking
    /// `sync` would, and queue the next round.
    pub(crate) fn resume(mut self: Box<Self>, verdict: SyncReply<D>) {
        let (data, synced) = match verdict {
            SyncReply::Accepted(data) => (data, Ok(())),
            SyncReply::Rejected(data) if self.abort.load(Ordering::SeqCst) => {
                (data, Err(SyncError::Aborted))
            }
            SyncReply::Rejected(data) => (data, Err(SyncError::MergeRejected)),
        };
        emit(&self.path, || EventKind::SyncResumed {
            blocked_nanos: self.blocked_t0.elapsed().as_nanos() as u64,
            accepted: synced.is_ok(),
        });
        self.synced = Some(synced);
        self.queue(data);
    }
}

impl<D: Mergeable> TaskCtx<D> {
    /// **Spawn** a round task: a child given as one round of its loop. It
    /// is merged, rejected and aborted, and emits the same events, as a
    /// [`spawn`](Self::spawn)ed child that runs `round` in a loop and calls
    /// [`sync`](Self::sync) wherever it returns [`Round::Sync`].
    pub fn spawn_rounds<F>(&mut self, round: F) -> TaskHandle
    where
        F: FnMut(&mut RoundCtx<'_, D>) -> Result<Round, TaskAbort> + Send + 'static,
    {
        let (id, data, fork_marks) = self.fork_child();
        let abort = Arc::new(AtomicBool::new(false));
        let task = Box::new(RoundTask {
            round: Box::new(round),
            id,
            path: self.path.child(id),
            abort: Arc::clone(&abort),
            synced: None,
            blocked_t0: Instant::now(),
            parent: Arc::clone(&self.family),
            slot: Arc::new(Mutex::new(Slot {
                round: None,
                job_queued: false,
            })),
        });
        self.children.push(ChildRecord {
            id,
            abort: Arc::clone(&abort),
            fork_marks,
            round: Some(Arc::clone(&task.slot)),
        });
        task.queue(data);
        TaskHandle { id, abort }
    }
}
