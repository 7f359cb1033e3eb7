//! Semaphore emulation on top of Spawn & Merge — the constructive half of
//! the paper's §IV-A equivalence proof ("to prove that Spawn and Merge are
//! equivalent to semaphores we will model a semaphore using only Spawn and
//! Merge").
//!
//! The model, verbatim from the paper:
//!
//! * The semaphore is a list of integers `L`. `L[0]` is the semaphore
//!   value; the following numbers are ids of tasks waiting at the
//!   semaphore (negative ids announce a release).
//! * **Acquire**: the child appends its id to `L` and calls `Sync()` twice.
//!   The first sync wakes the parent (which is looping on
//!   `MergeAnyFromSet(S)`). If the value is zero the parent removes the
//!   child from `S`, so the child stays blocked in its second sync.
//!   Otherwise the value is decreased, the child is removed from `L` and
//!   kept in `S`, so the second sync proceeds — the semaphore is acquired.
//! * **Release**: the child appends its *negative* id and syncs once; the
//!   parent removes negative ids, increments the value per removed id, and
//!   then re-checks whether waiting children can be granted access (in
//!   FIFO order).
//!
//! The paper notes the deadlocked-semaphore case degrades to a livelock:
//! with every child blocked, `S` is empty and `MergeAnyFromSet(S)` returns
//! without blocking, forever. This implementation *detects* that state
//! (an empty `S` with live children can never recover) and reports it as
//! [`SemaphoreOutcome::deadlocked`] instead of spinning.

use std::collections::BTreeSet;
use std::sync::Arc;

use sm_mergeable::MList;

use crate::error::{SyncError, TaskResult};
use crate::runtime::run;
use crate::task::{TaskCtx, TaskHandle, TaskId};

/// The semaphore's shared state: the paper's list `L`.
pub type SemData = MList<i64>;

/// Worker-side view of the emulated semaphore.
pub struct SemCtx<'a> {
    ctx: &'a mut TaskCtx<SemData>,
    index: usize,
}

impl SemCtx<'_> {
    /// This worker's index (0-based, stable across runs).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The underlying task id (what appears in `L`).
    pub fn task_id(&self) -> TaskId {
        self.ctx.id()
    }

    /// Acquire the semaphore: append our id to `L`, sync to wake the
    /// manager, sync again — the second sync blocks until the manager
    /// grants us a permit by keeping us in its merge set.
    pub fn acquire(&mut self) -> Result<(), SyncError> {
        let id = self.ctx.id() as i64;
        self.ctx.data_mut().push(id);
        self.ctx.sync()?;
        self.ctx.sync()?;
        Ok(())
    }

    /// Release the semaphore: append our negative id and sync once.
    pub fn release(&mut self) -> Result<(), SyncError> {
        let id = self.ctx.id() as i64;
        self.ctx.data_mut().push(-id);
        self.ctx.sync()?;
        Ok(())
    }
}

/// Result of a semaphore world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaphoreOutcome {
    /// Final semaphore value (`L[0]`).
    pub final_value: i64,
    /// Total number of grants handed out.
    pub grants: u64,
    /// True if the system reached the paper's "deadlocked semaphore"
    /// state: live children, but every one of them blocked waiting — `S`
    /// empty, nothing to merge with, ever.
    pub deadlocked: bool,
    /// Number of workers that never completed (0 unless deadlocked).
    pub stranded_workers: usize,
}

/// Run `workers` tasks contending on one emulated semaphore with
/// `initial_permits` permits. Each worker runs
/// `body(worker_index, &mut SemCtx)` and may call
/// [`SemCtx::acquire`] / [`SemCtx::release`] freely.
///
/// This is intentionally the paper's "inefficient and cumbersome"
/// construction — it exists to demonstrate expressive-power equivalence
/// (and to measure its cost against a native semaphore in the benches),
/// not to be a production synchronization primitive.
pub fn run_with_semaphore<F>(initial_permits: i64, workers: usize, body: F) -> SemaphoreOutcome
where
    F: Fn(usize, &mut SemCtx<'_>) -> TaskResult + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let (final_data, (grants, deadlocked, stranded)) =
        run(MList::from_vec(vec![initial_permits]), move |ctx| {
            manager(ctx, workers, body)
        });
    SemaphoreOutcome {
        final_value: final_data.get(0).copied().unwrap_or(0),
        grants,
        deadlocked,
        stranded_workers: stranded,
    }
}

type ManagerResult = (u64, bool, usize);

fn manager<F>(ctx: &mut TaskCtx<SemData>, workers: usize, body: Arc<F>) -> ManagerResult
where
    F: Fn(usize, &mut SemCtx<'_>) -> TaskResult + Send + Sync + 'static,
{
    // One child per thread the semaphore-based system would use.
    let handles: Vec<TaskHandle> = (0..workers)
        .map(|w| {
            let body = Arc::clone(&body);
            ctx.spawn(move |c| {
                let id = c.id();
                let mut sem = SemCtx { ctx: c, index: w };
                let _ = id;
                body(w, &mut sem)
            })
        })
        .collect();

    // S: the children the manager is willing to merge with. Initially all.
    let mut in_s: BTreeSet<TaskId> = handles.iter().map(TaskHandle::id).collect();
    let mut live: BTreeSet<TaskId> = in_s.clone();
    let mut grants: u64 = 0;
    let mut deadlocked = false;

    while !live.is_empty() {
        if in_s.is_empty() {
            // Every live child is blocked in its second sync and can never
            // be re-added: the emulated system is deadlocked (the paper's
            // construction would livelock here; we detect and stop).
            deadlocked = true;
            break;
        }
        let set: Vec<&TaskHandle> = handles.iter().filter(|h| in_s.contains(&h.id())).collect();
        let Some(merged) = ctx.merge_any_from_set(&set) else {
            deadlocked = true;
            break;
        };
        if merged.completed {
            live.remove(&merged.task);
            in_s.remove(&merged.task);
        }

        // Process L: releases first, then FIFO grants.
        let (granted, waiting) = process_semaphore_list(ctx.data_mut(), &mut grants);
        for id in granted {
            ctx.mark(|| format!("semaphore grant -> task {id}"));
            if live.contains(&id) {
                in_s.insert(id);
            }
        }
        for id in waiting {
            in_s.remove(&id);
        }
    }

    // Any still-live children are stranded in a deadlock; abort them so the
    // implicit drain terminates (their syncs fail fast and they exit).
    let stranded = live.len();
    if deadlocked {
        for h in &handles {
            if live.contains(&h.id()) {
                h.abort();
            }
        }
    }
    (grants, deadlocked, stranded)
}

/// Apply the manager's bookkeeping to `L`. Returns `(granted, waiting)`
/// task ids.
fn process_semaphore_list(l: &mut SemData, grants: &mut u64) -> (Vec<TaskId>, Vec<TaskId>) {
    let mut value = *l.get(0).expect("L[0] is the semaphore value");

    // Releases: remove negative ids, one permit back per id.
    let mut i = 1;
    while i < l.len() {
        if *l.get(i).expect("index in range") < 0 {
            l.remove(i);
            value += 1;
        } else {
            i += 1;
        }
    }

    // Grants: FIFO over the waiting list while permits remain.
    let mut granted = Vec::new();
    while value > 0 && l.len() > 1 {
        let id = l.remove(1);
        value -= 1;
        *grants += 1;
        granted.push(id as TaskId);
    }

    let waiting: Vec<TaskId> = (1..l.len())
        .map(|i| *l.get(i).expect("index in range") as TaskId)
        .collect();
    l.set(0, value);
    (granted, waiting)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_list_grants_fifo() {
        let mut l = MList::from_vec(vec![2, 7, 8, 9]);
        let mut grants = 0;
        let (granted, waiting) = process_semaphore_list(&mut l, &mut grants);
        assert_eq!(granted, vec![7, 8]);
        assert_eq!(waiting, vec![9]);
        assert_eq!(grants, 2);
        assert_eq!(l.to_vec(), vec![0, 9]);
    }

    #[test]
    fn process_list_handles_releases() {
        let mut l = MList::from_vec(vec![0, 5, -3, 6]);
        let mut grants = 0;
        let (granted, waiting) = process_semaphore_list(&mut l, &mut grants);
        assert_eq!(
            granted,
            vec![5],
            "the release frees one permit for the first waiter"
        );
        assert_eq!(waiting, vec![6]);
        assert_eq!(l.to_vec(), vec![0, 6]);
    }

    #[test]
    fn process_list_no_waiters() {
        let mut l = MList::from_vec(vec![1]);
        let mut grants = 0;
        let (granted, waiting) = process_semaphore_list(&mut l, &mut grants);
        assert!(granted.is_empty());
        assert!(waiting.is_empty());
        assert_eq!(l.to_vec(), vec![1]);
    }
}
