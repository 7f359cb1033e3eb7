//! A core-sized worker pool that grows on block. Tasks are "cheap to
//! create" and "may also be scheduled to be executed on a pool of threads"
//! (§II): `available_parallelism()` workers drain one FIFO of jobs, and a
//! worker about to block says so ([`blocking`]; every wait the runtime
//! owns does), so the pool starts a replacement if work is queued. A task
//! waiting on a tree edge thus always frees its slot: §IV-B's deadlock
//! freedom holds with a core-sized set. Determinism never depends on it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError};
use parking_lot::{Condvar, Mutex};
use sm_obs::{emit, EventKind, TaskPath};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long a queued job may wait before the pool starts a worker for it
/// beyond `available_parallelism()`.
const STALL: Duration = Duration::from_millis(10);

thread_local! {
    static WORKER_OF: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
}

/// Pool statistics (diagnostics): the snapshot [`Pool::stats`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads created over the pool's lifetime.
    pub threads_created: u64,
    /// Jobs executed (including currently running and queued).
    pub jobs_executed: u64,
    /// Worker threads currently alive (busy, blocked or idle).
    pub live_workers: u64,
    /// High-water mark of simultaneously live worker threads.
    pub peak_workers: u64,
    /// Total time jobs spent between submission and starting to run.
    pub queue_wait_nanos: u64,
}

#[derive(Default)]
struct State {
    /// Jobs not yet taken, with their submission times.
    queue: VecDeque<(Instant, Job)>,
    idle: usize,
    /// Workers inside [`blocking`].
    blocked: usize,
    /// No handle is left: nothing more can be queued.
    closed: bool,
    stats: PoolStats,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when a job is queued for an idle worker.
    work: Condvar,
    /// Workers that may run at once outside [`blocking`].
    target: usize,
    keep_alive: Duration,
}

/// The worker pool. Cloning shares the pool; dropping the last handle
/// retires its idle workers at once, and a busy one after its job.
#[derive(Clone)]
pub struct Pool {
    handle: Arc<Handle>,
}

/// What the handles of one pool share. Workers hold the [`Inner`] alone.
struct Handle(Arc<Inner>);

impl Drop for Handle {
    /// Returns once the idle workers have retired and said so.
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.closed = true;
        self.0.work.notify_all();
        while st.idle > 0 {
            self.0.work.wait(&mut st);
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// A pool with the default keep-alive (500 ms).
    pub fn new() -> Self {
        Self::with_keep_alive(Duration::from_millis(500))
    }

    /// A pool whose idle workers retire after `keep_alive`.
    fn with_keep_alive(keep_alive: Duration) -> Self {
        Pool {
            handle: Arc::new(Handle(Arc::new(Inner {
                state: Mutex::new(State::default()),
                work: Condvar::new(),
                target: std::thread::available_parallelism().map_or(1, |n| n.get()),
                keep_alive,
            }))),
        }
    }

    fn inner(&self) -> &Arc<Inner> {
        &self.handle.0
    }

    /// Queue `job` behind the jobs already submitted. Wakes a worker if
    /// one is idle, else starts one while fewer than
    /// `available_parallelism()` workers run outside [`blocking`]; a job
    /// otherwise waits for a running worker to finish. Never blocks.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.inner().state.lock();
        st.stats.jobs_executed += 1;
        st.queue.push_back((Instant::now(), Box::new(job)));
        if st.idle >= st.queue.len() {
            self.inner().work.notify_one();
        } else {
            self.inner().grow(&mut st);
        }
    }

    /// Receive from `rx` as a runtime wait: announced ([`blocking`]), and
    /// checking every [`STALL`] for a job stuck behind an unannounced one.
    pub(crate) fn recv<T>(&self, rx: &Receiver<T>) -> Result<T, RecvError> {
        blocking(|| loop {
            match rx.recv_timeout(STALL) {
                Err(RecvTimeoutError::Timeout) => self.inner().grow(&mut self.inner().state.lock()),
                got => return got.map_err(|_| RecvError),
            }
        })
    }

    /// Pool statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner().state.lock().stats
    }

    /// Number of currently idle workers (diagnostics).
    pub fn idle_workers(&self) -> usize {
        self.inner().state.lock().idle
    }
}

/// Run `f`, a wait on something other than Spawn & Merge (a socket, a
/// foreign channel or lock), telling the pool: while `f` runs, the calling
/// worker does not count against `available_parallelism()`, and a queued
/// job gets a replacement worker. Off a worker (or nested) it only runs `f`.
/// On any thread, the rounds it parked get their jobs first (`round.rs`).
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    crate::round::promote_parked();
    let _announced = WORKER_OF.take().map(|inner| {
        let mut st = inner.state.lock();
        st.blocked += 1;
        inner.grow(&mut st);
        drop(st);
        Blocked(inner)
    });
    f()
}

/// A worker inside [`blocking`], out of its slot (see `WORKER_OF`) until
/// dropped, on unwind too.
struct Blocked(Arc<Inner>);

impl Drop for Blocked {
    fn drop(&mut self) {
        self.0.state.lock().blocked -= 1;
        WORKER_OF.set(Some(Arc::clone(&self.0)));
    }
}

impl Inner {
    /// Start a worker if more jobs are queued than idle workers will take,
    /// and fewer than `target` run outside [`blocking`] or the oldest job
    /// has waited a [`STALL`] (the backstop for unannounced waits).
    fn grow(self: &Arc<Self>, st: &mut State) {
        let running = st.stats.live_workers as usize - st.blocked;
        let fresh = |(at, _): &(Instant, Job)| at.elapsed() < STALL;
        if st.queue.len() <= st.idle
            || running >= self.target && st.queue.front().is_some_and(fresh)
        {
            return;
        }
        let worker = st.stats.threads_created;
        st.stats.threads_created += 1;
        st.stats.live_workers += 1;
        st.stats.peak_workers = st.stats.peak_workers.max(st.stats.live_workers);
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name("sm-task-worker".into())
            .spawn(move || {
                emit(&TaskPath::root(), || EventKind::WorkerStarted { worker });
                WORKER_OF.set(Some(Arc::clone(&inner)));
                inner.work(worker);
            })
            .expect("failed to spawn worker thread");
    }

    /// A worker's life: run queued jobs in order; retire, under the lock,
    /// once the queue stayed empty for a keep-alive or the pool closed.
    fn work(&self, worker: u64) {
        let mut st = self.state.lock();
        loop {
            while let Some((at, job)) = st.queue.pop_front() {
                st.stats.queue_wait_nanos += at.elapsed().as_nanos() as u64;
                drop(st);
                // A panicking job must not take its worker's slot with it.
                let _ = catch_unwind(AssertUnwindSafe(job));
                st = self.state.lock();
            }
            st.idle += 1;
            let timed_out = st.closed || self.work.wait_for(&mut st, self.keep_alive).timed_out();
            st.idle -= 1;
            if timed_out && st.queue.is_empty() {
                st.stats.live_workers -= 1;
                emit(&TaskPath::root(), || EventKind::WorkerRetired { worker });
                if st.closed {
                    self.work.notify_all();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_jobs() {
        let pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        let mut got: Vec<u32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.stats().jobs_executed, 10);
    }

    #[test]
    fn reuses_idle_workers() {
        let pool = Pool::with_keep_alive(Duration::from_secs(5));
        let (tx, rx) = mpsc::channel();
        // Sequential jobs, waiting for the worker to park between
        // submissions: one worker must serve them all.
        for _ in 0..20 {
            let tx = tx.clone();
            pool.execute(move || tx.send(()).unwrap());
            rx.recv().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while pool.idle_workers() == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "worker failed to park"
                );
                std::thread::yield_now();
            }
        }
        assert_eq!(
            pool.stats().threads_created,
            1,
            "sequential jobs must share one worker"
        );
    }

    #[test]
    fn grows_when_jobs_block() {
        let pool = Pool::new();
        let gate = Arc::new(AtomicU32::new(0));
        let (tx, rx) = mpsc::channel();
        // 8 jobs that all wait, announced, until everyone arrived: requires
        // 8 workers however many cores there are.
        for _ in 0..8 {
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            pool.execute(move || {
                gate.fetch_add(1, Ordering::SeqCst);
                blocking(|| {
                    while gate.load(Ordering::SeqCst) < 8 {
                        std::thread::yield_now();
                    }
                });
                tx.send(()).unwrap();
            });
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a blocked worker was not replaced");
        }
        assert!(pool.stats().threads_created >= 8);
    }

    #[test]
    fn a_burst_that_never_blocks_stays_core_sized() {
        let pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        for i in 0..1000 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        for _ in 0..1000 {
            rx.recv().unwrap();
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let stats = pool.stats();
        assert_eq!(stats.jobs_executed, 1000);
        assert!(
            stats.peak_workers <= cores,
            "{} workers for {cores} cores",
            stats.peak_workers
        );
    }

    /// Run `f` on a thread of its own; fail if it has not finished within
    /// `secs` (it hung) or panicked.
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("hung or panicked");
    }

    #[test]
    fn a_job_blocked_out_of_sight_lets_a_queued_sibling_run() {
        // Every core's worker waits, unannounced, for a job queued behind
        // them: only the backstop in a runtime wait can start its worker.
        let pool = Pool::new();
        let cores = pool.inner().target;
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<()>();
        let mut releases = Vec::with_capacity(cores);
        for _ in 0..cores {
            let (release_tx, release_rx) = crossbeam::channel::unbounded::<()>();
            let done_tx = done_tx.clone();
            pool.execute(move || {
                release_rx.recv().unwrap();
                done_tx.send(()).unwrap();
            });
            releases.push(release_tx);
        }
        pool.execute(move || {
            for release_tx in releases {
                release_tx.send(()).unwrap();
            }
        });
        within(10, move || {
            for _ in 0..cores {
                pool.recv(&done_rx).unwrap();
            }
        });
    }

    #[test]
    fn workers_retire_after_keep_alive() {
        let pool = Pool::with_keep_alive(Duration::from_millis(30));
        pool.execute(|| {});
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(pool.idle_workers(), 0, "idle worker must retire");
        assert_eq!(pool.stats().live_workers, 0);
    }

    #[test]
    fn dropping_the_last_handle_retires_idle_workers_at_once() {
        let pool = Pool::with_keep_alive(Duration::from_secs(60));
        let inner = Arc::clone(pool.inner());
        let live = move || inner.state.lock().stats.live_workers;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (ran_tx, ran_rx) = mpsc::channel();
        // One worker busy until released, the others (one or two, as the
        // pool's growth races the busy job's announcement) idle.
        let busy_ran = ran_tx.clone();
        pool.execute(move || {
            blocking(|| release_rx.recv().unwrap());
            busy_ran.send("busy").unwrap();
        });
        pool.execute(move || ran_tx.send("quick").unwrap());
        assert_eq!(ran_rx.recv_timeout(Duration::from_secs(10)), Ok("quick"));
        let until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        until("the quick job's worker never idled", &|| {
            pool.idle_workers() as u64 + 1 == live()
        });
        let workers = live();
        assert!(workers >= 2);
        let other = pool.clone();
        drop(pool);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(live(), workers, "a handle is left");
        // Well inside the keep-alive: the idle workers are gone when the
        // drop returns, the busy one finishes its job first.
        within(10, move || drop(other));
        assert_eq!(live(), 1, "an idle worker outlived the last handle");
        release_tx.send(()).unwrap();
        assert_eq!(ran_rx.recv_timeout(Duration::from_secs(10)), Ok("busy"));
        until("the busy worker outlived its job", &|| live() == 0);
    }

    #[test]
    fn stats_track_live_and_peak_workers() {
        let pool = Pool::with_keep_alive(Duration::from_millis(30));
        let gate = Arc::new(AtomicU32::new(0));
        let (tx, rx) = mpsc::channel();
        // 4 concurrently blocking jobs force 4 simultaneous workers.
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            pool.execute(move || {
                gate.fetch_add(1, Ordering::SeqCst);
                blocking(|| {
                    while gate.load(Ordering::SeqCst) < 4 {
                        std::thread::yield_now();
                    }
                });
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a blocked worker was not replaced");
        }
        let stats = pool.stats();
        assert!(
            stats.peak_workers >= 4,
            "peak must cover the concurrent burst"
        );
        assert!(stats.live_workers <= stats.peak_workers);

        // After the keep-alive has expired everyone retires, but the peak
        // high-water mark stays.
        std::thread::sleep(Duration::from_millis(300));
        let stats = pool.stats();
        assert_eq!(stats.live_workers, 0);
        assert!(stats.peak_workers >= 4);
    }

    #[test]
    fn stats_accumulate_queue_wait() {
        let pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            let tx = tx.clone();
            pool.execute(move || tx.send(()).unwrap());
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        // Dispatch is never literally instantaneous: every job records a
        // nonzero submission-to-start wait.
        assert!(pool.stats().queue_wait_nanos > 0);
    }

    #[test]
    fn claim_race_does_not_lose_jobs() {
        // Hammer the timeout/claim window: tiny keep-alive plus job
        // submission bursts around it.
        let pool = Pool::with_keep_alive(Duration::from_millis(1));
        let done = Arc::new(AtomicU32::new(0));
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_micros(900));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 200 {
            assert!(
                std::time::Instant::now() < deadline,
                "jobs lost in claim race"
            );
            std::thread::yield_now();
        }
    }
}
