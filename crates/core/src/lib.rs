//! **Spawn & Merge** — deterministic synchronization of multi-threaded
//! programs with operational transformation.
//!
//! This crate implements the task runtime of Boelmann, Schwittmann & Weis
//! (IPDPSW 2014): programs are trees of **tasks**; each task works on an
//! isolated fork of its parent's mergeable data (no shared state, hence no
//! race conditions and no locks), and parents fold children back in with
//! the **Merge** family, which serializes concurrent operations via
//! operational transformation. Programs that stick to the deterministic
//! merge functions produce bit-identical results on every run, on any
//! number of cores; non-determinism (`merge_any*`) is an explicit opt-in
//! for I/O-driven software.
//!
//! # The primitives
//!
//! | Paper | Here |
//! |---|---|
//! | `Spawn(f, data)` | [`TaskCtx::spawn`] (data forked implicitly) |
//! | `MergeAll` | [`TaskCtx::merge_all`] |
//! | `MergeAllFromSet` | [`TaskCtx::merge_all_from_set`] |
//! | `MergeAny` | [`TaskCtx::merge_any`] |
//! | `MergeAnyFromSet` | [`TaskCtx::merge_any_from_set`] |
//! | `Sync()` | [`TaskCtx::sync`], or [`Round::Sync`] from a [`TaskCtx::spawn_rounds`] child |
//! | `Clone(f, …)` | [`TaskCtx::clone_task`] |
//! | abort / error flags | [`TaskResult`], [`TaskHandle::abort`], [`TaskCtx::is_aborted`] |
//! | merge conditions | the `*_with` merge variants |
//!
//! # Example (listing 1 of the paper)
//!
//! ```
//! use sm_core::run;
//! use sm_mergeable::MList;
//!
//! let (list, ()) = run(MList::from_iter([1, 2, 3]), |ctx| {
//!     let t = ctx.spawn(|child| {
//!         child.data_mut().push(5);
//!         Ok(())
//!     });
//!     ctx.data_mut().push(4);
//!     ctx.merge_all_from_set(&[&t]);
//! });
//! assert_eq!(list.to_vec(), vec![1, 2, 3, 4, 5]);
//! ```
//!
//! # Guarantees
//!
//! * **No race conditions** — tasks only ever touch their own copies.
//! * **No deadlocks** — the wait graph is the task tree: a child can only
//!   wait for its parent (`sync`), a parent only for its children
//!   (`merge*`); a parent-child mutual wait resolves by the merge itself,
//!   and `merge_any_from_set` over an empty set returns instead of
//!   blocking (§IV-B). The deadlock-freedom integration tests exercise
//!   this. Code that waits on anything else (a socket, a foreign channel)
//!   should do so inside [`blocking`], which frees its worker; the pool's
//!   backstop only bounds how long a wait that does not stalls the queue.
//! * **Determinism by default** — see [`TaskCtx::merge_all`]; the
//!   semaphore emulation ([`semaphore`]) shows the non-deterministic
//!   subset is still as expressive as semaphores (§IV-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod journal;
mod merge;
mod pool;
mod round;
mod runtime;
pub mod semaphore;
mod task;
mod trace;

pub use error::{AbortReason, SyncError, TaskAbort, TaskResult};
pub use journal::CommitSink;
pub use merge::{Condition, Disposition, MergeReport, MergedChild};
pub use pool::{blocking, Pool, PoolStats};
pub use round::{Round, RoundCtx};
pub use runtime::{run, run_with_pool, run_with_sink};
pub use task::{TaskCtx, TaskHandle, TaskId, TaskOutcome};
pub use trace::{MergeTrace, ReplayError, TraceCursor};

// Re-export the data structure library: users need both halves.
pub use sm_mergeable as mergeable;

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mergeable::{MCounter, MList, MQueue, MRegister, Mergeable};

    #[test]
    fn listing1_spawn_and_merge() {
        let (list, ()) = run(MList::from_iter([1u32, 2, 3]), |ctx| {
            let t = ctx.spawn(|child| {
                child.data_mut().push(5);
                Ok(())
            });
            ctx.data_mut().push(4);
            let report = ctx.merge_all_from_set(&[&t]);
            assert!(report.all_merged());
        });
        assert_eq!(list.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_all_is_creation_ordered() {
        for _ in 0..20 {
            let (list, ()) = run(MList::<u32>::new(), |ctx| {
                for i in 0..8u32 {
                    ctx.spawn(move |child| {
                        child.data_mut().push(i);
                        Ok(())
                    });
                }
                ctx.merge_all();
            });
            assert_eq!(list.to_vec(), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn implicit_merge_all_on_root_return() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            for _ in 0..10 {
                ctx.spawn(|child| {
                    child.data_mut().inc();
                    Ok(())
                });
            }
            // No explicit merge: the runtime drains on return.
        });
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn nested_spawns() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            ctx.spawn(|child| {
                for _ in 0..3 {
                    child.spawn(|grandchild| {
                        grandchild.data_mut().inc();
                        Ok(())
                    });
                }
                child.merge_all();
                child.data_mut().add(10);
                Ok(())
            });
            ctx.merge_all();
        });
        assert_eq!(counter.get(), 13);
    }

    #[test]
    fn child_abort_discards_changes() {
        let (list, ()) = run(MList::from_iter([1u32]), |ctx| {
            let t = ctx.spawn(|child| {
                child.data_mut().push(99);
                Err(TaskAbort::new("deliberate"))
            });
            let report = ctx.merge_all_from_set(&[&t]);
            assert!(matches!(
                report.children[0].disposition,
                Disposition::AbortedByChild(AbortReason::Error(_))
            ));
        });
        assert_eq!(list.to_vec(), vec![1], "aborted child's changes dismissed");
    }

    #[test]
    fn child_panic_is_caught_and_reported() {
        let (list, ()) = run(MList::from_iter([1u32]), |ctx| {
            let t = ctx.spawn(|child| {
                child.data_mut().push(99);
                panic!("boom");
            });
            let report = ctx.merge_all_from_set(&[&t]);
            match &report.children[0].disposition {
                Disposition::AbortedByChild(AbortReason::Panic(msg)) => {
                    assert!(msg.contains("boom"));
                }
                other => panic!("expected panic disposition, got {other:?}"),
            }
        });
        assert_eq!(list.to_vec(), vec![1]);
    }

    #[test]
    fn external_abort_discards_changes() {
        let (list, ()) = run(MList::from_iter([1u32]), |ctx| {
            let t = ctx.spawn(|child| {
                child.data_mut().push(2);
                Ok(())
            });
            t.abort();
            let report = ctx.merge_all_from_set(&[&t]);
            assert_eq!(
                report.children[0].disposition,
                Disposition::AbortedExternally
            );
        });
        assert_eq!(list.to_vec(), vec![1]);
    }

    #[test]
    fn merge_condition_rejects() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            let good = ctx.spawn(|c| {
                c.data_mut().add(5);
                Ok(())
            });
            let bad = ctx.spawn(|c| {
                c.data_mut().add(1000);
                Ok(())
            });
            // Post-condition: only accept children whose result stays small.
            let report = ctx.merge_all_from_set_with(&[&good, &bad], &|d: &MCounter| d.get() < 100);
            assert!(report.children[0].disposition.is_merged());
            assert_eq!(report.children[1].disposition, Disposition::Rejected);
        });
        assert_eq!(counter.get(), 5, "rejected child rolled back");
    }

    #[test]
    fn sync_propagates_intermediate_results() {
        let ((counter, flag), ()) = run((MCounter::new(0), MRegister::new(false)), |ctx| {
            ctx.spawn(|child| {
                child.data_mut().0.inc();
                child.sync()?; // pushes the increment to the parent
                               // After sync we see the parent's updated state.
                assert!(
                    *child.data().1.get(),
                    "child must observe parent's flag after sync"
                );
                child.data_mut().0.inc();
                Ok(())
            });
            // One merge_all round processes the child's sync.
            ctx.data_mut().1.set(true);
            ctx.merge_all();
            assert_eq!(
                ctx.data().0.get(),
                1,
                "intermediate result visible after sync merge"
            );
            ctx.merge_all(); // completion
        });
        assert_eq!(counter.get(), 2);
        assert!(*flag.get());
    }

    #[test]
    fn sync_on_root_errors() {
        let (_, res) = run(MCounter::new(0), |ctx| ctx.sync());
        assert_eq!(res, Err(SyncError::RootTask));
    }

    #[test]
    fn sync_with_live_children_errors() {
        let (_, ()) = run(MCounter::new(0), |ctx| {
            ctx.spawn(|child| {
                child.spawn(|_| Ok(()));
                assert_eq!(child.sync(), Err(SyncError::HasLiveChildren));
                child.merge_all();
                assert_eq!(child.sync(), Ok(()));
                Ok(())
            });
            ctx.merge_all(); // sync
            ctx.merge_all(); // completion
        });
    }

    #[test]
    fn merge_any_returns_none_without_children() {
        let (_, ()) = run(MCounter::new(0), |ctx| {
            assert!(ctx.merge_any().is_none());
            assert!(ctx.merge_any_from_set(&[]).is_none());
        });
    }

    #[test]
    fn merge_any_eventually_merges_all() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            for _ in 0..6 {
                ctx.spawn(|c| {
                    c.data_mut().inc();
                    Ok(())
                });
            }
            let mut merged = 0;
            while let Some(mc) = ctx.merge_any() {
                assert!(mc.disposition.is_merged());
                merged += 1;
            }
            assert_eq!(merged, 6);
        });
        assert_eq!(counter.get(), 6);
    }

    #[test]
    fn clone_task_creates_sibling_merged_by_parent() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            ctx.spawn(|child| {
                // Sibling inherits the pristine copy and adds 100.
                child.clone_task(|sib| {
                    sib.data_mut().add(100);
                    Ok(())
                })?;
                child.data_mut().inc();
                Ok(())
            });
            // Drain everything (original child + adopted sibling).
        });
        assert_eq!(counter.get(), 101);
    }

    #[test]
    fn clone_on_root_errors() {
        let (_, res) = run(MCounter::new(0), |ctx| ctx.clone_task(|_| Ok(())));
        assert!(matches!(res, Err(SyncError::RootTask)));
    }

    #[test]
    fn rejected_sync_keeps_child_data_for_retry() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            ctx.spawn(|child| {
                child.data_mut().add(50);
                // First sync is rejected by the parent's condition.
                assert_eq!(child.sync(), Err(SyncError::MergeRejected));
                // Local data kept: fix it up and retry.
                assert_eq!(child.data().get(), 50);
                child.data_mut().add(-45);
                child.sync()?;
                Ok(())
            });
            // Round 1: reject anything ≥ 10.
            ctx.merge_all_with(&|d: &MCounter| d.get() < 10);
            // Round 2: accept the fixed-up retry.
            ctx.merge_all();
            ctx.merge_all(); // completion
        });
        assert_eq!(counter.get(), 5);
    }

    #[test]
    fn determinism_across_runs_with_contention() {
        let run_once = || {
            let (list, ()) = run(MList::<u32>::new(), |ctx| {
                for i in 0..10u32 {
                    ctx.spawn(move |c| {
                        // Everyone inserts at the front: maximal conflict.
                        c.data_mut().insert(0, i);
                        std::thread::sleep(std::time::Duration::from_micros(
                            (u64::from(i) * 7919) % 300,
                        ));
                        Ok(())
                    });
                }
                ctx.merge_all();
            });
            list.to_vec()
        };
        let first = run_once();
        for _ in 0..10 {
            assert_eq!(run_once(), first, "merge_all must be schedule-independent");
        }
    }

    #[test]
    fn handles_report_ids_in_creation_order() {
        run(MCounter::new(0), |ctx| {
            let a = ctx.spawn(|_| Ok(()));
            let b = ctx.spawn(|_| Ok(()));
            assert!(a.id() < b.id());
            assert!(!a.is_aborted());
            a.abort();
            assert!(a.is_aborted());
        });
    }

    #[test]
    fn merge_all_from_set_respects_argument_order() {
        let (list, ()) = run(MList::<u32>::new(), |ctx| {
            let a = ctx.spawn(|c| {
                c.data_mut().push(1);
                Ok(())
            });
            let b = ctx.spawn(|c| {
                c.data_mut().push(2);
                Ok(())
            });
            // Reversed argument order: b merges before a.
            ctx.merge_all_from_set(&[&b, &a]);
        });
        assert_eq!(list.to_vec(), vec![2, 1]);
    }

    #[test]
    fn commit_sink_sees_every_root_commit_and_the_final_state() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};

        #[derive(Default)]
        struct Recorder {
            commits: Vec<(String, bool, i64)>,
            finished_with: Option<i64>,
        }
        struct Sink(StdArc<StdMutex<Recorder>>);
        impl CommitSink<MCounter> for Sink {
            fn committed(&mut self, data: &MCounter, child: &sm_obs::TaskPath, continues: bool) {
                self.0
                    .lock()
                    .unwrap()
                    .commits
                    .push((child.to_string(), continues, data.get()));
            }
            fn finished(&mut self, data: &MCounter) {
                self.0.lock().unwrap().finished_with = Some(data.get());
            }
        }

        let rec = StdArc::new(StdMutex::new(Recorder::default()));
        let (counter, ()) = run_with_sink(
            MCounter::new(0),
            Pool::new(),
            Box::new(Sink(rec.clone())),
            |ctx| {
                ctx.spawn(|c| {
                    c.data_mut().add(1);
                    c.sync()?; // sync commit (child continues)
                    c.data_mut().add(2);
                    Ok(())
                });
                ctx.merge_all(); // processes the sync
                ctx.merge_all(); // processes the completion
            },
        );
        assert_eq!(counter.get(), 3);
        let rec = rec.lock().unwrap();
        assert_eq!(rec.commits.len(), 2, "one sync commit + one completion");
        assert!(rec.commits[0].1, "first commit is a continuing sync");
        assert_eq!(rec.commits[0].2, 1);
        assert!(!rec.commits[1].1, "second commit is the completion");
        assert_eq!(rec.commits[1].2, 3);
        assert_eq!(rec.finished_with, Some(3));
    }

    /// A mergeable that counts its `clone()`s (forks are not clones).
    struct CloneProbe {
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        value: MCounter,
    }

    impl Clone for CloneProbe {
        fn clone(&self) -> Self {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            CloneProbe {
                clones: self.clones.clone(),
                value: self.value.clone(),
            }
        }
    }

    impl mergeable::Mergeable for CloneProbe {
        fn fork(&self) -> Self {
            CloneProbe {
                clones: self.clones.clone(),
                value: self.value.fork(),
            }
        }
        fn pristine(&self) -> Self {
            CloneProbe {
                clones: self.clones.clone(),
                value: self.value.pristine(),
            }
        }
        fn merge_into(
            &mut self,
            child: &Self,
            stats: &mut mergeable::MergeStats,
        ) -> Result<(), mergeable::MergeError> {
            self.value.merge_into(&child.value, stats)
        }
        fn pending_ops(&self) -> usize {
            self.value.pending_ops()
        }
        fn rollback_to(&mut self, fork: &Self) {
            self.value.rollback_to(&fork.value);
        }
    }

    #[test]
    fn no_task_clones_its_data() {
        use std::sync::atomic::Ordering::SeqCst;
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let probe = CloneProbe {
            clones: clones.clone(),
            value: MCounter::new(0),
        };
        let (data, ()) = run(probe, |ctx| {
            ctx.data_mut().value.inc();
            ctx.spawn(|c| {
                c.data_mut().value.inc();
                c.sync()?;
                c.data_mut().value.inc();
                Ok(())
            });
            ctx.merge_all(); // the sync
            ctx.merge_all(); // the completion
        });
        assert_eq!(data.value.get(), 3);
        assert_eq!(clones.load(SeqCst), 0, "spawn, Sync and merge copy nothing");
    }

    sm_mergeable::mergeable_struct! {
        #[derive(Debug, Clone)]
        struct Shared {
            list: MList<u32>,
            queue: MQueue<u32>,
            count: MCounter,
            flag: MRegister<bool>,
        }
    }

    /// What a sibling inherits: the values, the fork marks and no local
    /// operations.
    type Start = ((Vec<u32>, Vec<u32>, i64, bool), Vec<usize>, usize);

    fn start_of(d: &Shared) -> Start {
        let mut marks = Vec::new();
        d.fork_marks(&mut marks);
        let values = (
            d.list.to_vec(),
            d.queue.to_vec(),
            d.count.get(),
            *d.flag.get(),
        );
        (values, marks, d.pending_ops())
    }

    /// `Clone` a sibling and report what it started from.
    fn sibling_start(ctx: &mut TaskCtx<Shared>) -> Start {
        let (tx, rx) = std::sync::mpsc::channel();
        ctx.clone_task(move |sib| {
            tx.send(start_of(sib.data()))
                .expect("the cloner is waiting");
            Ok(())
        })
        .expect("a child can Clone");
        rx.recv().expect("the sibling reports")
    }

    /// A `Clone`d sibling starts from what a `clone()` of the cloner's data
    /// held right after its fork (or its last accepted `Sync`), whatever
    /// wrote the data since: field writes, a `pop_front`, a rejected
    /// `Sync`, merges of the cloner's own children.
    #[test]
    fn a_clone_starts_from_the_copy_the_cloner_was_handed() {
        let seen = within_10s(move || {
            let data = Shared {
                list: MList::from_vec(vec![1, 2]),
                queue: MQueue::from_vec(vec![10, 20, 30]),
                count: MCounter::new(0),
                flag: MRegister::new(false),
            };
            let (seen_tx, seen_rx) = std::sync::mpsc::channel();
            run(data, |ctx| {
                ctx.data_mut().list.push(3);
                ctx.spawn(move |c| {
                    let mut seen = Vec::new();
                    // What a `clone()` of the data taken now would hold.
                    let handed = start_of(c.data());
                    c.data_mut().list.push(4);
                    c.data_mut().count.add(2);
                    seen.push(("field writes", handed.clone(), sibling_start(c)));
                    assert_eq!(c.data_mut().queue.pop_front(), Some(10));
                    seen.push(("pop_front", handed.clone(), sibling_start(c)));
                    c.data_mut().count.add(1000);
                    assert_eq!(c.sync(), Err(SyncError::MergeRejected));
                    seen.push(("rejected sync", handed, sibling_start(c)));
                    c.data_mut().count.add(-1000);
                    c.sync()?;
                    let handed = start_of(c.data());
                    c.data_mut().flag.set(true);
                    for i in 0..2 {
                        c.spawn(move |g| {
                            g.data_mut().list.insert(0, 100 + i);
                            g.data_mut().queue.push_back(i);
                            Ok(())
                        });
                    }
                    assert!(c.merge_all().all_merged());
                    seen.push(("merged children", handed, sibling_start(c)));
                    seen_tx.send(seen).expect("the test is waiting");
                    Ok(())
                });
                ctx.merge_all_with(&|d: &Shared| d.count.get() < 100);
                ctx.data_mut().queue.push_back(40);
                ctx.merge_all();
            });
            seen_rx.recv().expect("the child reports")
        });
        assert_eq!(seen.len(), 4);
        for (case, handed, sibling) in seen {
            assert_eq!(sibling, handed, "{case}");
        }
    }

    /// Run `program` on its own thread; fail instead of hanging the suite.
    fn within_10s<T: Send + 'static>(program: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(program()));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the program deadlocked (or panicked)")
    }

    #[test]
    fn merge_all_replies_before_it_waits_for_a_later_child() {
        // Child 2 can only reach its `sync` after child 1 has *resumed*
        // from its own: a `merge_all` that held child 1's reply until the
        // end of the walk would wait for child 2 forever.
        let counter = within_10s(|| {
            let (resumed_tx, resumed_rx) = std::sync::mpsc::sync_channel::<()>(0);
            let (counter, ()) = run(MCounter::new(0), |ctx| {
                ctx.spawn(move |c| {
                    c.data_mut().add(1);
                    c.sync()?;
                    resumed_tx.send(()).expect("child 2 is waiting");
                    Ok(())
                });
                ctx.spawn(move |c| {
                    resumed_rx.recv().expect("child 1 resumes");
                    c.data_mut().add(10);
                    c.sync()?;
                    assert_eq!(c.data().get(), 11, "fresh fork after both syncs");
                    Ok(())
                });
                let report = ctx.merge_all();
                assert!(report.all_merged());
                assert_eq!(report.completed_count(), 0, "both children synced");
                assert!(ctx.merge_all().all_merged(), "both completions are clean");
            });
            counter.get()
        });
        assert_eq!(counter, 11);
    }

    #[test]
    fn single_merges_reply_before_they_return() {
        // After `merge_any` / `merge_any_from_set` / `merge_one` merged a
        // `Sync`, the child resumes although the parent makes no further
        // runtime call: it only waits on a channel of the test's.
        type MergeOne = fn(&mut TaskCtx<MCounter>, &TaskHandle) -> Option<MergedChild>;
        let merges: [MergeOne; 3] = [
            |ctx, _| ctx.merge_any(),
            |ctx, h| ctx.merge_any_from_set(&[h]),
            |ctx, h| ctx.merge_one(h.id()),
        ];
        for merge in merges {
            within_10s(move || {
                let (resumed_tx, resumed_rx) = std::sync::mpsc::channel();
                run(MCounter::new(0), |ctx| {
                    let child = ctx.spawn(move |c| {
                        c.data_mut().inc();
                        let synced = c.sync();
                        resumed_tx.send(synced).expect("the root is waiting");
                        Ok(())
                    });
                    let merged = merge(ctx, &child).expect("one live child");
                    assert!(!merged.completed && merged.disposition.is_merged());
                    let synced = resumed_rx
                        .recv_timeout(std::time::Duration::from_secs(5))
                        .expect("the reply left with the merge call");
                    assert_eq!(synced, Ok(()));
                });
            });
        }
    }

    #[test]
    fn a_sync_the_parent_drops_unanswered_loses_the_data_for_good() {
        // The reply channel's only sender travels with the request: a
        // parent that loses the request (here to a panicking condition,
        // caught) disconnects it, and the child reads `ParentGone` instead
        // of waiting forever. The data went with the request, so the next
        // `sync` and a `Clone` say the same, and a child that carries on
        // and returns `Ok` is reported aborted instead of taking the
        // parent's drain down with it.
        let (synced, report) = within_10s(|| {
            let (synced_tx, synced_rx) = std::sync::mpsc::channel();
            let (report_tx, report_rx) = std::sync::mpsc::channel();
            run(MCounter::new(0), |ctx| {
                ctx.spawn(move |parent| {
                    parent.spawn(move |c| {
                        for _ in 0..2 {
                            synced_tx.send(c.sync()).expect("the test is waiting");
                        }
                        let cloned = c.clone_task(|_| Ok(())).map(|_| ());
                        synced_tx.send(cloned).expect("the test is waiting");
                        Ok(())
                    });
                    let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        parent.merge_all_with(&|_| panic!("condition panicked"))
                    }));
                    assert!(merged.is_err(), "the condition panicked");
                    report_tx
                        .send(parent.merge_all())
                        .expect("the test is waiting");
                    Ok(())
                });
            });
            let report = report_rx.recv().expect("the parent reports");
            (synced_rx.try_iter().collect::<Vec<_>>(), report)
        });
        assert_eq!(synced, vec![Err(SyncError::ParentGone); 3]);
        assert_eq!(report.children.len(), 1);
        assert!(report.children[0].completed);
        assert_eq!(
            report.children[0].disposition,
            Disposition::AbortedByChild(AbortReason::Error(
                "sync failed: the parent task is gone".into()
            ))
        );
    }

    #[test]
    fn a_condition_that_panics_inside_a_ready_batch_leaves_nothing_to_wait_for() {
        // A batch of ready completions is taken out of the event queue
        // whole. It is retired from the child list whole too, before the
        // walk: the drain of a parent whose condition panics half-way
        // must not wait for a child whose only event went with the batch.
        let report = within_10s(|| {
            let (_, report) = run(MCounter::new(0), |ctx| {
                ctx.spawn(|parent| {
                    let (done_tx, done_rx) = std::sync::mpsc::channel();
                    for i in 0..12 {
                        let done_tx = done_tx.clone();
                        parent.spawn(move |c| {
                            c.data_mut().add(i);
                            done_tx.send(()).expect("the parent is waiting");
                            Ok(())
                        });
                    }
                    for _ in 0..12 {
                        done_rx.recv().expect("every child reports");
                    }
                    // The completion events follow the reports.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    parent.merge_all_with(&|d: &MCounter| {
                        assert!(d.get() != 5, "condition panicked");
                        true
                    });
                    Ok(())
                });
                ctx.merge_all()
            });
            report
        });
        assert!(matches!(
            &report.children[0].disposition,
            Disposition::AbortedByChild(AbortReason::Panic(msg)) if msg.contains("condition panicked")
        ));
    }

    #[test]
    fn deferred_verdicts_reach_the_right_children() {
        let (counter, ()) = run(MCounter::new(0), |ctx| {
            ctx.spawn(|c| {
                c.data_mut().add(1000);
                assert_eq!(c.sync(), Err(SyncError::MergeRejected));
                assert_eq!(c.data().get(), 1000, "rejected: the original data back");
                c.data_mut().add(-1000);
                Ok(())
            });
            ctx.spawn(|c| {
                c.data_mut().add(5);
                assert_eq!(c.sync(), Ok(()));
                assert_eq!(c.data().get(), 5, "accepted: a fresh fork of the parent");
                Ok(())
            });
            let report = ctx.merge_all_with(&|d: &MCounter| d.get() < 100);
            assert_eq!(report.children[0].disposition, Disposition::Rejected);
            assert!(report.children[1].disposition.is_merged());
            // Both completions merge: a child that saw the wrong verdict
            // panicked in its assert and would be `AbortedByChild` here.
            assert!(ctx.merge_all().all_merged());
        });
        assert_eq!(counter.get(), 5);
    }

    #[test]
    fn children_blocked_in_sync_free_their_workers() {
        // The parent merges only once every child has reached its `sync`,
        // so each child needs a worker while the ones before it wait: the
        // pool must replace a worker that blocks, on any number of cores.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let children = 4 * std::thread::available_parallelism().map_or(1, |n| n.get());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let synced = std::sync::Arc::new(AtomicUsize::new(0));
            let (c, ()) = run(MCounter::new(0), |ctx| {
                for _ in 0..children {
                    let synced = std::sync::Arc::clone(&synced);
                    ctx.spawn(move |c| {
                        c.data_mut().inc();
                        synced.fetch_add(1, Ordering::SeqCst);
                        c.sync()?;
                        c.data_mut().inc();
                        Ok(())
                    });
                }
                while synced.load(Ordering::SeqCst) < children {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.merge_all();
                ctx.merge_all();
            });
            tx.send(c.get()).unwrap();
        });
        let total = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a child never got a worker");
        assert_eq!(total, 2 * children as i64);
    }

    #[test]
    fn pool_reuse_across_runs() {
        let pool = Pool::new();
        for _ in 0..3 {
            let (c, ()) = run_with_pool(MCounter::new(0), pool.clone(), |ctx| {
                for _ in 0..4 {
                    ctx.spawn(|c| {
                        c.data_mut().inc();
                        Ok(())
                    });
                }
            });
            assert_eq!(c.get(), 4);
        }
    }
}
