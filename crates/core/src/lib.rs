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
//! | `Sync()` | [`TaskCtx::sync`] |
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
//!   this.
//! * **Determinism by default** — see [`TaskCtx::merge_all`]; the
//!   semaphore emulation ([`semaphore`]) shows the non-deterministic
//!   subset is still as expressive as semaphores (§IV-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod journal;
mod merge;
mod pool;
mod runtime;
pub mod semaphore;
mod task;
mod trace;

pub use error::{AbortReason, SyncError, TaskAbort, TaskResult};
pub use journal::CommitSink;
pub use merge::{Condition, Disposition, MergeReport, MergedChild};
pub use pool::{Pool, PoolStats};
pub use runtime::{run, run_with_pool, run_with_sink};
pub use task::{TaskCtx, TaskHandle, TaskId, TaskOutcome};
pub use trace::{MergeTrace, ReplayError, TraceCursor};

// Re-export the data structure library: users need both halves.
pub use sm_mergeable as mergeable;

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mergeable::{MCounter, MList, MRegister};

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
