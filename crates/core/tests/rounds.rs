//! Round tasks against blocking tasks: every program here is written once,
//! as a round body, and run both ways — as a `spawn`ed child that loops
//! over the body and calls `sync` where it returns `Round::Sync`, and as a
//! `spawn_rounds` child. Both must leave the same final state, the same
//! merge reports and the same determinism-auditor digest and chains.
//!
//! Each program runs on a fresh pool, whose idle workers claim the rounds
//! queued while the parent sleeps before each merge call (the stolen
//! path), and on a pool whose workers all sleep in jobs queued first, so
//! that the parent's walk finds every round unclaimed and runs it itself
//! (the inline path). Both paths are counted and must occur.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use sm_core::{
    run_with_pool, Disposition, MergeReport, MergeTrace, Pool, Round, SyncError, TaskAbort,
    TaskCtx, TaskHandle,
};
use sm_mergeable::MList;
use sm_obs::{DeterminismAuditor, TaskPath};

/// The value the faulty child pushes in its second round when the case is
/// [`Fault::Reject`]; the merge condition refuses any data holding it.
const POISON: u64 = 7_777;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// The merge condition rejects the faulty child from its second round
    /// on (its data keeps the poison, so every later merge is refused).
    Reject,
    /// The faulty child returns `Err` in its second round.
    Fail,
    /// The faulty child panics in its second round.
    Panic,
    /// The parent aborts the faulty child after its first merge call.
    External,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    children: u64,
    rounds: u64,
    /// `merge_all_from_set` over the live handles in reverse creation
    /// order instead of `merge_all`.
    from_set: bool,
    fault: Fault,
    faulty: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    Blocking,
    Rounds,
}

/// Which threads ran rounds, over every run of a pool kind.
#[derive(Default)]
struct Paths {
    inline: AtomicUsize,
    stolen: AtomicUsize,
}

/// One round of child `k`: push a value that depends on what the child
/// sees, then sync, or complete after the last round.
fn body(
    case: Case,
    k: u64,
    round: u64,
    synced: Option<Result<(), SyncError>>,
    aborted: bool,
    data: &mut MList<u64>,
) -> Result<Round, TaskAbort> {
    if synced == Some(Err(SyncError::Aborted)) {
        assert!(aborted, "an aborted verdict comes with the abort flag");
        return Ok(Round::Done);
    }
    if k == case.faulty && round == 1 {
        match case.fault {
            Fault::Reject => data.push(POISON),
            Fault::Fail => return Err(TaskAbort::new("failed in round 1")),
            Fault::Panic => panic!("panicked in round 1"),
            Fault::None | Fault::External => {}
        }
    }
    data.push(data.len() as u64 * 100 + k * 10 + round);
    Ok(if round + 1 < case.rounds {
        Round::Sync
    } else {
        Round::Done
    })
}

fn spawn_child(
    ctx: &mut TaskCtx<MList<u64>>,
    form: Form,
    case: Case,
    k: u64,
    root: ThreadId,
    paths: &Arc<Paths>,
) -> TaskHandle {
    match form {
        Form::Blocking => ctx.spawn(move |c| {
            let mut synced = None;
            for round in 0.. {
                let aborted = c.is_aborted();
                match body(case, k, round, synced, aborted, c.data_mut())? {
                    Round::Sync => synced = Some(c.sync()),
                    Round::Done => break,
                }
            }
            Ok(())
        }),
        Form::Rounds => {
            let paths = Arc::clone(paths);
            let mut round = 0;
            ctx.spawn_rounds(move |c| {
                let on = if std::thread::current().id() == root {
                    &paths.inline
                } else {
                    &paths.stolen
                };
                on.fetch_add(1, Ordering::Relaxed);
                round += 1;
                let (synced, aborted) = (c.synced(), c.is_aborted());
                body(case, k, round - 1, synced, aborted, c.data_mut())
            })
        }
    }
}

/// What a run leaves: the final list, every merge report, the auditor's
/// digest and chain heads.
type Outcome = (Vec<u64>, Vec<MergeReport>, u64, BTreeMap<TaskPath, u64>);

fn run_case(case: Case, form: Form, busy: bool, paths: &Arc<Paths>) -> Outcome {
    let pool = Pool::new();
    if busy {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..workers {
            pool.execute(|| std::thread::sleep(Duration::from_millis(5)));
        }
    }
    let auditor = Arc::new(DeterminismAuditor::new());
    sm_obs::install(auditor.clone());
    let root = std::thread::current().id();
    let (list, reports) = run_with_pool(MList::from_iter([1u64]), pool, |ctx| {
        let handles: Vec<TaskHandle> = (0..case.children)
            .map(|k| spawn_child(ctx, form, case, k, root, paths))
            .collect();
        let cond = |d: &MList<u64>| !d.to_vec().contains(&POISON);
        let mut reports = Vec::new();
        while ctx.live_children() > 0 {
            if !busy {
                // Idle workers claim the queued rounds, even on one core.
                std::thread::sleep(Duration::from_millis(1));
            }
            reports.push(if case.from_set {
                let set: Vec<&TaskHandle> = handles.iter().rev().collect();
                ctx.merge_all_from_set_with(&set, &cond)
            } else {
                ctx.merge_all_with(&cond)
            });
            if case.fault == Fault::External && reports.len() == 1 {
                handles[case.faulty as usize].abort();
            }
        }
        reports
    });
    sm_obs::uninstall();
    (
        list.to_vec(),
        untimed(reports),
        auditor.digest(),
        auditor.chain_heads(),
    )
}

/// The reports without the merge timings, which no two runs share.
fn untimed(mut reports: Vec<MergeReport>) -> Vec<MergeReport> {
    for child in reports.iter_mut().flat_map(|r| &mut r.children) {
        if let Disposition::Merged(stats) = &mut child.disposition {
            stats.delta_nanos = 0;
            stats.compact_nanos = 0;
            stats.grid_nanos = 0;
            stats.apply_nanos = 0;
        }
    }
    reports
}

fn cases() -> impl Iterator<Item = Case> {
    let faults = [
        Fault::None,
        Fault::Reject,
        Fault::Fail,
        Fault::Panic,
        Fault::External,
    ];
    (1..=4u64).flat_map(move |children| {
        (1..=3u64).flat_map(move |rounds| {
            [false, true].into_iter().flat_map(move |from_set| {
                faults.into_iter().map(move |fault| Case {
                    children,
                    rounds,
                    from_set,
                    fault,
                    faulty: children / 2,
                })
            })
        })
    })
}

/// The recorder slot is process-global: one test at a time. The faulty
/// children's panics are expected and not printed.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let print = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"panicked in round 1") {
                print(info);
            }
        }));
    });
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn both_forms_agree(busy: bool) -> Arc<Paths> {
    let _guard = serial();
    let paths = Arc::new(Paths::default());
    let mut checked = 0;
    for case in cases() {
        let blocking = run_case(case, Form::Blocking, busy, &paths);
        let rounds = run_case(case, Form::Rounds, busy, &paths);
        assert_eq!(blocking.0, rounds.0, "final state, {case:?}");
        assert_eq!(blocking.1, rounds.1, "merge reports, {case:?}");
        assert_eq!(blocking.3, rounds.3, "auditor chains, {case:?}");
        assert_eq!(blocking.2, rounds.2, "auditor digest, {case:?}");
        checked += 1;
    }
    assert_eq!(checked, 4 * 3 * 2 * 5);
    paths
}

#[test]
fn rounds_equal_blocking_tasks_when_the_walk_runs_them_inline() {
    let paths = both_forms_agree(true);
    assert!(
        paths.inline.load(Ordering::Relaxed) > 0,
        "no round ran inline"
    );
}

#[test]
fn rounds_equal_blocking_tasks_when_workers_claim_them() {
    let paths = both_forms_agree(false);
    assert!(
        paths.stolen.load(Ordering::Relaxed) > 0,
        "no worker ran a round"
    );
}

#[test]
fn a_round_sees_the_verdicts_a_blocking_sync_returns() {
    let _guard = serial();
    let verdicts = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&verdicts);
    let (list, ()) = run_with_pool(MList::<u64>::new(), Pool::new(), |ctx| {
        let mut round = 0;
        let h = ctx.spawn_rounds(move |c| {
            if c.synced() == Some(Err(SyncError::Aborted)) {
                assert!(c.is_aborted());
            }
            seen.lock().unwrap().push(c.synced());
            round += 1;
            c.data_mut().push(round);
            Ok(if round < 4 { Round::Sync } else { Round::Done })
        });
        let cond = |d: &MList<u64>| d.len() != 2;
        assert_eq!(ctx.merge_all_with(&cond).merged_count(), 1);
        assert_eq!(ctx.merge_all_with(&cond).merged_count(), 0);
        h.abort();
        ctx.merge_all();
        ctx.merge_all();
    });
    assert_eq!(
        *verdicts.lock().unwrap(),
        [
            None,
            Some(Ok(())),
            Some(Err(SyncError::MergeRejected)),
            Some(Err(SyncError::Aborted)),
        ]
    );
    assert_eq!(list.to_vec(), [1], "only the first round merged");
}

/// Three round children of three rounds each, driven by `drive` on a
/// thread of its own; fails if they have not finished within 10 s.
fn three_round_children(drive: impl FnOnce(&mut TaskCtx<MList<u64>>) + Send + 'static) -> Vec<u64> {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (list, ()) = run_with_pool(MList::<u64>::new(), Pool::new(), |ctx| {
            for k in 0..3u64 {
                let mut round = 0;
                ctx.spawn_rounds(move |c| {
                    round += 1;
                    let seen = c.data().len() as u64;
                    c.data_mut().push(seen * 100 + k * 10 + round);
                    Ok(if round < 3 { Round::Sync } else { Round::Done })
                });
            }
            drive(ctx);
        });
        done_tx.send(list.to_vec()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a round never ran")
}

/// `merge_any` never runs a round itself, so every round must reach a
/// worker through its queued job; replaying the recorded order through
/// `merge_one`, which does run rounds inline, must give the same list.
#[test]
fn merge_any_leaves_rounds_to_workers_and_its_trace_replays() {
    let _guard = serial();
    let trace = Arc::new(Mutex::new(MergeTrace::new()));
    let recording = Arc::clone(&trace);
    let recorded = three_round_children(move |ctx| {
        let mut trace = recording.lock().unwrap();
        while ctx.merge_any_recording(&mut trace).is_some() {}
    });
    let trace = trace.lock().unwrap().clone();
    assert_eq!(trace.len(), 9, "three events from each of three children");
    let replayed = three_round_children(move |ctx| {
        let mut cursor = trace.cursor();
        while let Ok(Some(_)) = ctx.merge_any_replaying(&mut cursor) {}
    });
    assert_eq!(recorded, replayed);
}
