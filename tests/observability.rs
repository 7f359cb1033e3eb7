//! The observability layer's contract with the runtime:
//!
//! 1. **Passivity** — installing a recorder must never change merged
//!    results. The event stream is a projection of the run, not an input
//!    to it.
//! 2. **Determinism auditing** — for a deterministic (merge_all-only)
//!    program, the auditor digest is identical on every run, while the
//!    digest still reacts to genuine behavioural differences.
//! 3. **Robust lifecycle** — recorders can be installed, swapped, and
//!    removed concurrently with a running program without panics or lost
//!    events (for sinks that stay installed throughout).
//!
//! The recorder slot is process-global, so every test here serializes on
//! one mutex; other test binaries never install recorders.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use spawn_merge::netsim::{run_spawn_merge, Routing, SimConfig};
use spawn_merge::obs::{
    self, ChromeTracer, DeterminismAuditor, Metrics, MultiRecorder, ObsEvent, Phase, Recorder,
    TaskPath,
};
use spawn_merge::{run, run_with_store, FsyncPolicy, MList, Pool, Store, StoreOptions};

/// All tests share the process-wide recorder slot; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sim_config() -> SimConfig {
    SimConfig {
        hosts: 4,
        initial_messages: 12,
        ttl: 6,
        workload: 10,
        routing: Routing::HashDerived,
    }
}

/// The paper's merge_all-only network simulation, with the full recorder
/// stack installed, must yield the same auditor digest on every run —
/// and the same simulation fingerprint as an uninstrumented run.
#[test]
fn auditor_digest_is_stable_across_runs() {
    let _guard = serial();
    let cfg = sim_config();

    // Baseline: no recorder installed at all.
    obs::uninstall();
    let baseline = run_spawn_merge(&cfg);

    let mut digests = Vec::new();
    for run_no in 0..3 {
        let auditor = Arc::new(DeterminismAuditor::new());
        obs::install(auditor.clone());
        let result = run_spawn_merge(&cfg);
        obs::uninstall();
        assert_eq!(
            result.fingerprint, baseline.fingerprint,
            "run {run_no}: installing a recorder changed the simulation result"
        );
        assert!(
            auditor.chain_count() > 0,
            "run {run_no}: auditor saw no events"
        );
        digests.push(auditor.digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "digest differed between runs 0 and 1"
    );
    assert_eq!(
        digests[1], digests[2],
        "digest differed between runs 1 and 2"
    );
}

/// The digest must not be a constant: a program doing different merges
/// hashes differently.
#[test]
fn auditor_digest_reacts_to_different_programs() {
    let _guard = serial();

    let digest_of = |children: u64| {
        let auditor = Arc::new(DeterminismAuditor::new());
        obs::install(auditor.clone());
        let (_, ()) = run(MList::<u64>::new(), |ctx| {
            for i in 0..children {
                ctx.spawn(move |c| {
                    c.data_mut().push(i);
                    Ok(())
                });
            }
            ctx.merge_all();
        });
        obs::uninstall();
        auditor.digest()
    };

    assert_ne!(
        digest_of(2),
        digest_of(3),
        "different programs must hash differently"
    );
}

/// A recorder observing a contended run is passive: results match the
/// uninstrumented baseline bit for bit, and the Chrome export of the run
/// round-trips through a JSON parser.
#[test]
fn recorder_is_passive_and_trace_round_trips() {
    let _guard = serial();

    let run_once = || {
        let (list, ()) = run(MList::<u64>::new(), |ctx| {
            for i in 0..8u64 {
                ctx.spawn(move |c| {
                    std::thread::sleep(std::time::Duration::from_micros(i * 37 % 200));
                    c.data_mut().insert(0, i);
                    Ok(())
                });
            }
            ctx.merge_all();
        });
        list.to_vec()
    };

    obs::uninstall();
    let baseline = run_once();

    let tracer = Arc::new(ChromeTracer::new());
    let metrics = Arc::new(Metrics::new());
    obs::install(Arc::new(MultiRecorder::new(vec![
        tracer.clone(),
        metrics.clone(),
    ])));
    let observed = run_once();
    obs::uninstall();

    assert_eq!(
        observed, baseline,
        "recorder must not change the merged result"
    );

    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.tasks_spawned, 9, "root + 8 children");
    assert_eq!(snapshot.merges_finished, 8, "merge_all folds 8 children");

    // The exported trace is valid JSON in Chrome trace-event shape.
    let trace = tracer.json_string();
    let doc = obs::json::parse(&trace).expect("trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("trace must have a traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(
            ev.get("ph").and_then(|p| p.as_str()).is_some(),
            "event missing phase"
        );
        assert!(
            ev.get("pid").and_then(|p| p.as_num()).is_some(),
            "event missing pid"
        );
        assert!(
            ev.get("name").and_then(|n| n.as_str()).is_some(),
            "event missing name"
        );
    }
}

/// A sink that stays installed across every swap misses nothing: swap the
/// recorder stack around it as fast as possible while tasks spawn and
/// merge, and the final MergeFinished count is still exact.
#[test]
fn swapping_recorders_mid_run_loses_no_events() {
    let _guard = serial();

    struct Null;
    impl Recorder for Null {
        fn record(&self, _event: &ObsEvent) {}
    }

    let metrics = Arc::new(Metrics::new());
    obs::install(metrics.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let swapped = Arc::new(AtomicU64::new(0));
    let churner = {
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&stop);
        let swapped = Arc::clone(&swapped);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Alternate between two stacks that BOTH contain `metrics`:
                // every event lands in it no matter when the swap happens.
                let extra: Arc<dyn Recorder> = Arc::new(Null);
                obs::install(Arc::new(MultiRecorder::new(vec![metrics.clone(), extra])));
                obs::install(metrics.clone());
                swaps += 2;
                swapped.store(swaps, Ordering::SeqCst);
            }
            swaps
        })
    };
    // The run must overlap the churn, wherever the churner was placed.
    while swapped.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    const CHILDREN: u64 = 24;
    let (list, ()) = run(MList::<u64>::new(), |ctx| {
        for i in 0..CHILDREN {
            ctx.spawn(move |c| {
                std::thread::sleep(std::time::Duration::from_micros(i * 53 % 300));
                c.data_mut().push(i);
                Ok(())
            });
        }
        ctx.merge_all();
    });

    stop.store(true, Ordering::Relaxed);
    let swaps = churner.join().expect("churner must not panic");
    obs::uninstall();

    assert!(swaps > 0, "churner never ran");
    assert_eq!(list.len(), CHILDREN as usize);
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot.merges_finished, CHILDREN,
        "a permanently-installed sink lost MergeFinished events across {swaps} swaps"
    );
    assert_eq!(snapshot.tasks_spawned, CHILDREN + 1);
}

/// Full install/uninstall churn (including windows with NO recorder) must
/// never panic or perturb results — only observation coverage changes.
#[test]
fn install_uninstall_churn_is_harmless() {
    let _guard = serial();

    struct Counting(AtomicU64);
    impl Recorder for Counting {
        fn record(&self, _event: &ObsEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    obs::uninstall();
    let baseline = {
        let (list, ()) = run(MList::<u64>::new(), |ctx| {
            for i in 0..16u64 {
                ctx.spawn(move |c| {
                    c.data_mut().push(i);
                    Ok(())
                });
            }
            ctx.merge_all();
        });
        list.to_vec()
    };

    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                obs::install(Arc::new(Counting(AtomicU64::new(0))));
                obs::uninstall();
            }
        })
    };

    for _ in 0..4 {
        let (list, ()) = run(MList::<u64>::new(), |ctx| {
            for i in 0..16u64 {
                ctx.spawn(move |c| {
                    c.data_mut().push(i);
                    Ok(())
                });
            }
            ctx.merge_all();
        });
        assert_eq!(
            list.to_vec(),
            baseline,
            "recorder churn changed a merged result"
        );
    }

    stop.store(true, Ordering::Relaxed);
    churner.join().expect("churner must not panic");
    obs::uninstall();
}

/// A deterministic store-backed workload in a fresh scratch directory.
fn store_run(tag: &str, options: StoreOptions) -> (Store, MList<u64>) {
    let dir = std::env::temp_dir().join(format!("sm-obs-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(dir, options).unwrap();
    let (list, ()) = run_with_store(MList::<u64>::new(), Pool::new(), &store, |ctx| {
        for i in 0..6u64 {
            ctx.spawn(move |c| {
                c.data_mut().push(i * 3);
                Ok(())
            });
        }
        ctx.merge_all();
    })
    .unwrap();
    (store, list)
}

/// Store telemetry lands in [`Metrics`] and on the Chrome trace's
/// dedicated store track — while the determinism auditor excludes it, so
/// durability configuration (fsync cadence, snapshots, recovery) can
/// never perturb the audited digest.
#[test]
fn store_events_reach_metrics_and_chrome_but_not_the_auditor() {
    let _guard = serial();

    let tracer = Arc::new(ChromeTracer::new());
    let metrics = Arc::new(Metrics::new());
    obs::install(Arc::new(MultiRecorder::new(vec![
        tracer.clone(),
        metrics.clone(),
    ])));
    let (store, list) = store_run(
        "metrics",
        StoreOptions {
            fsync: FsyncPolicy::Always,
            ..StoreOptions::default()
        },
    );
    store.snapshot(&list).unwrap();
    let reopened = Store::open(store.dir(), StoreOptions::default()).unwrap();
    let recovered = reopened.recover::<MList<u64>>().unwrap().expect("journal");
    obs::uninstall();
    assert_eq!(recovered.data.to_vec(), list.to_vec());

    let snap = metrics.snapshot();
    assert!(snap.wal_appends >= 6, "one WAL append per merge commit");
    assert!(snap.wal_bytes > 0);
    assert!(
        snap.wal_fsyncs >= 6,
        "FsyncPolicy::Always syncs every append"
    );
    assert!(snap.snapshots >= 2, "genesis + explicit snapshot");
    assert!(snap.snapshot_bytes > 0);
    assert_eq!(snap.recoveries, 1);
    assert_eq!(snap.recovery_replayed_ops, 0, "snapshot covered the log");

    let prom = metrics.prometheus_text();
    assert!(prom.contains("sm_wal_appends_total"));
    assert!(prom.contains("sm_recoveries_total"));

    let trace = tracer.json_string();
    let doc = obs::json::parse(&trace).expect("trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let store_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("pid").and_then(|p| p.as_num()) == Some(4.0))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(
        store_names.iter().any(|n| n.starts_with("wal append")),
        "expected WAL appends on the store track, saw {store_names:?}"
    );
    assert!(
        store_names.iter().any(|n| n.starts_with("snapshot")),
        "expected a snapshot span on the store track, saw {store_names:?}"
    );
}

/// The durability pipeline — automatic snapshots, segment retention, and
/// recovery's one scan over the WAL segments (its counter keeps the
/// exported name `sm_recovery_segments_parallel_total`) — reports through
/// [`Metrics`]: dedicated counters, byte totals, and phase timers, all
/// scrapeable from the Prometheus exposition.
#[test]
fn durability_pipeline_counters_and_phase_timers_reach_metrics() {
    let _guard = serial();

    let metrics = Arc::new(Metrics::new());
    obs::install(metrics.clone());

    let dir = std::env::temp_dir().join(format!("sm-obs-store-{}-durability", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        fsync: FsyncPolicy::EveryN(4),
        segment_bytes: 512,
        snapshot_every_ops: 25,
    };
    let store = Store::open(&dir, options.clone()).unwrap();
    let mut data = MList::<u64>::new();
    store.begin(&data).unwrap();
    for i in 0..200u64 {
        data.push(i);
        if i % 5 == 4 {
            store.commit(&data, &TaskPath::root()).unwrap();
        }
    }
    // Every snapshot, automatic or explicit, retires the segments it
    // covers.
    store.snapshot(&data).unwrap();
    store.sync().unwrap();

    let reopened = Store::open(&dir, options).unwrap();
    let recovered = reopened.recover::<MList<u64>>().unwrap().expect("journal");
    obs::uninstall();
    assert_eq!(recovered.data.to_vec(), data.to_vec());

    let snap = metrics.snapshot();
    assert!(
        snap.snapshots >= 2,
        "automatic snapshots must have fired before the explicit one"
    );
    assert!(snap.snapshot_bytes > 0);
    assert!(
        snap.wal_segments_pruned >= 1,
        "snapshots must have pruned covered segments"
    );
    assert!(
        snap.recovery_segments_parallel >= 1,
        "recovery must report the segments it scanned"
    );
    assert!(snap.phase_nanos.get(Phase::SnapshotWrite).count() >= 2);
    assert!(snap.phase_nanos.get(Phase::RecoveryDecode).count() >= 1);
    assert!(snap.phase_nanos.get(Phase::RecoveryApply).count() >= 1);

    let prom = metrics.prometheus_text();
    for name in [
        "sm_snapshots_total",
        "sm_snapshot_bytes_total",
        "sm_wal_segments_pruned_total",
        "sm_recovery_segments_parallel_total",
    ] {
        assert!(prom.contains(name), "missing {name} in exposition");
    }
}

/// Two runs of the same program under *different* durability settings
/// produce the identical audit digest: the store's events are projected
/// out, and journaling itself never alters merge behaviour.
#[test]
fn audit_digest_ignores_durability_configuration() {
    let _guard = serial();

    let digest_of = |tag: &str, options: StoreOptions| {
        let auditor = Arc::new(DeterminismAuditor::new());
        obs::install(auditor.clone());
        let (_store, list) = store_run(tag, options);
        obs::uninstall();
        (auditor.digest(), list.to_vec())
    };

    let (digest_always, state_always) = digest_of(
        "always",
        StoreOptions {
            fsync: FsyncPolicy::Always,
            ..StoreOptions::default()
        },
    );
    let (digest_batched, state_batched) = digest_of(
        "batched",
        StoreOptions {
            fsync: FsyncPolicy::EveryN(3),
            ..StoreOptions::default()
        },
    );
    let (digest_durable, state_durable) = digest_of(
        "durable",
        StoreOptions {
            fsync: FsyncPolicy::EveryN(3),
            snapshot_every_ops: 4,
            ..StoreOptions::default()
        },
    );
    assert_eq!(state_always, state_batched);
    assert_eq!(state_always, state_durable);
    assert_eq!(
        digest_always, digest_batched,
        "fsync policy must be invisible to the determinism auditor"
    );
    assert_eq!(
        digest_always, digest_durable,
        "automatic snapshots must be invisible to the auditor"
    );
}
