//! Chrome trace-event (Perfetto-compatible) JSON exporter.
//!
//! [`ChromeTracer`] buffers the raw event stream and renders it as a
//! `{"traceEvents": [...]}` document in the [trace-event format] that
//! both `chrome://tracing` and [ui.perfetto.dev] open directly:
//!
//! - every task gets its own track (`tid` = task path), named via `"M"`
//!   thread-name metadata, so the task tree reads as a timeline;
//! - task lifetimes, merges, and sync blocks are `"X"` complete spans;
//! - marks and WAL appends are `"i"` instant events;
//! - `pid` partitions the view: 1 = task tree, 2 = pool, 4 = durable
//!   store (snapshot / recovery spans), 5 = session server.
//!
//! Tracks and args come from the event table's field walk (every
//! [`TaskPath`] field names a track; merge args are fields of the
//! event); this module only decides lane, label, and span or instant.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::sync::PoisonError;
use std::time::Instant;

use crate::event::{EventKind, ObsEvent, TaskPath};
use crate::json::Json;
use crate::recorder::Recorder;

const PID_TASKS: u64 = 1;
const PID_POOL: u64 = 2;
const PID_STORE: u64 = 4;
const PID_SERVER: u64 = 5;

/// A [`Recorder`] buffering events for later export as Chrome trace JSON.
pub struct ChromeTracer {
    inner: Mutex<Vec<ObsEvent>>,
    t0: Instant,
}

impl Default for ChromeTracer {
    fn default() -> Self {
        ChromeTracer::new()
    }
}

impl ChromeTracer {
    /// An empty tracer; timestamps are relative to this call.
    pub fn new() -> Self {
        ChromeTracer {
            inner: Mutex::new(Vec::new()),
            t0: Instant::now(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.t0).as_nanos() as f64 / 1000.0
    }

    /// Render the buffered events as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut out: Vec<Json> = Vec::new();

        // Assign a stable small tid to every task path seen, in
        // deterministic (path) order, and name the tracks.
        let mut tids: BTreeMap<TaskPath, u64> = BTreeMap::new();
        for ev in &events {
            tids.entry(ev.task.clone()).or_default();
            ev.kind.walk(|_, value, _| {
                if let Some(path) = value.path() {
                    tids.entry(path.clone()).or_default();
                }
            });
        }
        for (i, tid) in tids.values_mut().enumerate() {
            *tid = i as u64 + 1;
        }
        // Name the process lanes so Perfetto renders labeled groups
        // instead of bare pids.
        for (pid, name) in [
            (PID_TASKS, "runtime"),
            (PID_POOL, "pool"),
            (PID_STORE, "store"),
            (PID_SERVER, "server"),
        ] {
            out.push(process_metadata_event(pid, name));
        }
        for (path, tid) in &tids {
            out.push(metadata_event(PID_TASKS, *tid, &format!("task {path}")));
        }

        // Task lifetime spans: spawn → completion/abort on the task's own
        // track. Open spans (no completion seen) are closed at the last
        // event's timestamp so partial traces still render.
        let trace_end = events.last().map(|e| self.micros(e.at)).unwrap_or(0.0);
        let mut open: BTreeMap<TaskPath, f64> = BTreeMap::new();
        for ev in &events {
            let ts = self.micros(ev.at);
            let tid = tids[&ev.task];
            match &ev.kind {
                EventKind::TaskSpawned { .. } => {
                    open.insert(ev.task.clone(), ts);
                }
                EventKind::TaskCompleted => {
                    let start = open.remove(&ev.task).unwrap_or(ts);
                    out.push(span(
                        PID_TASKS,
                        tid,
                        &format!("run {}", ev.task),
                        start,
                        ts - start,
                    ));
                }
                EventKind::TaskAborted { cause } => {
                    let start = open.remove(&ev.task).unwrap_or(ts);
                    out.push(span(
                        PID_TASKS,
                        tid,
                        &format!("aborted {} ({cause:?})", ev.task),
                        start,
                        ts - start,
                    ));
                }
                EventKind::MergeFinished {
                    child,
                    ops,
                    merge_nanos,
                    ..
                } => {
                    let dur = *merge_nanos as f64 / 1000.0;
                    let mut span = span(
                        PID_TASKS,
                        tid,
                        &format!("merge {child}"),
                        (ts - dur).max(0.0),
                        dur,
                    );
                    let path = if ops.delta_rebases > 0 && ops.grid_rebases == 0 {
                        "delta"
                    } else if ops.delta_rebases > 0 {
                        "mixed"
                    } else {
                        "grid"
                    };
                    let mut args = pick(
                        &ev.kind,
                        &[
                            "child_ops",
                            "applied_ops",
                            "committed_ops",
                            "delta_spans",
                            "grid_cells",
                        ],
                    );
                    args.set("rebase_path", Json::str(path));
                    span.set("args", args);
                    out.push(span);
                }
                EventKind::MergeRejected { child } => {
                    out.push(instant(
                        PID_TASKS,
                        tid,
                        &format!("merge rejected {child}"),
                        ts,
                    ));
                }
                EventKind::SyncResumed {
                    blocked_nanos,
                    accepted,
                } => {
                    let dur = *blocked_nanos as f64 / 1000.0;
                    let name = if *accepted { "sync" } else { "sync (rejected)" };
                    out.push(span(PID_TASKS, tid, name, (ts - dur).max(0.0), dur));
                }
                EventKind::CloneCreated { clone } => {
                    out.push(instant(PID_TASKS, tid, &format!("clone -> {clone}"), ts));
                }
                EventKind::WorkerStarted { worker } => {
                    out.push(instant(PID_POOL, *worker + 1, "worker started", ts));
                }
                EventKind::WorkerRetired { worker } => {
                    out.push(instant(PID_POOL, *worker + 1, "worker retired", ts));
                }
                EventKind::Mark { label } => {
                    out.push(instant(PID_TASKS, tid, label, ts));
                }
                EventKind::LogTruncated { dropped } => {
                    out.push(instant(
                        PID_TASKS,
                        tid,
                        &format!("log gc -{dropped} ops"),
                        ts,
                    ));
                }
                EventKind::WalAppended { bytes, fsynced, .. } => {
                    let sync = if *fsynced { " +fsync" } else { "" };
                    out.push(instant(
                        PID_STORE,
                        1,
                        &format!("wal append {bytes}B{sync}"),
                        ts,
                    ));
                }
                EventKind::SnapshotTaken {
                    bytes,
                    snapshot_nanos,
                } => {
                    let dur = *snapshot_nanos as f64 / 1000.0;
                    out.push(span(
                        PID_STORE,
                        1,
                        &format!("snapshot {bytes}B"),
                        (ts - dur).max(0.0),
                        dur,
                    ));
                }
                EventKind::RecoveryReplayed {
                    replayed_ops,
                    torn_bytes,
                    replay_nanos,
                } => {
                    let dur = *replay_nanos as f64 / 1000.0;
                    let torn = if *torn_bytes > 0 {
                        format!(", torn {torn_bytes}B truncated")
                    } else {
                        String::new()
                    };
                    out.push(span(
                        PID_STORE,
                        1,
                        &format!("recovery replay {replayed_ops} ops{torn}"),
                        (ts - dur).max(0.0),
                        dur,
                    ));
                }
                EventKind::WalSegmentsPruned {
                    segments,
                    snapshots,
                } => {
                    out.push(instant(
                        PID_STORE,
                        1,
                        &format!("retention pruned {segments} segments, {snapshots} snapshots"),
                        ts,
                    ));
                }
                EventKind::RecoverySegmentsScanned { segments } => {
                    out.push(instant(
                        PID_STORE,
                        1,
                        &format!("recovery scanned {segments} segments"),
                        ts,
                    ));
                }
                EventKind::RecoveryFailed { reason } => {
                    out.push(instant(
                        PID_STORE,
                        1,
                        &format!("recovery FAILED: {reason}"),
                        ts,
                    ));
                }
                EventKind::PhaseTimed { phase, nanos } => {
                    let dur = *nanos as f64 / 1000.0;
                    out.push(span(
                        PID_TASKS,
                        tid,
                        &format!("phase {phase}"),
                        (ts - dur).max(0.0),
                        dur,
                    ));
                }
                EventKind::SessionOpened { session, shard } => {
                    out.push(instant(
                        PID_SERVER,
                        *shard + 1,
                        &format!("session {session} opened"),
                        ts,
                    ));
                }
                EventKind::SessionAttached {
                    session,
                    shard,
                    subscribers,
                } => {
                    out.push(instant(
                        PID_SERVER,
                        *shard + 1,
                        &format!("session {session} attach ({subscribers} subs)"),
                        ts,
                    ));
                }
                EventKind::SessionEvicted { session, shard } => {
                    out.push(instant(
                        PID_SERVER,
                        *shard + 1,
                        &format!("session {session} evicted"),
                        ts,
                    ));
                }
                EventKind::SessionRehydrated {
                    session,
                    shard,
                    replayed_ops,
                } => {
                    out.push(instant(
                        PID_SERVER,
                        *shard + 1,
                        &format!("session {session} rehydrated (+{replayed_ops} ops)"),
                        ts,
                    ));
                }
                EventKind::SessionCommitted {
                    session, seq, ops, ..
                } => {
                    out.push(instant(
                        PID_SERVER,
                        1,
                        &format!("session {session} commit #{seq} ({ops} ops)"),
                        ts,
                    ));
                }
                EventKind::SlowConsumerDropped { queued } => {
                    out.push(instant(
                        PID_SERVER,
                        1,
                        &format!("slow consumer dropped ({queued} queued)"),
                        ts,
                    ));
                }
                EventKind::MergeStarted { .. } | EventKind::SyncBlocked => {}
            }
        }
        for (path, start) in open {
            let tid = tids[&path];
            out.push(span(
                PID_TASKS,
                tid,
                &format!("run {path} (unfinished)"),
                start,
                (trace_end - start).max(0.0),
            ));
        }

        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    /// [`to_chrome_json`](Self::to_chrome_json) rendered to a string.
    pub fn json_string(&self) -> String {
        self.to_chrome_json().to_string()
    }
}

impl Recorder for ChromeTracer {
    fn record(&self, event: &ObsEvent) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// The named fields of `kind`'s [detail](EventKind::detail), in the
/// order given.
fn pick(kind: &EventKind, keys: &[&'static str]) -> Json {
    let detail = kind.detail().unwrap_or(Json::Null);
    Json::obj(
        keys.iter()
            .filter_map(|key| Some((*key, detail.get(key)?.clone()))),
    )
}

fn base_event(phase: &str, pid: u64, tid: u64, name: &str, ts: f64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str(phase)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("ts", Json::num(ts)),
    ])
}

fn span(pid: u64, tid: u64, name: &str, ts: f64, dur: f64) -> Json {
    let mut e = base_event("X", pid, tid, name, ts);
    e.set("dur", Json::num(dur));
    e
}

fn instant(pid: u64, tid: u64, name: &str, ts: f64) -> Json {
    let mut e = base_event("i", pid, tid, name, ts);
    e.set("s", Json::str("t"));
    e
}

fn metadata_event(pid: u64, tid: u64, thread_name: &str) -> Json {
    let mut e = base_event("M", pid, tid, "thread_name", 0.0);
    e.set("args", Json::obj([("name", Json::str(thread_name))]));
    e
}

fn process_metadata_event(pid: u64, process_name: &str) -> Json {
    let mut e = base_event("M", pid, 0, "process_name", 0.0);
    e.set("args", Json::obj([("name", Json::str(process_name))]));
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MergeOpStats;

    fn ev(task: TaskPath, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Instant::now(),
            task,
            kind,
        }
    }

    #[test]
    fn renders_valid_trace_json() {
        let tracer = ChromeTracer::new();
        let root = TaskPath::root();
        let child = root.child(1);
        tracer.record(&ev(root.clone(), EventKind::TaskSpawned { spawn_nanos: 0 }));
        tracer.record(&ev(
            child.clone(),
            EventKind::TaskSpawned { spawn_nanos: 800 },
        ));
        tracer.record(&ev(child.clone(), EventKind::TaskCompleted));
        tracer.record(&ev(
            root.clone(),
            EventKind::MergeStarted {
                child: child.clone(),
            },
        ));
        tracer.record(&ev(
            root.clone(),
            EventKind::MergeFinished {
                child: child.clone(),
                child_continues: false,
                ops: MergeOpStats {
                    child_ops: 3,
                    applied_ops: 3,
                    committed_ops: 0,
                    ..Default::default()
                },
                oplog_len: 3,
                merge_nanos: 2000,
            },
        ));
        tracer.record(&ev(root.clone(), EventKind::TaskCompleted));
        assert_eq!(tracer.len(), 6);

        let text = tracer.json_string();
        let doc = crate::json::parse(&text).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 process_name + 2 thread_name metadata + 2 run spans + 1
        // merge span.
        assert_eq!(events.len(), 9);
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if ph == "X" {
                assert!(e.get("dur").unwrap().as_num().unwrap() >= 0.0);
            }
        }
        let merge = events
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("merge ")
            })
            .unwrap();
        assert_eq!(
            merge
                .get("args")
                .unwrap()
                .get("child_ops")
                .unwrap()
                .as_num(),
            Some(3.0)
        );
        // Zero delta rebases (the Default) reads as a grid-path merge.
        assert_eq!(
            merge
                .get("args")
                .unwrap()
                .get("rebase_path")
                .unwrap()
                .as_str(),
            Some("grid")
        );
    }

    #[test]
    fn store_events_render_on_their_own_process_track() {
        let tracer = ChromeTracer::new();
        let root = TaskPath::root();
        tracer.record(&ev(
            root.clone(),
            EventKind::WalAppended {
                bytes: 128,
                fsynced: true,
                fsync_nanos: 2_000,
            },
        ));
        tracer.record(&ev(
            root.clone(),
            EventKind::SnapshotTaken {
                bytes: 4096,
                snapshot_nanos: 8_000,
            },
        ));
        tracer.record(&ev(
            root.clone(),
            EventKind::RecoveryReplayed {
                replayed_ops: 17,
                torn_bytes: 5,
                replay_nanos: 3_000,
            },
        ));
        let doc = crate::json::parse(&tracer.json_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let store: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("pid").unwrap().as_num() == Some(PID_STORE as f64)
                    && e.get("ph").unwrap().as_str() != Some("M")
            })
            .collect();
        assert_eq!(store.len(), 3);
        assert!(store.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("i")
                && e.get("name").unwrap().as_str().unwrap().contains("+fsync")
        }));
        assert!(store.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("name").unwrap().as_str() == Some("snapshot 4096B")
        }));
        assert!(store.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("name").unwrap().as_str().unwrap().contains("torn 5B")
        }));
    }

    #[test]
    fn process_lanes_are_named() {
        let tracer = ChromeTracer::new();
        tracer.record(&ev(TaskPath::root(), EventKind::Mark { label: "x".into() }));
        let doc = crate::json::parse(&tracer.json_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let lane_names: Vec<(f64, &str)> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_num().unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(
            lane_names,
            [
                (1.0, "runtime"),
                (2.0, "pool"),
                (4.0, "store"),
                (5.0, "server")
            ]
        );
    }

    #[test]
    fn phase_and_recovery_failure_render() {
        let tracer = ChromeTracer::new();
        let root = TaskPath::root();
        tracer.record(&ev(
            root.clone(),
            EventKind::PhaseTimed {
                phase: crate::timer::Phase::RebaseGrid,
                nanos: 5_000,
            },
        ));
        tracer.record(&ev(
            root.clone(),
            EventKind::RecoveryFailed {
                reason: "DigestMismatch".into(),
            },
        ));
        let doc = crate::json::parse(&tracer.json_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("X")
                && e.get("name").unwrap().as_str() == Some("phase rebase_grid")
        }));
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("i")
                && e.get("name").unwrap().as_str() == Some("recovery FAILED: DigestMismatch")
        }));
    }

    #[test]
    fn unfinished_tasks_still_render() {
        let tracer = ChromeTracer::new();
        let root = TaskPath::root();
        tracer.record(&ev(root.clone(), EventKind::TaskSpawned { spawn_nanos: 0 }));
        tracer.record(&ev(
            root.clone(),
            EventKind::Mark {
                label: "midway".into(),
            },
        ));
        let doc = crate::json::parse(&tracer.json_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| e
            .get("name")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unfinished")));
    }
}
