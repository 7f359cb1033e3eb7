//! Golden export test: one fixed stream holding every `EventKind`
//! variant goes through all four recorders, and what they export is
//! compared with fixtures captured from the recorders as they were
//! before the event table (PR 25).
//!
//! Timestamps are the only thing stripped; every rendering is written to
//! `$CARGO_TARGET_TMPDIR/export_golden/` before it is compared, so a
//! fixture changed on purpose is a copy from there plus a reviewed diff.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use sm_obs::json::{self, Json};
use sm_obs::metrics::parse_exposition;
use sm_obs::{
    AbortCause, ChromeTracer, DeterminismAuditor, EventKind, FlightRecorder, MergeOpStats, Metrics,
    MultiRecorder, ObsEvent, Phase, Recorder, TaskPath,
};

/// Flight-detail keys the recorders export beyond the fixture, as
/// `(kind, key)`. Every one must appear; no other key may. Since the
/// event table (PR 25) the detail is every field of the event.
const ADDED_FLIGHT_KEYS: &[(&str, &str)] = &[
    ("worker_started", "worker"),
    ("worker_retired", "worker"),
    ("merge_finished", "child_continues"),
    ("merge_finished", "child_ops_compacted"),
    ("merge_finished", "committed_ops_compacted"),
    ("merge_finished", "grid_cells"),
    ("merge_finished", "delta_rebases"),
    ("merge_finished", "grid_rebases"),
    ("merge_finished", "delta_spans"),
    ("merge_finished", "memo_hits"),
    ("wal_appended", "fsync_nanos"),
    ("snapshot_taken", "snapshot_nanos"),
    ("recovery_replayed", "replay_nanos"),
];

fn stream() -> Vec<ObsEvent> {
    let at = Instant::now();
    let root = TaskPath::root();
    let c1 = root.child(1);
    let c2 = root.child(2);
    let c3 = root.child(3);
    let g = c1.child(1);
    let session = root.child(7);
    // Distinct values everywhere, so swapping two fields changes output.
    let mixed = MergeOpStats {
        child_ops: 11,
        applied_ops: 12,
        committed_ops: 13,
        child_ops_compacted: 14,
        committed_ops_compacted: 15,
        grid_cells: 16,
        delta_rebases: 17,
        grid_rebases: 18,
        delta_spans: 19,
        memo_hits: 27,
    };
    let grid = MergeOpStats {
        child_ops: 21,
        applied_ops: 22,
        committed_ops: 23,
        child_ops_compacted: 24,
        committed_ops_compacted: 25,
        grid_cells: 26,
        delta_rebases: 0,
        grid_rebases: 3,
        delta_spans: 0,
        memo_hits: 0,
    };
    let events: Vec<(&TaskPath, EventKind)> = vec![
        (&root, EventKind::TaskSpawned { spawn_nanos: 0 }),
        (&root, EventKind::WorkerStarted { worker: 0 }),
        (&root, EventKind::WorkerStarted { worker: 1 }),
        (&c1, EventKind::TaskSpawned { spawn_nanos: 800 }),
        (&c2, EventKind::TaskSpawned { spawn_nanos: 900 }),
        (&c3, EventKind::TaskSpawned { spawn_nanos: 1000 }),
        (&c1, EventKind::SyncBlocked),
        (&root, EventKind::MergeStarted { child: c1.clone() }),
        (
            &root,
            EventKind::MergeFinished {
                child: c1.clone(),
                child_continues: true,
                ops: mixed,
                oplog_len: 31,
                merge_nanos: 2500,
            },
        ),
        (
            &c1,
            EventKind::SyncResumed {
                blocked_nanos: 1500,
                accepted: true,
            },
        ),
        (&g, EventKind::TaskSpawned { spawn_nanos: 700 }),
        (
            &g,
            EventKind::TaskAborted {
                cause: AbortCause::Panicked,
            },
        ),
        (&c1, EventKind::MergeRejected { child: g.clone() }),
        (
            &c2,
            EventKind::CloneCreated {
                clone: root.child(4),
            },
        ),
        (
            &c2,
            EventKind::Mark {
                label: "round 1".into(),
            },
        ),
        (&c2, EventKind::SyncBlocked),
        (
            &c2,
            EventKind::SyncResumed {
                blocked_nanos: 600,
                accepted: false,
            },
        ),
        (&c1, EventKind::TaskCompleted),
        (&c2, EventKind::TaskCompleted),
        (
            &root,
            EventKind::MergeFinished {
                child: c2.clone(),
                child_continues: false,
                ops: grid,
                oplog_len: 40,
                merge_nanos: 4000,
            },
        ),
        (&root, EventKind::LogTruncated { dropped: 7 }),
        (
            &root,
            EventKind::WalAppended {
                bytes: 128,
                fsynced: true,
                fsync_nanos: 5000,
            },
        ),
        (
            &root,
            EventKind::WalAppended {
                bytes: 60,
                fsynced: false,
                fsync_nanos: 0,
            },
        ),
        (
            &root,
            EventKind::SnapshotTaken {
                bytes: 4096,
                snapshot_nanos: 9000,
            },
        ),
        (
            &root,
            EventKind::WalSegmentsPruned {
                segments: 2,
                snapshots: 1,
            },
        ),
        (&root, EventKind::RecoverySegmentsScanned { segments: 3 }),
        (
            &root,
            EventKind::RecoveryReplayed {
                replayed_ops: 42,
                torn_bytes: 5,
                replay_nanos: 11000,
            },
        ),
        (
            &root,
            EventKind::RecoveryFailed {
                reason: "DigestMismatch".into(),
            },
        ),
        (
            &root,
            EventKind::PhaseTimed {
                phase: Phase::RebaseDelta,
                nanos: 800,
            },
        ),
        (
            &root,
            EventKind::PhaseTimed {
                phase: Phase::WalFsync,
                nanos: 50_000,
            },
        ),
        (
            &root,
            EventKind::PhaseTimed {
                phase: Phase::ServerDispatch,
                nanos: 1234,
            },
        ),
        (
            &session,
            EventKind::SessionOpened {
                session: 7,
                shard: 1,
            },
        ),
        (
            &session,
            EventKind::SessionAttached {
                session: 7,
                shard: 1,
                subscribers: 2,
            },
        ),
        (
            &session,
            EventKind::SessionCommitted {
                session: 7,
                seq: 1,
                ops: 5,
                digest: 0xfeed_beef_0123_4567,
            },
        ),
        (
            &session,
            EventKind::SessionEvicted {
                session: 7,
                shard: 1,
            },
        ),
        (
            &session,
            EventKind::SessionRehydrated {
                session: 7,
                shard: 1,
                replayed_ops: 3,
            },
        ),
        (&session, EventKind::SlowConsumerDropped { queued: 99 }),
        (&root, EventKind::WorkerRetired { worker: 1 }),
        (&root, EventKind::TaskCompleted),
    ];
    events
        .into_iter()
        .map(|(task, kind)| ObsEvent {
            at,
            task: task.clone(),
            kind,
        })
        .collect()
}

/// Scalars of `doc` as `path = value`, objects flattened with dots.
fn flatten(prefix: &str, doc: &Json, out: &mut BTreeMap<String, String>) {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, v, out);
            }
        }
        other => {
            out.insert(prefix.to_string(), other.to_string());
        }
    }
}

/// `doc` with every object's keys sorted, rendered on one line.
fn sorted(doc: &Json) -> String {
    match doc {
        Json::Obj(fields) => {
            let mut fields: Vec<(String, Json)> = fields.clone();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", Json::str(k.as_str()), sorted(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        other => other.to_string(),
    }
}

/// Write `actual` where a deliberate fixture change can be copied from.
fn write_actual(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("export_golden");
    std::fs::create_dir_all(&dir).expect("create the golden output directory");
    std::fs::write(dir.join(name), actual).expect("write the golden output");
}

fn lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

struct Exports {
    metrics: Arc<Metrics>,
    flight: Arc<FlightRecorder>,
    chrome: Arc<ChromeTracer>,
    auditor: Arc<DeterminismAuditor>,
}

fn export() -> Exports {
    let ex = Exports {
        metrics: Arc::new(Metrics::new()),
        flight: Arc::new(FlightRecorder::new(256)),
        chrome: Arc::new(ChromeTracer::new()),
        auditor: Arc::new(DeterminismAuditor::new()),
    };
    let all = MultiRecorder::new(vec![
        ex.metrics.clone(),
        ex.flight.clone(),
        ex.chrome.clone(),
        ex.auditor.clone(),
    ]);
    for event in stream() {
        all.record(&event);
    }
    ex
}

#[test]
fn the_stream_holds_every_variant() {
    let names: BTreeSet<&str> = stream().iter().map(|e| e.kind.name()).collect();
    assert_eq!(names.len(), 26, "{names:?}");
}

#[test]
fn auditor_digest_and_chain_heads() {
    let ex = export();
    let heads: Vec<(String, String)> = ex
        .auditor
        .chain_heads()
        .iter()
        .map(|(path, head)| (path.to_string(), format!("{head:016x}")))
        .collect();
    let rendered = format!(
        "digest {:016x}\n{}",
        ex.auditor.digest(),
        heads
            .iter()
            .map(|(p, h)| format!("{p} {h}\n"))
            .collect::<String>()
    );
    write_actual("auditor.txt", &rendered);
    assert_eq!(
        heads,
        [
            ("0", "65c5a2c02033f8b6"),
            ("0/1", "1901449ab92912b6"),
            ("0/1/1", "03b33b579140ddbd"),
            ("0/2", "e44dad0e281701c9"),
            ("0/3", "be0a60d5c24e4c63"),
            ("0/7", "b087dfcf789a939f"),
        ]
        .map(|(p, h)| (p.to_string(), h.to_string())),
        "chain heads"
    );
    assert_eq!(ex.auditor.digest(), 0x4b29_4768_f53e_5aa8, "digest");
}

#[test]
fn prometheus_type_lines_and_samples() {
    let text = export().metrics.prometheus_text();
    let mut actual: BTreeSet<String> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(str::to_string)
        .collect();
    for s in parse_exposition(&text).expect("exposition parses") {
        actual.insert(format!("{}{} {}", s.name, s.labels, s.value));
    }
    let rendered: String = actual.iter().map(|l| format!("{l}\n")).collect();
    write_actual("prometheus.txt", &rendered);
    let expected: BTreeSet<String> = lines(include_str!("golden/prometheus.txt"))
        .into_iter()
        .collect();
    assert_eq!(
        actual.difference(&expected).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "exported but not in the fixture"
    );
    assert_eq!(
        expected.difference(&actual).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "in the fixture but not exported"
    );
}

#[test]
fn metrics_json_paths() {
    let doc = json::parse(&export().metrics.json_string()).expect("metrics JSON parses");
    let mut actual = BTreeMap::new();
    flatten("", &doc, &mut actual);
    let rendered: String = actual.iter().map(|(k, v)| format!("{k} = {v}\n")).collect();
    write_actual("metrics.txt", &rendered);
    assert_eq!(lines(&rendered), lines(include_str!("golden/metrics.txt")));
}

#[test]
fn flight_kinds_and_details() {
    let doc = json::parse(&export().flight.dump_string()).expect("flight JSON parses");
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    let mut rendered = String::new();
    let mut actual: Vec<(String, BTreeMap<String, String>)> = Vec::new();
    for e in entries {
        let mut fields = BTreeMap::new();
        flatten("task", e.get("task").expect("task"), &mut fields);
        if let Some(detail) = e.get("detail") {
            flatten("detail", detail, &mut fields);
        }
        let kind = e.get("kind").and_then(Json::as_str).expect("kind");
        let row: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        rendered.push_str(&format!("{kind}\t{}\n", row.join("\t")));
        actual.push((kind.to_string(), fields));
    }
    write_actual("flight.txt", &rendered);

    let fixture = include_str!("golden/flight.txt");
    assert_eq!(actual.len(), fixture.lines().count(), "entry count");
    let mut added_seen = BTreeSet::new();
    for (i, (line, (kind, fields))) in fixture.lines().zip(&actual).enumerate() {
        let mut words = line.split('\t');
        assert_eq!(Some(kind.as_str()), words.next(), "entry {i}: kind");
        let mut expected = BTreeMap::new();
        for word in words.filter(|w| !w.is_empty()) {
            let (k, v) = word.split_once('=').expect("key=value");
            expected.insert(k.to_string(), v.to_string());
            assert_eq!(
                fields.get(k),
                Some(&v.to_string()),
                "entry {i} ({kind}): {k}"
            );
        }
        for key in fields.keys().filter(|k| !expected.contains_key(*k)) {
            let bare = key.strip_prefix("detail.").unwrap_or(key);
            assert!(
                ADDED_FLIGHT_KEYS.contains(&(kind.as_str(), bare)),
                "entry {i} ({kind}): unlisted added key {key}"
            );
            added_seen.insert((kind.clone(), bare.to_string()));
        }
    }
    for (kind, key) in ADDED_FLIGHT_KEYS {
        assert!(
            added_seen.contains(&(kind.to_string(), key.to_string())),
            "listed addition {kind}.{key} never appears"
        );
    }
}

#[test]
fn chrome_events_without_timestamps() {
    let doc = json::parse(&export().chrome.json_string()).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let rendered: String = events
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).map(|v| v.to_string()).unwrap_or_default();
            format!(
                "{} {} {} {} {}\n",
                field("ph"),
                field("pid"),
                field("tid"),
                field("name"),
                e.get("args").map(sorted).unwrap_or_default()
            )
        })
        .collect();
    write_actual("chrome.txt", &rendered);
    assert_eq!(lines(&rendered), lines(include_str!("golden/chrome.txt")));
}
