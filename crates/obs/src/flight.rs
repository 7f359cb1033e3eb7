//! The always-on flight recorder: per-thread bounded ring buffers of
//! sequence-stamped events, cheap enough to leave installed in
//! production.
//!
//! [`FlightRecorder`] is the black box of the telemetry plane. Every
//! event is stamped with a global sequence number (one atomic
//! `fetch_add`) and pushed into a bounded ring owned by the *recording
//! thread*, overwriting the oldest entry once full. Memory is therefore
//! bounded at `capacity × threads` entries forever, and the hot path
//! never contends with other recording threads: the sequence stamp is
//! lock-free, and the per-thread ring lock is uncontended except while a
//! rare [`dump`](FlightRecorder::dump) briefly walks the rings.
//!
//! Two ways to get the rings out:
//!
//! - **dump-on-demand** — [`dump`](FlightRecorder::dump) merges all
//!   rings into one globally seq-ordered `Vec<FlightEntry>`;
//!   [`dump_json`](FlightRecorder::dump_json) renders it for `/flight`.
//! - **dump-on-anomaly** — configure a directory with
//!   [`with_anomaly_dir`](FlightRecorder::with_anomaly_dir) and the
//!   recorder writes `flight-anomaly-NNNN.json` the moment an anomalous
//!   event flows past ([`EventKind::is_anomaly`](crate::EventKind::is_anomaly):
//!   merge rejection, task abort, failed-closed recovery) — the
//!   post-mortem that is already on disk when you go looking.
//!
//! Each entry's `detail` is every field of its event, as the event table
//! in [`crate::event`] declares them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::ThreadId;
use std::time::Instant;

use crate::event::ObsEvent;
use crate::json::Json;
use crate::recorder::Recorder;

/// Default per-thread ring capacity.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Cap on automatic anomaly dump files per recorder, so a pathological
/// anomaly storm cannot fill the disk.
const MAX_ANOMALY_DUMPS: u64 = 16;

/// One recorded event plus its global sequence stamp.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Global sequence number: total order over all threads' entries.
    pub seq: u64,
    /// The recorded event.
    pub event: ObsEvent,
}

/// A bounded overwrite-oldest ring. Only the owning thread pushes;
/// dumps clone the live contents.
struct Ring {
    slots: Vec<Option<FlightEntry>>,
    /// Next slot to write (wraps).
    head: usize,
    /// Total entries ever written (so `written - len` = overwritten).
    written: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            written: 0,
        }
    }

    fn push(&mut self, entry: FlightEntry) {
        let cap = self.slots.len();
        self.slots[self.head] = Some(entry);
        self.head = (self.head + 1) % cap;
        self.written += 1;
    }

    fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        // Oldest-first: the slot at `head` (if occupied) is the oldest.
        let cap = self.slots.len();
        (0..cap)
            .map(move |i| &self.slots[(self.head + i) % cap])
            .filter_map(|s| s.as_ref())
    }
}

/// The always-on, bounded-memory event ring recorder.
pub struct FlightRecorder {
    /// Global sequence stamp: one lock-free `fetch_add` per event.
    seq: AtomicU64,
    capacity: usize,
    /// Thread → its ring. Read-locked on the hot path (a lookup), write-
    /// locked only the first time a thread records.
    rings: RwLock<HashMap<ThreadId, Arc<Mutex<Ring>>>>,
    /// When set, anomalous events trigger an automatic ring dump here.
    anomaly_dir: Option<PathBuf>,
    anomaly_dumps: AtomicU64,
    t0: Instant,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events *per
    /// recording thread* (minimum 2).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            seq: AtomicU64::new(0),
            capacity: capacity.max(2),
            rings: RwLock::new(HashMap::new()),
            anomaly_dir: None,
            anomaly_dumps: AtomicU64::new(0),
            t0: Instant::now(),
        }
    }

    /// Enable dump-on-anomaly: when an anomalous event is recorded
    /// ([`EventKind::is_anomaly`](crate::EventKind::is_anomaly)), the
    /// full ring contents are written to `dir/flight-anomaly-NNNN.json`
    /// (the directory is created on first dump; at most 16 dumps per
    /// recorder instance).
    pub fn with_anomaly_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.anomaly_dir = Some(dir.into());
        self
    }

    /// Per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct recording threads seen so far.
    pub fn thread_count(&self) -> usize {
        self.rings
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Number of automatic anomaly dumps written so far.
    pub fn anomaly_dump_count(&self) -> u64 {
        self.anomaly_dumps
            .load(Ordering::Relaxed)
            .min(MAX_ANOMALY_DUMPS)
    }

    /// Snapshot every thread's ring, merged oldest-first by sequence
    /// stamp. This is the dump-on-demand path behind `/flight`.
    pub fn dump(&self) -> Vec<FlightEntry> {
        let rings = self.rings.read().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<FlightEntry> = Vec::new();
        for ring in rings.values() {
            let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(ring.entries().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// [`dump`](Self::dump) rendered as a JSON document: recorder
    /// configuration, totals, and the merged entries (with microsecond
    /// timestamps relative to recorder creation).
    pub fn dump_json(&self) -> Json {
        let entries = self.dump();
        let retained = entries.len();
        let rendered: Vec<Json> = entries.into_iter().map(|e| self.entry_json(&e)).collect();
        Json::obj([
            ("capacity_per_thread", Json::from(self.capacity as u64)),
            ("threads", Json::from(self.thread_count() as u64)),
            ("recorded_total", Json::from(self.recorded())),
            ("retained", Json::from(retained as u64)),
            ("entries", Json::Arr(rendered)),
        ])
    }

    /// [`dump_json`](Self::dump_json) rendered to a string.
    pub fn dump_string(&self) -> String {
        self.dump_json().to_string()
    }

    fn entry_json(&self, entry: &FlightEntry) -> Json {
        let micros = entry.event.at.saturating_duration_since(self.t0).as_nanos() as f64 / 1000.0;
        let mut obj = Json::obj([
            ("seq", Json::from(entry.seq)),
            ("t_us", Json::num(micros)),
            ("task", Json::Str(entry.event.task.to_string())),
            ("kind", Json::str(entry.event.kind.name())),
        ]);
        if let Some(detail) = entry.event.kind.detail() {
            obj.set("detail", detail);
        }
        obj
    }

    /// Write an anomaly dump file; never panics (a recorder must not
    /// take the runtime down), returns the path on success.
    fn dump_anomaly(&self) -> Option<PathBuf> {
        let dir = self.anomaly_dir.as_ref()?;
        let n = self.anomaly_dumps.fetch_add(1, Ordering::Relaxed);
        if n >= MAX_ANOMALY_DUMPS {
            return None;
        }
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let path = dir.join(format!("flight-anomaly-{n:04}.json"));
        std::fs::write(&path, self.dump_string()).ok()?;
        Some(path)
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, event: &ObsEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let entry = FlightEntry {
            seq,
            event: event.clone(),
        };
        let tid = std::thread::current().id();
        // Fast path: this thread already has a ring (shared read lock +
        // uncontended per-thread mutex).
        let ring = {
            let rings = self.rings.read().unwrap_or_else(PoisonError::into_inner);
            rings.get(&tid).cloned()
        };
        let ring = match ring {
            Some(r) => r,
            None => {
                let mut rings = self.rings.write().unwrap_or_else(PoisonError::into_inner);
                rings
                    .entry(tid)
                    .or_insert_with(|| Arc::new(Mutex::new(Ring::new(self.capacity))))
                    .clone()
            }
        };
        ring.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(entry);
        if event.kind.is_anomaly() && self.anomaly_dir.is_some() {
            self.dump_anomaly();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TaskPath};

    fn ev(kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Instant::now(),
            task: TaskPath::root(),
            kind,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(&ev(EventKind::Mark {
                label: format!("m{i}"),
            }));
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 4, "bounded at capacity");
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest overwritten, order kept");
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.thread_count(), 1);
    }

    #[test]
    fn rings_are_per_thread_and_merge_by_seq() {
        let fr = Arc::new(FlightRecorder::new(8));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let fr = fr.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..6u64 {
                    fr.record(&ev(EventKind::Mark {
                        label: format!("t{t}e{i}"),
                    }));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(fr.thread_count(), 4);
        let dump = fr.dump();
        assert_eq!(dump.len(), 24);
        // Globally seq-sorted, all stamps distinct.
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn dump_json_is_valid_and_carries_details() {
        let fr = FlightRecorder::new(8);
        fr.record(&ev(EventKind::PhaseTimed {
            phase: crate::timer::Phase::RebaseDelta,
            nanos: 1234,
        }));
        fr.record(&ev(EventKind::MergeRejected {
            child: TaskPath::root().child(2),
        }));
        let doc = crate::json::parse(&fr.dump_string()).expect("valid JSON");
        assert_eq!(doc.get("retained").unwrap().as_num(), Some(2.0));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("kind").unwrap().as_str(),
            Some("phase_timed")
        );
        assert_eq!(
            entries[0]
                .get("detail")
                .unwrap()
                .get("phase")
                .unwrap()
                .as_str(),
            Some("rebase_delta")
        );
        assert_eq!(
            entries[1]
                .get("detail")
                .unwrap()
                .get("child")
                .unwrap()
                .as_str(),
            Some("0/2")
        );
    }

    #[test]
    fn anomaly_triggers_dump_to_disk() {
        let dir = std::env::temp_dir().join(format!(
            "sm-obs-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(16).with_anomaly_dir(&dir);
        fr.record(&ev(EventKind::Mark {
            label: "before".into(),
        }));
        assert_eq!(fr.anomaly_dump_count(), 0);
        fr.record(&ev(EventKind::MergeRejected {
            child: TaskPath::root().child(1),
        }));
        assert_eq!(fr.anomaly_dump_count(), 1);
        let path = dir.join("flight-anomaly-0000.json");
        let text = std::fs::read_to_string(&path).expect("anomaly dump written");
        let doc = crate::json::parse(&text).expect("dump is valid JSON");
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        // The dump contains the context *before* the anomaly and the
        // anomaly itself.
        assert!(entries
            .iter()
            .any(|e| e.get("kind").unwrap().as_str() == Some("mark")));
        assert!(entries
            .iter()
            .any(|e| e.get("kind").unwrap().as_str() == Some("merge_rejected")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anomaly_dumps_are_capped() {
        let dir = std::env::temp_dir().join(format!(
            "sm-obs-flight-cap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(4).with_anomaly_dir(&dir);
        for _ in 0..40 {
            fr.record(&ev(EventKind::MergeRejected {
                child: TaskPath::root().child(1),
            }));
        }
        assert_eq!(fr.anomaly_dump_count(), MAX_ANOMALY_DUMPS);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files as u64, MAX_ANOMALY_DUMPS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
