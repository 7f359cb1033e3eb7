//! The [`Store`]: segmented WAL writer, snapshot trigger, and the
//! [`CommitSink`] bridge that journals a running program.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;
use sm_core::{run_with_sink, CommitSink, Pool, TaskCtx};
use sm_mergeable::Persist;
use sm_net::frame::encode_frame;
use sm_obs::{emit, EventKind, TaskPath};

use crate::wal::{
    chain_update, segment_name, snapshot_name, CommitRecord, Record, SnapshotRecord, FNV_OFFSET,
};
use crate::StoreError;

/// When appended WAL frames are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: no committed merge is ever
    /// lost, at one disk round-trip per commit.
    Always,
    /// Group commit: `fsync` once every `n` appends. A crash can lose up
    /// to the last `n − 1` commits; recovery still restores a consistent
    /// digest-verified prefix.
    EveryN(u32),
    /// `fsync` when at least this much time has passed since the last
    /// one, amortizing the flush over bursts.
    Interval(Duration),
}

/// What the store does with journal files a durable full snapshot has
/// made redundant for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Log-structured retention: once a full snapshot at `S` is durable,
    /// delete older snapshots and every *closed* WAL segment whose
    /// commits are all ≤ `S`. Recovery work stays proportional to the
    /// data written since the last snapshot, not to the journal's
    /// lifetime.
    #[default]
    PruneCovered,
    /// Never delete journal files; every snapshot and WAL segment since
    /// genesis remains (archival / audit mode).
    KeepAll,
}

/// Tunables for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Flush policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Rotate to a new WAL segment once the current one exceeds this
    /// many bytes.
    pub segment_bytes: u64,
    /// Take an automatic full snapshot (and GC covered segments) after
    /// this many journaled operations, on the committing thread; `0`
    /// disables automatic snapshots.
    pub snapshot_every_ops: u64,
    /// What happens to covered journal files after a full snapshot.
    pub retention: RetentionPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            snapshot_every_ops: 0,
            retention: RetentionPolicy::PruneCovered,
        }
    }
}

/// Byte position of one journaled commit's frame end inside its segment
/// — introspection for crash-injection tests, which need to cut the WAL
/// exactly on (or inside) record boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameBound {
    /// The segment file holding the frame.
    pub segment: PathBuf,
    /// The commit's sequence number.
    pub seq: u64,
    /// Byte offset just past the frame inside `segment`.
    pub end: u64,
}

pub(crate) struct Segment {
    pub file: File,
    pub path: PathBuf,
    pub bytes: u64,
}

pub(crate) struct Inner {
    pub dir: PathBuf,
    pub options: StoreOptions,
    pub segment: Option<Segment>,
    /// Sequence the next commit record will get (commits start at 1).
    pub next_seq: u64,
    /// Whether the genesis (or recovery) snapshot baseline exists.
    pub started: bool,
    /// Absolute history marks of the journaled data at the last commit.
    pub last_marks: Vec<usize>,
    /// FNV digest chain per committing child path.
    pub chains: BTreeMap<Vec<u64>, u64>,
    pub ops_since_snapshot: u64,
    pub appends_since_fsync: u32,
    pub last_fsync: Instant,
    pub bounds: Vec<FrameBound>,
    /// First failure observed by the infallible sink callbacks.
    pub error: Option<StoreError>,
}

/// A durable journal of one program's root-task commits.
///
/// Cheap to clone (`Arc`-shared); all file I/O happens under one mutex,
/// on the root task's thread. See the crate docs for the protocol.
#[derive(Clone)]
pub struct Store {
    pub(crate) inner: Arc<Mutex<Inner>>,
}

impl Store {
    /// Open (creating if needed) the store directory. No file is read or
    /// written until [`begin`](Store::begin) or
    /// [`recover`](Store::recover).
    pub fn open(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Store, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let inner = Arc::new(Mutex::new(Inner {
            dir,
            options,
            segment: None,
            next_seq: 1,
            started: false,
            last_marks: Vec::new(),
            chains: BTreeMap::new(),
            ops_since_snapshot: 0,
            appends_since_fsync: 0,
            last_fsync: Instant::now(),
            bounds: Vec::new(),
            error: None,
        }));
        Ok(Store { inner })
    }

    /// The store's directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().dir.clone()
    }

    /// Journal the genesis baseline: a snapshot of `data` covering seq 0,
    /// and a fresh WAL segment for the commits to come. Idempotent once
    /// the store is started (including after [`recover`](Store::recover)).
    ///
    /// Refuses to run on a directory that already holds journal files but
    /// was not recovered — silently restarting over an existing journal
    /// would orphan it.
    pub fn begin<D: Persist>(&self, data: &D) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if inner.started {
            return Ok(());
        }
        if !list_files(&inner.dir, "snap-")?.is_empty()
            || !list_files(&inner.dir, "wal-")?.is_empty()
        {
            return Err(StoreError::Corrupt(
                "store directory already contains a journal; recover it instead of beginning anew"
                    .into(),
            ));
        }
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        inner.write_snapshot(data, 0, &marks)?;
        inner.last_marks = marks;
        inner.open_segment(1)?;
        inner.started = true;
        Ok(())
    }

    /// Append one commit record for the slice of `data`'s committed logs
    /// since the previous commit, attributing it to `child`.
    ///
    /// `Err` means the record was not appended. A failure of the automatic
    /// snapshot a commit may trigger afterwards is parked for
    /// [`take_error`](Store::take_error) instead.
    pub fn commit<D: Persist>(&self, data: &D, child: &TaskPath) -> Result<(), StoreError> {
        self.inner.lock().commit(data, child)
    }

    /// [`commit`](Store::commit) followed by an unconditional fsync —
    /// forces the record onto stable storage and onto a frame boundary
    /// regardless of the configured policy.
    pub fn commit_now<D: Persist>(&self, data: &D, child: &TaskPath) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner.commit(data, child)?;
        inner.fsync_segment()
    }

    /// Persist a full-state snapshot of `data`, rotate the WAL, and —
    /// under [`RetentionPolicy::PruneCovered`] — delete the segments and
    /// older snapshots the new snapshot covers.
    pub fn snapshot<D: Persist>(&self, data: &D) -> Result<(), StoreError> {
        self.inner.lock().snapshot(data)
    }

    /// Flush the current segment to stable storage.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.inner.lock().fsync_segment()
    }

    /// The first error a sink callback or an automatic snapshot
    /// swallowed, if any. The sink interface is infallible and a commit
    /// whose record is appended reports `Ok`, so those failures stick
    /// here; [`run_with_store`] checks this after the program finishes.
    pub fn take_error(&self) -> Option<StoreError> {
        self.inner.lock().error.take()
    }

    /// Frame boundaries of every commit appended through this handle, in
    /// append order (crash-injection test introspection).
    pub fn frame_bounds(&self) -> Vec<FrameBound> {
        self.inner.lock().bounds.clone()
    }

    /// Sequence number of the last appended commit (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().next_seq - 1
    }
}

impl Inner {
    fn commit<D: Persist>(&mut self, data: &D, child: &TaskPath) -> Result<(), StoreError> {
        if !self.started {
            return Err(StoreError::Corrupt(
                "commit before begin/recover: no genesis baseline exists".into(),
            ));
        }
        // Seal first: from here on, the bytes we export can no longer be
        // rewritten in place by tail fusion of later operations.
        data.seal_history();
        let mut ops_buf = BytesMut::new();
        let mut cursor = 0;
        let ops_count = data.encode_committed_since(&self.last_marks, &mut cursor, &mut ops_buf);
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        let ops = ops_buf.freeze();

        let seq = self.next_seq;
        let path = child.ids().to_vec();
        let prev = self.chains.get(&path).copied().unwrap_or(FNV_OFFSET);
        let chain = chain_update(prev, seq, ops.as_slice());
        let record = Record::Commit(CommitRecord {
            seq,
            child: path.clone(),
            marks: marks.clone(),
            ops,
            ops_count: ops_count as u64,
            chain,
        });
        self.append(&record, seq)?;
        self.chains.insert(path, chain);
        self.last_marks = marks;
        self.next_seq = seq + 1;
        self.ops_since_snapshot += ops_count as u64;
        if self.options.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.options.snapshot_every_ops
        {
            // The record is in the journal: a snapshot failure from here
            // on must not read as "commit not appended".
            if let Err(e) = self.snapshot(data) {
                self.park_error(e);
            }
        }
        Ok(())
    }

    /// Journal the operations recorded since the last commit, if any,
    /// attributed to `child`.
    fn commit_outstanding<D: Persist>(
        &mut self,
        data: &D,
        child: &TaskPath,
    ) -> Result<(), StoreError> {
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        if marks != self.last_marks {
            self.commit(data, child)?;
        }
        Ok(())
    }

    /// Keep `e` for [`Store::take_error`] unless an earlier failure is
    /// already parked there.
    fn park_error(&mut self, e: StoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Frame `record` and append it to the current segment, rotating
    /// first when the segment is full, fsyncing per policy.
    fn append(&mut self, record: &Record, seq: u64) -> Result<(), StoreError> {
        let append_t0 = sm_obs::is_enabled().then(Instant::now);
        let framed = frame(record);
        if self.segment.as_ref().is_some_and(|s| {
            s.bytes > 0 && s.bytes + framed.len() as u64 > self.options.segment_bytes
        }) {
            self.fsync_segment()?;
            self.open_segment(seq)?;
        }
        let segment = self
            .segment
            .as_mut()
            .expect("started store always has an open segment");
        segment.file.write_all(&framed)?;
        segment.bytes += framed.len() as u64;
        self.bounds.push(FrameBound {
            segment: segment.path.clone(),
            seq,
            end: segment.bytes,
        });

        let fsync_due = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_fsync + 1 >= n.max(1),
            FsyncPolicy::Interval(d) => self.last_fsync.elapsed() >= d,
        };
        let mut fsync_nanos = 0u64;
        if fsync_due {
            let t0 = sm_obs::is_enabled().then(Instant::now);
            self.fsync_segment()?;
            if let Some(t0) = t0 {
                fsync_nanos = t0.elapsed().as_nanos() as u64;
            }
        } else {
            self.appends_since_fsync += 1;
        }
        emit(&TaskPath::root(), || EventKind::WalAppended {
            bytes: framed.len(),
            fsynced: fsync_due,
            fsync_nanos,
        });
        if let Some(t0) = append_t0 {
            let total = t0.elapsed().as_nanos() as u64;
            // The fsync is reported as its own phase; the append phase
            // covers framing + write without it.
            sm_obs::timer::observe(
                &TaskPath::root(),
                sm_obs::Phase::WalAppend,
                total.saturating_sub(fsync_nanos),
            );
            sm_obs::timer::observe(&TaskPath::root(), sm_obs::Phase::WalFsync, fsync_nanos);
        }
        Ok(())
    }

    fn fsync_segment(&mut self) -> Result<(), StoreError> {
        if let Some(segment) = &mut self.segment {
            segment.file.sync_data()?;
        }
        self.appends_since_fsync = 0;
        self.last_fsync = Instant::now();
        Ok(())
    }

    pub(crate) fn open_segment(&mut self, first_seq: u64) -> Result<(), StoreError> {
        let path = self.dir.join(segment_name(first_seq));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        self.segment = Some(Segment { file, path, bytes });
        Ok(())
    }

    /// Full snapshot: write `snap-<covered>`, rotate the WAL, apply
    /// retention.
    fn snapshot<D: Persist>(&mut self, data: &D) -> Result<(), StoreError> {
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        let covered = self.next_seq - 1;
        self.write_snapshot(data, covered, &marks)?;
        // Rotate to a fresh segment, then drop everything the snapshot
        // covers: older snapshots and every closed WAL segment (all of
        // their commits have seq ≤ covered by construction).
        self.fsync_segment()?;
        self.open_segment(self.next_seq)?;
        self.prune_covered(covered)?;
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// Apply [`RetentionPolicy`] after a durable full snapshot at
    /// `covered`: remove older snapshots and closed WAL segments whose
    /// commits are all ≤ `covered` (a segment is fully covered when its
    /// successor starts at or below `covered + 1`; the open segment never
    /// qualifies).
    fn prune_covered(&mut self, covered: u64) -> Result<(), StoreError> {
        if self.options.retention == RetentionPolicy::KeepAll {
            return Ok(());
        }
        let current = self.segment.as_ref().map(|s| s.path.clone());
        let mut snapshots = 0usize;
        for (seq, path) in list_files(&self.dir, "snap-")? {
            if seq < covered {
                fs::remove_file(path)?;
                snapshots += 1;
            }
        }
        let wals = list_files(&self.dir, "wal-")?;
        let mut removed = Vec::new();
        for (i, (_, path)) in wals.iter().enumerate() {
            let next_first = wals.get(i + 1).map(|(seq, _)| *seq);
            if Some(path) != current.as_ref() && next_first.is_some_and(|n| n <= covered + 1) {
                fs::remove_file(path)?;
                removed.push(path.clone());
            }
        }
        self.bounds.retain(|b| !removed.contains(&b.segment));
        if snapshots + removed.len() > 0 {
            emit(&TaskPath::root(), || EventKind::WalSegmentsPruned {
                segments: removed.len(),
                snapshots,
            });
        }
        Ok(())
    }

    /// Durably write the full snapshot `snap-<seq>`: encode, frame, temp
    /// file, fsync, atomic rename, directory fsync.
    fn write_snapshot<D: Persist>(
        &self,
        data: &D,
        seq: u64,
        marks: &[usize],
    ) -> Result<(), StoreError> {
        let t0 = sm_obs::is_enabled().then(Instant::now);
        let mut state = BytesMut::new();
        data.encode_state(&mut state);
        let framed = frame(&Record::Snapshot(SnapshotRecord {
            seq,
            marks: marks.to_vec(),
            chains: self.chains.iter().map(|(p, c)| (p.clone(), *c)).collect(),
            state: state.freeze(),
        }));
        let name = snapshot_name(seq);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp_path)?;
        file.write_all(&framed)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp_path, self.dir.join(name))?;
        File::open(&self.dir)?.sync_all()?;
        if let Some(t0) = t0 {
            let snapshot_nanos = t0.elapsed().as_nanos() as u64;
            emit(&TaskPath::root(), || EventKind::SnapshotTaken {
                bytes: framed.len(),
                snapshot_nanos,
            });
            sm_obs::timer::observe(
                &TaskPath::root(),
                sm_obs::Phase::SnapshotWrite,
                snapshot_nanos,
            );
        }
        Ok(())
    }
}

/// `record` in one CRC32 frame, as segments and snapshot files hold it.
fn frame(record: &Record) -> Vec<u8> {
    let payload = record.to_bytes();
    let mut framed = Vec::with_capacity(payload.len() + sm_net::frame::HEADER_LEN);
    encode_frame(payload.as_slice(), &mut framed);
    framed
}

/// List `<prefix><seq>` files in `dir` as `(seq, path)`, ascending by
/// sequence. Ignores temp files and foreign names.
pub(crate) fn list_files(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = crate::wal::parse_seq(name, prefix) {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The [`CommitSink`] that journals a program into a [`Store`].
///
/// Sink callbacks cannot return errors, so the first failure is parked
/// in the store ([`Store::take_error`]) and journaling stops — the
/// program itself keeps running; durability degrades, correctness does
/// not.
pub struct StoreSink<D> {
    store: Store,
    _marker: PhantomData<fn(&D)>,
}

impl<D> StoreSink<D> {
    /// A sink journaling into `store`.
    pub fn new(store: Store) -> Self {
        StoreSink {
            store,
            _marker: PhantomData,
        }
    }

    /// Run one journaling `step` unless an earlier failure stopped
    /// journaling; park the step's own failure.
    fn journal(&self, step: impl FnOnce(&mut Inner) -> Result<(), StoreError>) {
        let mut inner = self.store.inner.lock();
        if inner.error.is_none() {
            if let Err(e) = step(&mut inner) {
                inner.park_error(e);
            }
        }
    }
}

impl<D: Persist> CommitSink<D> for StoreSink<D> {
    fn committed(&mut self, data: &D, child: &TaskPath, _child_continues: bool) {
        self.journal(|inner| inner.commit(data, child));
    }

    fn truncating(&mut self, data: &D, _watermark: &[usize]) {
        // GC may drop root-local operations recorded after the last merge
        // commit (when every live fork is younger than them). Journal the
        // outstanding slice first so replay never misses them.
        self.journal(|inner| inner.commit_outstanding(data, &TaskPath::root()));
    }

    fn finished(&mut self, data: &D) {
        // Journal any trailing root-local operations recorded after the
        // last merge commit, then make everything durable.
        self.journal(|inner| {
            inner.commit_outstanding(data, &TaskPath::root())?;
            inner.fsync_segment()
        });
    }
}

/// [`run_with_sink`](sm_core::run_with_sink) journaling into `store`:
/// writes the genesis baseline (unless the store was just recovered),
/// journals every root commit, and surfaces any store failure after the
/// program finishes.
///
/// On `Err`, the program's result is lost — callers that need the
/// in-memory result despite a broken journal should install a
/// [`StoreSink`] through `run_with_sink` directly and inspect
/// [`Store::take_error`] themselves.
pub fn run_with_store<D, R>(
    data: D,
    pool: Pool,
    store: &Store,
    root: impl FnOnce(&mut TaskCtx<D>) -> R,
) -> Result<(D, R), StoreError>
where
    D: Persist,
{
    store.begin(&data)?;
    let (data, result) = run_with_sink(data, pool, Box::new(StoreSink::new(store.clone())), root);
    match store.take_error() {
        Some(e) => Err(e),
        None => Ok((data, result)),
    }
}
