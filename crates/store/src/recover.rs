//! Crash recovery: snapshot load, torn-tail repair, journal replay, and
//! digest-chain verification.
//!
//! The invariant recovery enforces is *verified prefix or nothing*:
//!
//! 1. The highest decodable snapshot is the base state. When a newer
//!    delta snapshot pairs with it (decodes cleanly against it), the
//!    delta shortens the replay; a delta that fails *any* check is
//!    silently skipped — deltas accelerate recovery, they never gate it.
//! 2. The WAL suffix (commits with `seq` above the base) replays in
//!    strict sequence order through the ordinary OT apply path
//!    ([`Persist::apply_log`] or its prepared equivalent) — the same
//!    code path a live merge uses, which is why the reconstructed state
//!    is bit-identical to the original run's.
//! 3. Every replayed record's FNV digest chain is recomputed and checked
//!    against the journaled value; any mismatch refuses recovery
//!    ([`StoreError::DigestMismatch`]) rather than starting from silently
//!    divergent state.
//! 4. A frame error in the **final** segment is a torn write: the tail is
//!    truncated and the clean prefix wins. The same error anywhere else
//!    means interior corruption and fails closed
//!    ([`StoreError::Corrupt`]).
//!
//! # Parallel replay
//!
//! By default [`Store::recover`] fans the per-segment work — file read,
//! frame CRC, record decode, and digest-chain verification — out on a
//! task pool, one job per WAL segment. A single coordinator then links
//! the per-segment chains across segment boundaries in strict `seq`
//! order and replays the prepared logs through
//! [`Persist::replay_prepared`], which structures override to amortize
//! work across consecutive commits (e.g. the list replay session). The
//! digest chains are computed over the journaled *bytes*, so the chain
//! verification — and therefore the accepted prefix — is byte-for-byte
//! the same as the serial path's.
//!
//! Chain verification splits by induction: inside a segment each commit
//! is checked against its *predecessor's stored* chain; the coordinator
//! re-verifies only the first commit per child path per segment against
//! the globally accumulated chain. If the boundary link holds, every
//! stored predecessor inside the segment was already proven correct, so
//! the intra-segment checks carry full strength.
//!
//! The one observable difference is error *selection* under multiple
//! independent corruptions: the parallel path verifies all chains before
//! applying any operation, so a digest mismatch in a later segment is
//! reported even if an earlier commit would have failed replay first.
//! Either way recovery fails closed; [`Store::recover_serial`] keeps the
//! exact serial interleaving as the reference.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, Bytes};
use parking_lot::{Condvar, Mutex};
use sm_core::Pool;
use sm_mergeable::{Persist, PreparedLog, ReplayError};
use sm_net::frame::Frames;
use sm_obs::{emit, EventKind, TaskPath};

use crate::store::{list_files, Store};
use crate::wal::{chain_update, Record, FNV_OFFSET};
use crate::StoreError;

/// The outcome of a successful [`Store::recover`].
#[derive(Debug)]
pub struct Recovered<D> {
    /// The reconstructed state: snapshot plus replayed journal suffix.
    pub data: D,
    /// Sequence of the snapshot (or delta snapshot) recovery started
    /// from (0 = genesis).
    pub snapshot_seq: u64,
    /// Sequence of the last replayed commit (equals `snapshot_seq` when
    /// the journal suffix was empty).
    pub last_seq: u64,
    /// Operations replayed from the journal suffix.
    pub replayed_ops: u64,
    /// Bytes of torn tail frame truncated during repair (0 = clean).
    pub torn_bytes: u64,
    /// Verified digest chain per child path, as of `last_seq` —
    /// exposed so differential tests can compare recovery paths
    /// chain-for-chain.
    pub chains: BTreeMap<Vec<u64>, u64>,
}

/// The replay starting point: decoded base state, its digest chains,
/// and the sequence it covers. Either the newest full snapshot or a
/// delta snapshot reconstructed against it.
struct ReplayBase<D> {
    data: D,
    chains: BTreeMap<Vec<u64>, u64>,
    seq: u64,
}

/// Locate and decode the replay base, or `None` for a fresh store.
///
/// The highest decodable full snapshot wins; a newer delta snapshot
/// upgrades it when — and only when — the delta names that snapshot as
/// its base and decodes cleanly against it. Any delta defect (torn
/// file, wrong base, decode failure) silently falls back to the full
/// snapshot plus a longer replay.
fn load_base<D: Persist>(dir: &Path) -> Result<Option<ReplayBase<D>>, StoreError> {
    let snaps = list_files(dir, "snap-")?;
    let wals = list_files(dir, "wal-")?;
    if snaps.is_empty() {
        if !wals.is_empty() {
            return Err(StoreError::Corrupt(
                "WAL segments present but no snapshot: the genesis baseline is gone".into(),
            ));
        }
        return Ok(None);
    }

    // Highest decodable snapshot wins. Snapshots are written to a
    // temp file and renamed, so normally the newest is valid; if it
    // is not, an older one may still give a usable (if longer) replay.
    let mut base = None;
    for (seq, path) in snaps.iter().rev() {
        let bytes = fs::read(path)?;
        let mut frames = Frames::new(&bytes);
        let Some((_, payload)) = frames.next() else {
            continue;
        };
        if let Ok(Record::Snapshot(snap)) = Record::from_bytes(payload) {
            if snap.seq == *seq {
                base = Some(snap);
                break;
            }
        }
    }
    let Some(snap) = base else {
        return Err(StoreError::Corrupt(
            "no snapshot file decodes cleanly".into(),
        ));
    };

    let mut state = snap.state.clone();
    let full = D::decode_state(&mut state)
        .map_err(|e| StoreError::Corrupt(format!("snapshot state: {e}")))?;

    // Delta upgrade: newest delta that names this snapshot as its base
    // and decodes cleanly. Failures skip silently — the full snapshot
    // below is always sufficient.
    for (seq, path) in list_files(dir, "snap-delta-")?.iter().rev() {
        if *seq <= snap.seq {
            continue;
        }
        let Ok(bytes) = fs::read(path) else {
            continue;
        };
        let mut frames = Frames::new(&bytes);
        let Some((_, payload)) = frames.next() else {
            continue;
        };
        let Ok(Record::SnapshotDelta(delta)) = Record::from_bytes(payload) else {
            continue;
        };
        if delta.seq != *seq || delta.base_seq != snap.seq {
            continue;
        }
        let mut delta_bytes = delta.delta.clone();
        let Ok(data) = D::decode_state_delta(&full, &mut delta_bytes) else {
            continue;
        };
        if delta_bytes.has_remaining() {
            continue;
        }
        return Ok(Some(ReplayBase {
            data,
            chains: delta.chains.iter().cloned().collect(),
            seq: delta.seq,
        }));
    }

    Ok(Some(ReplayBase {
        data: full,
        chains: snap.chains.iter().cloned().collect(),
        seq: snap.seq,
    }))
}

/// One commit scanned off a WAL segment by a recovery worker.
struct ScannedCommit<D> {
    seq: u64,
    child: Vec<u64>,
    /// The journaled chain value. Verified against the in-segment
    /// predecessor by the worker; the coordinator re-verifies it from
    /// the global chain when this is the child's first commit in the
    /// segment ([`ScannedCommit::boundary_ops`]).
    stored_chain: u64,
    /// Raw op bytes, kept only for the child's first commit in the
    /// segment so the coordinator can recompute the boundary link.
    boundary_ops: Option<Bytes>,
    prepared: Box<dyn PreparedLog<D>>,
}

/// Everything a worker learned about one segment. Commits precede the
/// error/trailer positionally: the coordinator consumes `commits`
/// first, then surfaces `error`, then `trailer`, reproducing the
/// serial scan order within the segment.
struct SegmentScan<D> {
    commits: Vec<ScannedCommit<D>>,
    error: Option<StoreError>,
    /// `(message, clean_offset, total_len)` when the frame stream ended
    /// in an error — a torn tail if this is the final segment.
    trailer: Option<(String, usize, usize)>,
}

/// Scan one WAL segment: read, CRC-check frames, decode records, verify
/// intra-segment digest chains, and pre-decode each commit's ops into a
/// [`PreparedLog`]. Runs on pool workers; touches no shared state.
fn scan_segment<D: Persist + 'static>(path: &Path, min_seq: u64) -> SegmentScan<D> {
    let mut scan = SegmentScan {
        commits: Vec::new(),
        error: None,
        trailer: None,
    };
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            scan.error = Some(StoreError::Io(e));
            return scan;
        }
    };
    let mut frames = Frames::new(&bytes);
    let mut last_seq: Option<u64> = None;
    let mut seg_chains: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
    for (_, payload) in frames.by_ref() {
        let record = match Record::from_bytes(payload) {
            Ok(record) => record,
            Err(e) => {
                scan.error = Some(StoreError::Corrupt(format!("WAL record: {e}")));
                return scan;
            }
        };
        let Record::Commit(commit) = record else {
            scan.error = Some(StoreError::Corrupt(
                "snapshot record inside a WAL segment".into(),
            ));
            return scan;
        };
        if commit.seq <= min_seq {
            // A pre-snapshot segment that escaped GC (crash between
            // snapshot and segment deletion): already folded into the
            // base, skip.
            continue;
        }
        if let Some(prev) = last_seq {
            if commit.seq != prev + 1 {
                scan.error = Some(StoreError::Corrupt(format!(
                    "commit sequence gap: expected {}, found {}",
                    prev + 1,
                    commit.seq
                )));
                return scan;
            }
        }
        // First commit per child in this segment: the predecessor chain
        // lives in an earlier segment (or the snapshot), so keep the op
        // bytes and let the coordinator verify the boundary link. Later
        // commits verify against the predecessor's *stored* chain — by
        // induction from the boundary, that predecessor is proven.
        let boundary_ops = match seg_chains.get(&commit.child) {
            Some(&prev_chain) => {
                let computed = chain_update(prev_chain, commit.seq, commit.ops.as_slice());
                if computed != commit.chain {
                    scan.error = Some(StoreError::DigestMismatch {
                        seq: commit.seq,
                        stored: commit.chain,
                        computed,
                    });
                    return scan;
                }
                None
            }
            None => Some(commit.ops.clone()),
        };
        seg_chains.insert(commit.child.clone(), commit.chain);
        last_seq = Some(commit.seq);
        scan.commits.push(ScannedCommit {
            seq: commit.seq,
            child: commit.child,
            stored_chain: commit.chain,
            boundary_ops,
            prepared: D::decode_log_prepared(commit.ops, commit.ops_count),
        });
    }
    if let Some(trailer) = frames.trailer() {
        scan.trailer = Some((trailer.to_string(), frames.offset(), bytes.len()));
    }
    scan
}

impl Store {
    /// Recover the journaled state from disk, priming this store to
    /// continue journaling right after it.
    ///
    /// Returns `Ok(None)` when the directory holds no journal (a fresh
    /// store — call [`begin`](Store::begin), typically via
    /// [`run_with_store`](crate::run_with_store)). Fails closed on
    /// interior corruption or digest mismatch; see the module docs for
    /// the exact rules.
    ///
    /// Segment scanning fans out on a task pool;
    /// [`Store::recover_serial`] is the single-threaded reference.
    pub fn recover<D: Persist + 'static>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_telemetry(|s| s.recover_parallel_inner::<D>())
    }

    /// [`Store::recover`] pinned to the single-threaded replay path:
    /// the reference — differential tests replay the same journal
    /// through both paths and compare states and digest chains.
    pub fn recover_serial<D: Persist>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_telemetry(|s| s.recover_serial_inner::<D>())
    }

    /// Shared recovery telemetry: times the whole pass, emits
    /// [`EventKind::RecoveryReplayed`] on success and
    /// [`EventKind::RecoveryFailed`] on a failed-closed refusal.
    fn recover_telemetry<D>(
        &self,
        run: impl FnOnce(&Self) -> Result<Option<Recovered<D>>, StoreError>,
    ) -> Result<Option<Recovered<D>>, StoreError> {
        let t0 = sm_obs::is_enabled().then(Instant::now);
        let result = run(self);
        match &result {
            Ok(recovered) => {
                if let (Some(t0), Some(r)) = (t0, recovered.as_ref()) {
                    let replay_nanos = t0.elapsed().as_nanos() as u64;
                    emit(&TaskPath::root(), || EventKind::RecoveryReplayed {
                        replayed_ops: r.replayed_ops as usize,
                        torn_bytes: r.torn_bytes as usize,
                        replay_nanos,
                    });
                    sm_obs::timer::observe(
                        &TaskPath::root(),
                        sm_obs::Phase::RecoveryReplay,
                        replay_nanos,
                    );
                }
            }
            // Failed-closed recovery is an anomaly: surface it in the
            // event stream so the flight recorder dumps its rings.
            Err(err) => {
                let reason = match err {
                    StoreError::Io(e) => format!("Io: {e}"),
                    StoreError::Corrupt(msg) => format!("Corrupt: {msg}"),
                    StoreError::DigestMismatch { seq, .. } => {
                        format!("DigestMismatch at seq {seq}")
                    }
                    StoreError::Replay { seq, .. } => format!("Replay failed at seq {seq}"),
                };
                emit(&TaskPath::root(), || EventKind::RecoveryFailed { reason });
            }
        }
        result
    }

    fn recover_serial_inner<D: Persist>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(base) = load_base::<D>(&inner.dir)? else {
            return Ok(None);
        };
        let wals = list_files(&inner.dir, "wal-")?;

        let mut data = base.data;
        let mut chains = base.chains;
        let mut last_seq = base.seq;
        let mut replayed_ops = 0u64;
        let mut torn_bytes = 0u64;

        let last_segment = wals.len().saturating_sub(1);
        for (i, (_, path)) in wals.iter().enumerate() {
            let bytes = fs::read(path)?;
            let mut frames = Frames::new(&bytes);
            for (_, payload) in frames.by_ref() {
                let record = Record::from_bytes(payload)
                    .map_err(|e| StoreError::Corrupt(format!("WAL record: {e}")))?;
                let Record::Commit(commit) = record else {
                    return Err(StoreError::Corrupt(
                        "snapshot record inside a WAL segment".into(),
                    ));
                };
                if commit.seq <= base.seq {
                    // A pre-snapshot segment that escaped GC (crash
                    // between snapshot and segment deletion): already
                    // folded into the snapshot, skip.
                    continue;
                }
                if commit.seq != last_seq + 1 {
                    return Err(StoreError::Corrupt(format!(
                        "commit sequence gap: expected {}, found {}",
                        last_seq + 1,
                        commit.seq
                    )));
                }
                let prev = chains.get(&commit.child).copied().unwrap_or(FNV_OFFSET);
                let computed = chain_update(prev, commit.seq, commit.ops.as_slice());
                if computed != commit.chain {
                    return Err(StoreError::DigestMismatch {
                        seq: commit.seq,
                        stored: commit.chain,
                        computed,
                    });
                }
                let mut ops = commit.ops.clone();
                let applied = data.apply_log(&mut ops).map_err(|e| StoreError::Replay {
                    seq: commit.seq,
                    error: e,
                })?;
                if applied as u64 != commit.ops_count || ops.has_remaining() {
                    return Err(StoreError::Corrupt(format!(
                        "commit {} replayed {applied} of {} ops with {} trailing bytes",
                        commit.seq,
                        commit.ops_count,
                        ops.remaining()
                    )));
                }
                chains.insert(commit.child.clone(), computed);
                last_seq = commit.seq;
                replayed_ops += applied as u64;
                // Reproduce the journaling protocol's seal points: the
                // original run sealed its history at every commit, so the
                // replayed structure must carry the same fuse barriers.
                // This also keeps replay linear — without the barrier,
                // tail fusion accretes one ever-growing span op that is
                // rebuilt on every replayed operation.
                data.seal_history();
            }
            if let Some(trailer) = frames.trailer() {
                if i != last_segment {
                    return Err(StoreError::Corrupt(format!(
                        "frame error inside non-final segment {}: {trailer}",
                        path.display()
                    )));
                }
                // Torn tail: truncate the file back to the clean prefix.
                torn_bytes = (bytes.len() - frames.offset()) as u64;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(frames.offset() as u64)?;
                file.sync_data()?;
            }
        }

        // Prime the store to continue journaling after the recovered
        // prefix. The recovered data's own history marks are its absolute
        // positions in the *new* numbering (snapshot state + replayed
        // ops), which is what future committed-slice exports are relative
        // to.
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        inner.last_marks = marks;
        inner.chains = chains.clone();
        inner.next_seq = last_seq + 1;
        inner.started = true;
        inner.bounds.clear();
        inner.ops_since_snapshot = 0;
        inner.delta_base = None;
        inner.snapshots_since_full = 0;
        inner.open_segment(last_seq + 1)?;

        Ok(Some(Recovered {
            data,
            snapshot_seq: base.seq,
            last_seq,
            replayed_ops,
            torn_bytes,
            chains,
        }))
    }

    fn recover_parallel_inner<D: Persist + 'static>(
        &self,
    ) -> Result<Option<Recovered<D>>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(base) = load_base::<D>(&inner.dir)? else {
            return Ok(None);
        };
        let wals = list_files(&inner.dir, "wal-")?;
        let segments = wals.len();

        // ---- Fan-out: one scan job per segment ------------------------
        let decode_span = sm_obs::timer::start(sm_obs::Phase::RecoveryDecode);
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let scans: Vec<SegmentScan<D>> = if segments <= 1 || hw <= 1 {
            // Nothing to overlap (single segment, or a single hardware
            // thread where fan-out only adds spawn latency): scan inline,
            // skipping the pool round-trip. The per-segment verification
            // split is identical either way.
            wals.iter()
                .map(|(_, path)| scan_segment::<D>(path, base.seq))
                .collect()
        } else {
            type Slots<D> = (Vec<Option<SegmentScan<D>>>, usize);
            let barrier: Arc<(Mutex<Slots<D>>, Condvar)> = Arc::new((
                Mutex::new(((0..segments).map(|_| None).collect(), 0)),
                Condvar::new(),
            ));
            let pool = Pool::new();
            for (i, (_, path)) in wals.iter().enumerate() {
                let path = path.clone();
                let min_seq = base.seq;
                let barrier = Arc::clone(&barrier);
                pool.execute(move || {
                    let scan = scan_segment::<D>(&path, min_seq);
                    let (slots, cvar) = &*barrier;
                    let mut guard = slots.lock();
                    guard.0[i] = Some(scan);
                    guard.1 += 1;
                    cvar.notify_one();
                });
            }
            let (slots, cvar) = &*barrier;
            let mut guard = slots.lock();
            while guard.1 < segments {
                cvar.wait(&mut guard);
            }
            std::mem::take(&mut guard.0)
                .into_iter()
                .map(|scan| scan.expect("barrier counted every segment"))
                .collect()
        };
        if let Some(span) = decode_span {
            span.finish_root();
        }
        if segments > 0 {
            emit(&TaskPath::root(), || EventKind::RecoverySegmentsScanned {
                segments,
            });
        }

        // ---- Coordinator: link chains in seq order --------------------
        let mut chains = base.chains;
        let mut last_seq = base.seq;
        let mut items: Vec<Box<dyn PreparedLog<D>>> = Vec::new();
        let mut meta: Vec<u64> = Vec::new(); // journal seq per item
        let mut torn: Option<(PathBuf, usize, u64)> = None;

        let last_segment = segments.saturating_sub(1);
        for (i, scan) in scans.into_iter().enumerate() {
            for commit in scan.commits {
                if commit.seq != last_seq + 1 {
                    return Err(StoreError::Corrupt(format!(
                        "commit sequence gap: expected {}, found {}",
                        last_seq + 1,
                        commit.seq
                    )));
                }
                // Boundary link: the child's first commit in this
                // segment, verified against the global chain. All later
                // in-segment commits were verified by the worker against
                // this one (transitively), so this check anchors them.
                if let Some(ops) = &commit.boundary_ops {
                    let prev = chains.get(&commit.child).copied().unwrap_or(FNV_OFFSET);
                    let computed = chain_update(prev, commit.seq, ops.as_ref());
                    if computed != commit.stored_chain {
                        return Err(StoreError::DigestMismatch {
                            seq: commit.seq,
                            stored: commit.stored_chain,
                            computed,
                        });
                    }
                }
                chains.insert(commit.child, commit.stored_chain);
                last_seq = commit.seq;
                items.push(commit.prepared);
                meta.push(commit.seq);
            }
            if let Some(error) = scan.error {
                return Err(error);
            }
            if let Some((message, clean_offset, total_len)) = scan.trailer {
                let path = wals[i].1.clone();
                if i != last_segment {
                    return Err(StoreError::Corrupt(format!(
                        "frame error inside non-final segment {}: {message}",
                        path.display()
                    )));
                }
                torn = Some((path, clean_offset, (total_len - clean_offset) as u64));
            }
        }
        if let Some((path, clean_offset, _)) = &torn {
            // Torn tail: truncate the file back to the clean prefix.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(*clean_offset as u64)?;
            file.sync_data()?;
        }

        // ---- Replay the verified prefix -------------------------------
        let apply_span = sm_obs::timer::start(sm_obs::Phase::RecoveryApply);
        let mut data = base.data;
        let replayed_ops = data.replay_prepared(items).map_err(|e| {
            let seq = meta[e.index];
            match e.error {
                // The count cross-check is journal corruption, like the
                // serial path's Corrupt; other failures are genuine
                // replay errors attributed to their commit.
                err @ ReplayError::Count { .. } => {
                    StoreError::Corrupt(format!("commit {seq} {err}"))
                }
                error => StoreError::Replay { seq, error },
            }
        })? as u64;
        if let Some(span) = apply_span {
            span.finish_root();
        }

        // Prime the store to continue journaling after the recovered
        // prefix (see recover_serial_inner for the marks rationale).
        data.seal_history();
        let mut marks = Vec::new();
        data.history_marks(&mut marks);
        inner.last_marks = marks;
        inner.chains = chains.clone();
        inner.next_seq = last_seq + 1;
        inner.started = true;
        inner.bounds.clear();
        inner.ops_since_snapshot = 0;
        inner.delta_base = None;
        inner.snapshots_since_full = 0;
        inner.open_segment(last_seq + 1)?;

        Ok(Some(Recovered {
            data,
            snapshot_seq: base.seq,
            last_seq,
            replayed_ops,
            torn_bytes: torn.map(|(_, _, t)| t).unwrap_or(0),
            chains,
        }))
    }
}
