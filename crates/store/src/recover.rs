//! Crash recovery: snapshot load, torn-tail repair, journal replay, and
//! digest-chain verification.
//!
//! The invariant recovery enforces is *verified prefix or nothing*:
//!
//! 1. The highest decodable snapshot is the base state.
//! 2. The WAL suffix (commits with `seq` above the base) replays in
//!    strict sequence order through the ordinary OT apply path
//!    ([`Persist::replay_commits`]: each commit decoded by the codec and
//!    applied as [`Persist::apply_log`] applies it) — the operations a
//!    live merge applied, which is why the reconstructed state is
//!    bit-identical to the original run's.
//! 3. Every replayed record's FNV digest chain is recomputed and checked
//!    against the journaled value; any mismatch refuses recovery
//!    ([`StoreError::DigestMismatch`]) rather than starting from silently
//!    divergent state.
//! 4. A frame error in the **final** segment is a torn write: the tail is
//!    truncated and the clean prefix wins. The same error anywhere else
//!    means interior corruption and fails closed
//!    ([`StoreError::Corrupt`]).
//!
//! # One pass, one thread
//!
//! [`Store::recover`] reads the journal once, on the calling thread, in
//! `seq` order: one loop over the WAL frames (`scan`) checks every CRC,
//! sequence number and chain link against one chain map, truncates a
//! torn tail and keeps each verified commit's op bytes undecoded;
//! [`Persist::replay_commits`] then decodes and applies each commit in
//! turn. For `MList` and `MQueue` that is one replay session over a
//! chunk tree it owns: every commit decodes once through sm-codec, an
//! insert-only commit whose window fits goes through the `InsertPlanner`,
//! and every other commit applies op by op to the tree; no replayed
//! commit is recorded into the list's log. [`Store::recover_serial`] is
//! the reference the differential
//! tests compare it with: the same scan, then [`replay_each`]'s plain
//! [`Persist::apply_log`] per commit. Both verify the whole journal
//! before applying any operation and word a replay failure alike, so
//! they accept the same prefix and refuse a damaged journal with the
//! same error.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use sm_mergeable::persist::{replay_each, PreparedReplayError};
use sm_mergeable::{Persist, ReplayError};
use sm_net::frame::Frames;
use sm_obs::{emit, EventKind, TaskPath};

use crate::store::{list_files, Inner, Store};
use crate::wal::{chain_update, Record, FNV_OFFSET};
use crate::StoreError;

/// The outcome of a successful [`Store::recover`].
#[derive(Debug)]
pub struct Recovered<D> {
    /// The reconstructed state: snapshot plus replayed journal suffix.
    pub data: D,
    /// Sequence of the snapshot recovery started from (0 = genesis).
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

/// The replay starting point: the newest snapshot's decoded state, its
/// digest chains, and the sequence it covers.
struct ReplayBase<D> {
    data: D,
    chains: BTreeMap<Vec<u64>, u64>,
    seq: u64,
}

/// Locate and decode the replay base, or `None` for a fresh store.
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
        let bytes = Bytes::from(fs::read(path)?);
        let mut frames = Frames::new(&bytes);
        let Some((_, payload)) = frames.next() else {
            continue;
        };
        if let Ok(Record::Snapshot(snap)) = Record::from_shared(bytes.slice_ref(payload)) {
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

    let mut state = snap.state;
    let data = D::decode_state(&mut state)
        .map_err(|e| StoreError::Corrupt(format!("snapshot state: {e}")))?;
    Ok(Some(ReplayBase {
        data,
        chains: snap.chains.into_iter().collect(),
        seq: snap.seq,
    }))
}

/// The verified journal suffix, as [`scan`] leaves it.
struct Journal {
    /// One `(ops, ops_count)` per commit, contiguous in `seq` from the
    /// base's + 1.
    commits: Vec<(Bytes, u64)>,
    /// Digest chain per child path, as of the last commit.
    chains: BTreeMap<Vec<u64>, u64>,
    torn_bytes: u64,
}

/// The one loop over WAL frames, from the replay base (`base_seq`,
/// `chains`): frame CRC, record decode, sequence continuity, and each
/// commit's chain link against its child path's running chain. A frame
/// error ends the final segment as a torn tail (truncated here) and
/// fails closed anywhere else. Nothing is decoded past the record or
/// applied.
fn scan(
    wals: &[(u64, PathBuf)],
    base_seq: u64,
    mut chains: BTreeMap<Vec<u64>, u64>,
) -> Result<Journal, StoreError> {
    let mut commits = Vec::new();
    let mut torn_bytes = 0;
    for (i, (_, path)) in wals.iter().enumerate() {
        // One buffer per segment: every commit's op bytes are a slice of it.
        let bytes = Bytes::from(fs::read(path)?);
        let mut frames = Frames::new(&bytes);
        for (_, payload) in frames.by_ref() {
            let record = Record::from_shared(bytes.slice_ref(payload))
                .map_err(|e| StoreError::Corrupt(format!("WAL record: {e}")))?;
            let Record::Commit(commit) = record else {
                return Err(StoreError::Corrupt(
                    "snapshot record inside a WAL segment".into(),
                ));
            };
            if commit.seq <= base_seq {
                // A pre-snapshot segment that escaped GC (crash between
                // snapshot and prune): already folded into the base, skip.
                continue;
            }
            let expected = base_seq + commits.len() as u64 + 1;
            if commit.seq != expected {
                return Err(StoreError::Corrupt(format!(
                    "commit sequence gap: expected {expected}, found {}",
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
            chains.insert(commit.child, computed);
            commits.push((commit.ops, commit.ops_count));
        }
        if let Some(trailer) = frames.trailer() {
            if i + 1 != wals.len() {
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
    Ok(Journal {
        commits,
        chains,
        torn_bytes,
    })
}

impl Inner {
    /// Prime the store to continue journaling after the recovered
    /// prefix. The data's own history marks are its positions in the
    /// *new* numbering (snapshot state + replayed ops), which is what
    /// future committed-slice exports are relative to.
    fn resume_after<D: Persist>(
        &mut self,
        data: &D,
        chains: BTreeMap<Vec<u64>, u64>,
        last_seq: u64,
    ) -> Result<(), StoreError> {
        data.seal_history();
        self.last_marks.clear();
        data.history_marks(&mut self.last_marks);
        self.chains = chains;
        self.next_seq = last_seq + 1;
        self.started = true;
        self.ops_since_snapshot = 0;
        self.open_segment(last_seq + 1)
    }
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
    pub fn recover<D: Persist>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_with(D::replay_commits)
    }

    /// [`Store::recover`] with the plain replay: the reference —
    /// differential tests recover the same journal both ways and compare
    /// states, digest chains and refusals.
    pub fn recover_serial<D: Persist>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_with(replay_each::<D>)
    }

    /// Both recoveries: load the base, [`scan`] the journal, let `replay`
    /// apply the verified commits (returns the operation count), prime
    /// the store.
    fn recover_with<D: Persist>(
        &self,
        replay: impl FnOnce(&mut D, Vec<(Bytes, u64)>) -> Result<usize, PreparedReplayError>,
    ) -> Result<Option<Recovered<D>>, StoreError> {
        recover_telemetry(|| {
            let mut inner = self.inner.lock();
            let Some(base) = load_base::<D>(&inner.dir)? else {
                return Ok(None);
            };
            let wals = list_files(&inner.dir, "wal-")?;

            let decode_span = sm_obs::timer::start(sm_obs::Phase::RecoveryDecode);
            let journal = scan(&wals, base.seq, base.chains);
            if let Some(span) = decode_span {
                span.finish_root();
            }
            if !wals.is_empty() {
                emit(&TaskPath::root(), || EventKind::RecoverySegmentsScanned {
                    segments: wals.len(),
                });
            }
            let journal = journal?;

            let apply_span = sm_obs::timer::start(sm_obs::Phase::RecoveryApply);
            let mut data = base.data;
            let last_seq = base.seq + journal.commits.len() as u64;
            let replayed_ops = replay(&mut data, journal.commits).map_err(|e| {
                let seq = base.seq + 1 + e.index as u64;
                match e.error {
                    // A count that disagrees with the frame is journal
                    // corruption, not a failed operation.
                    err @ ReplayError::Count { .. } => {
                        StoreError::Corrupt(format!("commit {seq} {err}"))
                    }
                    error => StoreError::Replay { seq, error },
                }
            })? as u64;
            if let Some(span) = apply_span {
                span.finish_root();
            }

            inner.resume_after(&data, journal.chains.clone(), last_seq)?;
            Ok(Some(Recovered {
                data,
                snapshot_seq: base.seq,
                last_seq,
                replayed_ops,
                torn_bytes: journal.torn_bytes,
                chains: journal.chains,
            }))
        })
    }
}

/// Shared recovery telemetry: times the whole pass, emits
/// [`EventKind::RecoveryReplayed`] on success and
/// [`EventKind::RecoveryFailed`] on a failed-closed refusal.
fn recover_telemetry<D>(
    run: impl FnOnce() -> Result<Option<Recovered<D>>, StoreError>,
) -> Result<Option<Recovered<D>>, StoreError> {
    let t0 = sm_obs::is_enabled().then(Instant::now);
    let result = run();
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

#[cfg(test)]
mod tests;
