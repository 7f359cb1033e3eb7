//! Crash recovery: snapshot load, torn-tail repair, journal replay, and
//! digest-chain verification.
//!
//! The invariant recovery enforces is *verified prefix or nothing*:
//!
//! 1. The highest decodable snapshot is the base state.
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
//! # One pass, one thread
//!
//! [`Store::recover`] reads the journal once, on the calling thread, in
//! `seq` order: one loop over the WAL frames (`scan`) checks every CRC,
//! sequence number and chain link against one chain map, truncates a
//! torn tail and pre-decodes each verified commit
//! ([`Persist::decode_log_prepared`]); [`Persist::replay_prepared`] then
//! applies the lot, amortizing work across consecutive commits (e.g. the
//! list replay session). [`Store::recover_serial`] is the reference the
//! differential tests compare it with: the same loop, then one plain
//! [`Persist::apply_log`] per commit. Both verify the whole journal
//! before applying any operation, so they accept the same prefix and
//! refuse a damaged journal with the same error.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::{Buf, Bytes};
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
struct Journal<T> {
    /// One entry per commit, contiguous in `seq` from the base's + 1.
    commits: Vec<T>,
    /// Digest chain per child path, as of the last commit.
    chains: BTreeMap<Vec<u64>, u64>,
    torn_bytes: u64,
}

/// The one loop over WAL frames, from the replay base (`base_seq`,
/// `chains`): frame CRC, record decode, sequence continuity, and each
/// commit's chain link against its child path's running chain. A frame
/// error ends the final segment as a torn tail (truncated here) and
/// fails closed anywhere else. A verified commit's `(ops, ops_count)`
/// goes through `prepare`; nothing is applied.
fn scan<T>(
    wals: &[(u64, PathBuf)],
    base_seq: u64,
    mut chains: BTreeMap<Vec<u64>, u64>,
    prepare: impl Fn(Bytes, u64) -> T,
) -> Result<Journal<T>, StoreError> {
    let mut commits = Vec::new();
    let mut torn_bytes = 0;
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
            commits.push(prepare(commit.ops, commit.ops_count));
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
        self.bounds.clear();
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
    pub fn recover<D: Persist + 'static>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_with(D::decode_log_prepared, |data: &mut D, first_seq, items| {
            let replayed = data.replay_prepared(items).map(|n| n as u64);
            replayed.map_err(|e| {
                let seq = first_seq + e.index as u64;
                match e.error {
                    // A count that disagrees with the frame is journal
                    // corruption, worded as the reference words it.
                    err @ ReplayError::Count { .. } => {
                        StoreError::Corrupt(format!("commit {seq} {err}"))
                    }
                    error => StoreError::Replay { seq, error },
                }
            })
        })
    }

    /// [`Store::recover`] with the plain replay: the reference —
    /// differential tests recover the same journal both ways and compare
    /// states, digest chains and refusals.
    pub fn recover_serial<D: Persist>(&self) -> Result<Option<Recovered<D>>, StoreError> {
        self.recover_with(
            |ops, ops_count| (ops, ops_count),
            |data: &mut D, first_seq, commits| {
                let mut replayed = 0;
                for (seq, (mut ops, ops_count)) in (first_seq..).zip(commits) {
                    let applied = data
                        .apply_log(&mut ops)
                        .map_err(|error| StoreError::Replay { seq, error })?;
                    if applied as u64 != ops_count || ops.has_remaining() {
                        return Err(StoreError::Corrupt(format!(
                            "commit {seq} replayed {applied} of {ops_count} ops with {} trailing bytes",
                            ops.remaining()
                        )));
                    }
                    replayed += applied as u64;
                    // The original run sealed its history at every commit;
                    // the replayed structure carries the same fuse barriers.
                    // They also keep replay linear: without them tail fusion
                    // rebuilds one ever-growing span op on every operation.
                    data.seal_history();
                }
                Ok(replayed)
            },
        )
    }

    /// Both recoveries: load the base, [`scan`] the journal through
    /// `prepare`, let `apply` replay the verified commits (given the
    /// first one's `seq`; returns the operation count), prime the store.
    fn recover_with<D: Persist, T>(
        &self,
        prepare: impl Fn(Bytes, u64) -> T,
        apply: impl FnOnce(&mut D, u64, Vec<T>) -> Result<u64, StoreError>,
    ) -> Result<Option<Recovered<D>>, StoreError> {
        recover_telemetry(|| {
            let mut inner = self.inner.lock();
            let Some(base) = load_base::<D>(&inner.dir)? else {
                return Ok(None);
            };
            let wals = list_files(&inner.dir, "wal-")?;

            let decode_span = sm_obs::timer::start(sm_obs::Phase::RecoveryDecode);
            let journal = scan(&wals, base.seq, base.chains, prepare);
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
            let replayed_ops = apply(&mut data, base.seq + 1, journal.commits)?;
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
