//! **sm-store** — durable op-log WAL, CoW snapshots, and deterministic
//! crash recovery for Spawn & Merge programs.
//!
//! A deterministic runtime makes durability unusually cheap to reason
//! about: the *only* state transitions of a program's data are the root
//! task's merge commits, and `merge_all` fixes their order independently
//! of scheduling. So a journal of those commits **is** the execution.
//! This crate hooks the runtime's [`CommitSink`](sm_core::CommitSink)
//! seam and writes, per commit, the span-compacted slice of committed
//! operations since the previous commit — the same wire shape the
//! distributed layer ships ([`sm_mergeable::Persist`]) — into a
//! segmented, CRC32-framed ([`sm_net::frame`]) write-ahead log.
//!
//! ```text
//! store directory
//! ├── snap-00000000000000000000   genesis snapshot (seq 0)
//! ├── snap-00000000000000000731   snapshot covering commits 1..=731
//! ├── wal-00000000000000000732    segment: commits 732…
//! └── wal-00000000000000000901    segment: commits 901… (current)
//! ```
//!
//! **Journaling protocol.** [`Store::begin`] persists a genesis snapshot
//! of the initial state. Each root merge then appends one commit record:
//! the store *seals* the data's history (so tail fusion can never rewrite
//! journaled bytes in place), exports the committed slice since its last
//! marks, extends a per-child FNV-1a digest chain over `(seq, ops bytes)`,
//! and frames the record into the current segment, fsyncing per
//! [`FsyncPolicy`]. There is one snapshot kind: explicit or every
//! `snapshot_every_ops`, it serializes the full state on the committing
//! thread, under the store lock, rotates the WAL and garbage-collects the
//! covered segments. Because `merge_all` fixes the commit order, genesis
//! plus the WAL already determine the state: a snapshot only bounds how
//! much of the WAL recovery must replay.
//!
//! **Recovery** ([`Store::recover`]) loads the newest decodable snapshot,
//! then reads the journal once, on the calling thread: it re-verifies
//! every digest chain link — refusing to start on any mismatch — repairs
//! a torn tail frame in the final segment, and replays the verified
//! commit suffix through the ordinary OT apply path. Determinism
//! closes the loop: replaying the same commit slices over the same base
//! state reproduces the original state bit for bit.
//!
//! ```no_run
//! use sm_mergeable::MList;
//! use sm_store::{run_with_store, Store, StoreOptions};
//!
//! let store = Store::open("/var/lib/app/journal", StoreOptions::default()).unwrap();
//! let data = match store.recover::<MList<u32>>().unwrap() {
//!     Some(recovered) => recovered.data,       // crashed last time: resume
//!     None => MList::new(),                    // first run: genesis
//! };
//! let (list, ()) = run_with_store(data, sm_core::Pool::new(), &store, |ctx| {
//!     ctx.spawn(|c| {
//!         c.data_mut().push(1);
//!         Ok(())
//!     });
//!     ctx.merge_all();
//! })
//! .unwrap();
//! # let _ = list;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod recover;
mod store;
pub mod wal;

use std::fmt;

pub use recover::Recovered;
pub use sm_mergeable::{Persist, ReplayError};
pub use store::{run_with_store, FsyncPolicy, Store, StoreOptions, StoreSink};

/// Why a store operation or recovery failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The on-disk journal violates a structural invariant (interior
    /// frame corruption, sequence gap, missing baseline, …). Recovery
    /// fails closed rather than guessing.
    Corrupt(String),
    /// Replay reproduced different bytes than were journaled: the
    /// recomputed digest chain diverges from the stored one at `seq`.
    DigestMismatch {
        /// The first commit whose chain link does not verify.
        seq: u64,
        /// Chain value stored in the record.
        stored: u64,
        /// Chain value recomputed during replay.
        computed: u64,
    },
    /// A journaled commit failed to decode or apply during replay.
    Replay {
        /// The offending commit.
        seq: u64,
        /// What went wrong.
        error: ReplayError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::DigestMismatch {
                seq,
                stored,
                computed,
            } => write!(
                f,
                "digest chain mismatch at commit {seq}: stored {stored:#018x}, \
                 recomputed {computed:#018x} — refusing to recover"
            ),
            StoreError::Replay { seq, error } => {
                write!(f, "replay of commit {seq} failed: {error}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Replay { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
