//! The typed lifecycle event model.
//!
//! Every significant runtime transition — task spawn/completion, merges
//! with their OT statistics, sync blocking, pool worker churn, store
//! I/O — is described by one [`ObsEvent`]. Events are values: the
//! runtime constructs them (lazily, only when a recorder is installed)
//! and hands them to whatever [`Recorder`](crate::Recorder) is active.
//!
//! ## Task identity
//!
//! The runtime's per-family `TaskId`s are only locally unique (each
//! family numbers its children 1, 2, 3…), so events carry a [`TaskPath`]
//! — the chain of ids from the root task. Paths are globally unique,
//! *deterministic* (spawn order fixes them), and cheap to clone
//! (`Arc`-backed), which is what makes them usable both as trace-track
//! keys and as the identity the determinism auditor hashes.
//!
//! ## The event table
//!
//! [`EventKind`] is declared by one table: each variant lists its
//! fields, its name, whether the determinism auditor hashes it, whether
//! it is an anomaly, and which fields are wall-clock (never hashed).
//! The table generates [`EventKind::name`], [`EventKind::is_anomaly`]
//! and one field walk that the auditor's projection, the flight
//! recorder's entry detail and the Chrome tracer's track ids and merge
//! args all read. Adding an event is one entry here, plus an arm in
//! `Metrics::update` if it moves a metric and a label in the Chrome
//! tracer if it should show on the timeline.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::audit::{fnv_path, fnv_step, fnv_u64};
use crate::json::Json;
use crate::timer::Phase;

/// Deterministic global task identity: ids from the root down.
///
/// The root task is `[0]`; its third spawned child is `[0, 3]`; that
/// child's first child is `[0, 3, 1]`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskPath(Arc<[u64]>);

impl TaskPath {
    /// The root task's path, `[0]`.
    pub fn root() -> Self {
        TaskPath(Arc::from([0u64].as_slice()))
    }

    /// The path of this task's child with local id `id`.
    pub fn child(&self, id: u64) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(id);
        TaskPath(Arc::from(v))
    }

    /// The id chain, root first.
    pub fn ids(&self) -> &[u64] {
        &self.0
    }

    /// The parent's path, or `None` for the root.
    pub fn parent(&self) -> Option<TaskPath> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(TaskPath(Arc::from(&self.0[..self.0.len() - 1])))
        }
    }

    /// Nesting depth: the root is 1.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The task's local id within its family.
    pub fn local_id(&self) -> u64 {
        *self.0.last().expect("task path is never empty")
    }
}

impl fmt::Display for TaskPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, id) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{id}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TaskPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TaskPath({self})")
    }
}

/// Why a task ended without completing normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// The task's closure returned an error.
    Failed,
    /// The task's closure panicked.
    Panicked,
    /// The parent (or an ancestor) aborted it externally.
    External,
}

/// Operation-transformation statistics of one merge, as reported by the
/// mergeable data's `merge` implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOpStats {
    /// Operations the child brought to the merge.
    pub child_ops: usize,
    /// Operations actually applied to the parent after transformation.
    pub applied_ops: usize,
    /// Committed-log operations the child ops were transformed against.
    pub committed_ops: usize,
    /// Child operations after pre-rebase span compaction.
    pub child_ops_compacted: usize,
    /// Committed operations after pre-rebase span compaction.
    pub committed_ops_compacted: usize,
    /// Transformation-grid cells actually paid (product of the compacted
    /// lengths); compare with `child_ops * committed_ops`. Zero when the
    /// delta path ran.
    pub grid_cells: usize,
    /// Per-field rebases that took the O(m+n) sorted span-set (delta)
    /// path. `delta_rebases + grid_rebases` is the total rebase count, so
    /// the ratio is the delta-path hit rate.
    pub delta_rebases: usize,
    /// Per-field rebases that used the pairwise transformation grid
    /// (non-sequence algebras, span-inexpressible ops, empty-side merges).
    pub grid_rebases: usize,
    /// Normalized spans swept by the delta-path rebases (incoming +
    /// committed): the linear work actually paid instead of `grid_cells`.
    pub delta_spans: usize,
    /// Delta-path rebases that continued from the parent log's merge memo
    /// instead of refolding the committed slice.
    pub memo_hits: usize,
}

/// One runtime lifecycle transition.
#[derive(Debug, Clone)]
pub struct ObsEvent {
    /// When the transition happened.
    pub at: Instant,
    /// The task whose program order this event belongs to (for merges,
    /// the *merging* task; for syncs, the *syncing child*).
    pub task: TaskPath,
    /// What happened.
    pub kind: EventKind,
}

/// How one event field is digested and exported: its FNV-1a encoding
/// (what the determinism auditor chains) and its JSON (flight detail,
/// trace args).
pub(crate) trait Field {
    /// Fold this value into the FNV-1a state `h`.
    fn fnv(&self, h: u64) -> u64;
    /// This value as JSON. A struct exports an object, whose keys the
    /// flight detail spreads into the event's own.
    fn json(&self) -> Json;
    /// The task this field names, if it is a [`TaskPath`].
    fn path(&self) -> Option<&TaskPath> {
        None
    }
}

impl Field for u64 {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, *self)
    }
    fn json(&self) -> Json {
        Json::from(*self)
    }
}

impl Field for usize {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, *self as u64)
    }
    fn json(&self) -> Json {
        Json::from(*self)
    }
}

impl Field for bool {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, u64::from(*self))
    }
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for TaskPath {
    fn fnv(&self, h: u64) -> u64 {
        fnv_path(h, self)
    }
    fn json(&self) -> Json {
        Json::Str(self.to_string())
    }
    fn path(&self) -> Option<&TaskPath> {
        Some(self)
    }
}

impl Field for String {
    fn fnv(&self, h: u64) -> u64 {
        fnv_step(h, self.as_bytes())
    }
    fn json(&self) -> Json {
        Json::str(self)
    }
}

impl Field for AbortCause {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, *self as u64)
    }
    fn json(&self) -> Json {
        Json::str(format!("{self:?}"))
    }
}

impl Field for Phase {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, self.index() as u64)
    }
    fn json(&self) -> Json {
        Json::str(self.name())
    }
}

impl Field for MergeOpStats {
    /// Only the three op counts: the other fields describe how the merge
    /// ran (compaction, rebase path, memo), not what it
    /// committed.
    fn fnv(&self, h: u64) -> u64 {
        let h = fnv_u64(h, self.child_ops as u64);
        let h = fnv_u64(h, self.applied_ops as u64);
        fnv_u64(h, self.committed_ops as u64)
    }
    fn json(&self) -> Json {
        Json::obj([
            ("child_ops", Json::from(self.child_ops)),
            ("applied_ops", Json::from(self.applied_ops)),
            ("committed_ops", Json::from(self.committed_ops)),
            ("child_ops_compacted", Json::from(self.child_ops_compacted)),
            (
                "committed_ops_compacted",
                Json::from(self.committed_ops_compacted),
            ),
            ("grid_cells", Json::from(self.grid_cells)),
            ("delta_rebases", Json::from(self.delta_rebases)),
            ("grid_rebases", Json::from(self.grid_rebases)),
            ("delta_spans", Json::from(self.delta_spans)),
            ("memo_hits", Json::from(self.memo_hits)),
        ])
    }
}

/// A `u64` field marked `[hex]`: digested as a number, exported as 16
/// hex digits.
struct Hex(u64);

impl Field for Hex {
    fn fnv(&self, h: u64) -> u64 {
        fnv_u64(h, self.0)
    }
    fn json(&self) -> Json {
        Json::Str(format!("{:016x}", self.0))
    }
}

/// Declares [`EventKind`] from the one table below. Each variant is
/// written as an enum variant followed by `=> "name", class;`, where
/// the class is `audited` (the determinism auditor hashes the name and
/// every field not marked `[clock]`, in declaration order) or
/// `excluded`, optionally followed by `anomaly`. A field marked
/// `[clock]` is wall-clock; one marked `[hex]` exports as hex digits.
macro_rules! event_table {
    (@flag audited) => { true };
    (@flag excluded) => { false };
    (@flag anomaly) => { true };
    (@value $f:ident hex) => { &Hex(*$f) };
    (@value $f:ident $(clock)?) => { $f };
    (@clock clock) => { true };
    (@clock $(hex)?) => { false };
    (
        $(#[$meta:meta])*
        pub enum EventKind {$(
            $(#[$vmeta:meta])*
            $Variant:ident $({$(
                $(#[$fmeta:meta])*
                $field:ident: $T:ty $([$class:ident])?
            ),* $(,)?})? => $name:literal, $audit:ident $(, $anomaly:ident)?;
        )*}
    ) => {
        $(#[$meta])*
        pub enum EventKind {$(
            $(#[$vmeta])*
            $Variant $({$( $(#[$fmeta])* $field: $T, )*})?,
        )*}

        impl EventKind {
            /// Short machine-readable name (metric labels, trace names).
            pub fn name(&self) -> &'static str {
                match self {$( Self::$Variant { .. } => $name, )*}
            }

            /// Whether this event signals an anomaly a production sentinel
            /// should capture context for: a rejected merge (OT condition
            /// refused a child's changes), a task abort, or a failed-closed
            /// recovery (corruption / digest mismatch). The flight recorder
            /// dumps its rings when one of these flows past.
            pub fn is_anomaly(&self) -> bool {
                match self {$(
                    Self::$Variant { .. } => false $(|| event_table!(@flag $anomaly))?,
                )*}
            }

            /// Whether the determinism auditor hashes this event.
            pub(crate) fn audited(&self) -> bool {
                match self {$( Self::$Variant { .. } => event_table!(@flag $audit), )*}
            }

            /// Visit every field in declaration order as `(name, value,
            /// wall-clock?)`.
            pub(crate) fn walk(&self, mut visit: impl FnMut(&'static str, &dyn Field, bool)) {
                match self {$(
                    Self::$Variant { $($($field,)*)? .. } => {$($(
                        visit(
                            stringify!($field),
                            event_table!(@value $field $($class)?),
                            event_table!(@clock $($class)?),
                        );
                    )*)?}
                )*}
            }
        }
    };
}

event_table! {
    /// The transition taxonomy.
    ///
    /// Excluded from the digest: pool churn, history GC, durable-store
    /// I/O and session lifecycle vary run to run
    /// (keep-alive timing, socket batching, when children happen to be
    /// live, fsync policy, connection timing) without affecting merged
    /// results. Excluding the store also makes a program's digest the
    /// same with and without a store — the property crash recovery
    /// verifies against.
    #[derive(Debug, Clone)]
    pub enum EventKind {
        /// `task` was spawned (by `task.parent()`, or is the root).
        TaskSpawned {
            /// Cost of the spawn call itself: forking the data copy and
            /// dispatching to the pool (0 for the root task).
            spawn_nanos: u64 [clock],
        } => "task_spawned", audited;
        /// `task`'s closure returned successfully.
        TaskCompleted => "task_completed", audited;
        /// `task` ended without completing.
        TaskAborted { cause: AbortCause } => "task_aborted", audited, anomaly;
        /// `task` (as parent) began merging `child`'s data — covers both
        /// final merges and intermediate sync merges.
        MergeStarted { child: TaskPath } => "merge_started", audited;
        /// The merge of `child` into `task` finished.
        MergeFinished {
            child: TaskPath,
            /// Whether the merge was a sync accepted back into the child
            /// (`false` for a completion merge that retired the child).
            child_continues: bool,
            /// OT statistics (zeroed when the merge was rejected).
            ops: MergeOpStats,
            /// Parent op-log length right after this merge.
            oplog_len: usize,
            /// Transform+apply latency of the `merge` call itself.
            merge_nanos: u64 [clock],
        } => "merge_finished", audited;
        /// The merge of `child` was rejected or the child was aborted at the
        /// merge point; no operations were applied.
        MergeRejected { child: TaskPath } => "merge_rejected", audited, anomaly;
        /// `task` called sync and is now blocked waiting for its parent.
        SyncBlocked => "sync_blocked", audited;
        /// `task`'s sync was answered and it resumed.
        SyncResumed {
            /// How long the task was blocked.
            blocked_nanos: u64 [clock],
            /// Whether the sync was accepted (false: task is being aborted).
            accepted: bool,
        } => "sync_resumed", audited;
        /// `clone` was created as a sibling of `task` and adopted by the
        /// common parent.
        CloneCreated { clone: TaskPath } => "clone_created", audited;
        /// A pool worker thread started (`task` is the root path; workers
        /// are identified by `worker`).
        WorkerStarted { worker: u64 } => "worker_started", excluded;
        /// A pool worker retired after its keep-alive expired.
        WorkerRetired { worker: u64 } => "worker_retired", excluded;
        /// The fork-watermark GC truncated `dropped` operations from the
        /// committed-log prefix no live fork can rebase against anymore.
        /// Timing-dependent (children finish at different moments across
        /// runs), so the determinism auditor ignores it.
        LogTruncated { dropped: usize } => "log_truncated", excluded;
        /// The durable store appended a commit record to its write-ahead log.
        /// Store activity is I/O-timing dependent and must not perturb the
        /// program digest, so the determinism auditor ignores it.
        WalAppended {
            /// Framed bytes appended (header + payload).
            bytes: usize,
            /// Whether this append was followed by an fsync (per policy).
            fsynced: bool,
            /// Latency of the fsync, 0 when `fsynced` is false.
            fsync_nanos: u64 [clock],
        } => "wal_appended", excluded;
        /// The durable store wrote a full-state snapshot and rotated its log.
        SnapshotTaken {
            /// Serialized snapshot size in bytes.
            bytes: usize,
            /// Wall time spent serializing and persisting the snapshot.
            snapshot_nanos: u64 [clock],
        } => "snapshot_taken", excluded;
        /// The durable store's retention policy pruned journal files wholly
        /// covered by a durable full snapshot.
        WalSegmentsPruned {
            /// WAL segments deleted.
            segments: usize,
            /// Superseded snapshot files deleted.
            snapshots: usize,
        } => "wal_segments_pruned", excluded;
        /// Crash recovery scanned the journal: this many WAL segments were
        /// decoded and chain-verified.
        RecoverySegmentsScanned {
            /// Segments scanned.
            segments: usize,
        } => "recovery_segments_scanned", excluded;
        /// The durable store finished crash recovery: snapshot load plus
        /// journal-suffix replay through the normal OT apply path.
        RecoveryReplayed {
            /// Operations replayed from the journal suffix.
            replayed_ops: usize,
            /// Bytes of torn tail frame truncated during repair (0 = clean).
            torn_bytes: usize,
            /// Wall time of the whole recovery.
            replay_nanos: u64 [clock],
        } => "recovery_replayed", excluded;
        /// Crash recovery failed closed: the journal was corrupt or a
        /// digest-chain verification mismatched. An anomaly — the flight
        /// recorder dumps its rings when it sees one.
        RecoveryFailed {
            /// Human-readable failure description (`Corrupt`,
            /// `DigestMismatch`, …).
            reason: String,
        } => "recovery_failed", excluded, anomaly;
        /// One instrumented hot-path phase ran for `nanos` (monotonic
        /// clock). Wall-clock timing: excluded from the determinism digest;
        /// aggregated by [`Metrics`](crate::Metrics) into per-phase
        /// histograms.
        PhaseTimed {
            /// Which hot path.
            phase: Phase,
            /// Measured duration in nanoseconds.
            nanos: u64 [clock],
        } => "phase_timed", excluded;
        /// Freeform, program-defined annotation (simulation rounds,
        /// semaphore grants, …).
        Mark { label: String } => "mark", audited;
        /// A session server opened a brand-new session on a shard (first
        /// attach created it). Timing-dependent placement (which shard tick
        /// saw the attach first), so excluded from determinism digests.
        SessionOpened {
            /// Session id.
            session: u64,
            /// Shard the session hash-routed to.
            shard: u64,
        } => "session_opened", excluded;
        /// A client attached to (subscribed to) a live session.
        SessionAttached {
            /// Session id.
            session: u64,
            /// Shard the session lives on.
            shard: u64,
            /// Subscriber count after this attach.
            subscribers: usize,
        } => "session_attached", excluded;
        /// An idle session was evicted: snapshotted to the store and dropped
        /// from memory. I/O- and timing-dependent, excluded from digests.
        SessionEvicted {
            /// Session id.
            session: u64,
            /// Shard the session lived on.
            shard: u64,
        } => "session_evicted", excluded;
        /// An evicted session was rehydrated from its store on re-attach.
        SessionRehydrated {
            /// Session id.
            session: u64,
            /// Shard the session lives on.
            shard: u64,
            /// Journal-suffix operations replayed on top of the snapshot.
            replayed_ops: usize,
        } => "session_rehydrated", excluded;
        /// A session commit was accepted and its rebased operations
        /// broadcast to every subscriber. `digest` hashes the broadcast
        /// bytes, so this event is *included* in determinism digests: the
        /// server and each converged subscriber emit it at the session's
        /// path, so their chains agree iff the replicated streams were
        /// identical.
        SessionCommitted {
            /// Session id.
            session: u64,
            /// Server sequence number of this commit.
            seq: u64,
            /// Operations applied to the authoritative state.
            ops: usize,
            /// FNV-1a hash of the broadcast op-log bytes.
            digest: u64 [hex],
        } => "session_committed", audited;
        /// A subscriber fell too far behind its bounded outbound queue and
        /// was disconnected. Timing-dependent, excluded from digests.
        SlowConsumerDropped {
            /// Messages still queued when the connection was dropped.
            queued: usize,
        } => "slow_consumer_dropped", excluded;
    }
}

impl EventKind {
    /// The event's fields as one JSON object, `None` when it has none:
    /// the flight recorder's entry detail and the trace's merge args.
    pub(crate) fn detail(&self) -> Option<Json> {
        let mut fields = Vec::new();
        self.walk(|name, value, _| match value.json() {
            Json::Obj(inner) => fields.extend(inner),
            json => fields.push((name.to_string(), json)),
        });
        (!fields.is_empty()).then_some(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_hierarchical() {
        let root = TaskPath::root();
        assert_eq!(root.ids(), &[0]);
        assert_eq!(root.parent(), None);
        assert_eq!(root.depth(), 1);

        let c3 = root.child(3);
        let gc1 = c3.child(1);
        assert_eq!(gc1.ids(), &[0, 3, 1]);
        assert_eq!(gc1.parent(), Some(c3.clone()));
        assert_eq!(gc1.depth(), 3);
        assert_eq!(gc1.local_id(), 1);
        assert_eq!(gc1.to_string(), "0/3/1");
        assert_eq!(c3.to_string(), "0/3");
    }

    #[test]
    fn paths_order_deterministically() {
        let root = TaskPath::root();
        let mut v = [
            root.child(2),
            root.child(1).child(5),
            root.clone(),
            root.child(1),
        ];
        v.sort();
        let rendered: Vec<String> = v.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, ["0", "0/1", "0/1/5", "0/2"]);
    }
}
