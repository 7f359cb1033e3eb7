//! Hot-path phase timers: monotonic-clock spans feeding the per-phase
//! latency histograms.
//!
//! Every performance-critical path of the stack — rebasing (compaction,
//! the linear delta sweep, the pairwise grid), state application, WAL
//! append and fsync, snapshot writes, recovery replay, and the session
//! server's dispatch — is bracketed by a [`Phase`] timer. A span is
//! only ever *constructed* while a recorder is installed
//! ([`start`] returns `None` otherwise), so the uninstalled cost of an
//! instrumentation site is one relaxed atomic load, exactly like every
//! other `sm_obs` emission site.
//!
//! Finished spans surface as [`EventKind::PhaseTimed`] events;
//! [`Metrics`](crate::Metrics) aggregates them into one log₂ histogram
//! per phase, exported as the labelled `sm_phase_nanos` histogram family
//! (`/metrics`), and the [`FlightRecorder`](crate::FlightRecorder) keeps
//! the most recent spans per thread for post-hoc inspection.

use std::time::Instant;

use crate::event::{EventKind, TaskPath};
use crate::recorder::{emit, is_enabled};

/// Declares [`Phase`] from one list of `Variant => "label"` entries:
/// the enum, [`Phase::ALL`], [`Phase::COUNT`] and [`Phase::name`].
macro_rules! phases {
    ($( $(#[$meta:meta])* $Phase:ident => $name:literal, )*) => {
        /// The phase-timer taxonomy: every instrumented hot path of the stack.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Phase {$( $(#[$meta])* $Phase, )*}

        impl Phase {
            /// Every phase, in declaration order (histogram slot order).
            pub const ALL: [Phase; [$($name),*].len()] = [$(Phase::$Phase),*];

            /// Number of phases (histogram array size).
            pub const COUNT: usize = Self::ALL.len();

            /// Stable machine-readable name (the `phase` metric label).
            pub fn name(self) -> &'static str {
                match self {$( Phase::$Phase => $name, )*}
            }
        }
    };
}

phases! {
    /// Pre-rebase span compaction of the committed/incoming logs
    /// (grid-path merges only; the delta path subsumes it).
    RebaseCompact => "rebase_compact",
    /// The O(m+n) sorted span-set transform (`sm_ot::delta`).
    RebaseDelta => "rebase_delta",
    /// The pairwise transformation grid (`sm_ot::seq::rebase`),
    /// including the declined delta-path attempt that preceded it.
    RebaseGrid => "rebase_grid",
    /// Applying rebased operations to the parent state during a merge.
    StateApply => "state_apply",
    /// Framing and writing one commit record to the write-ahead log.
    WalAppend => "wal_append",
    /// The fsync following a WAL append (per policy).
    WalFsync => "wal_fsync",
    /// Serializing and durably persisting a full-state snapshot.
    SnapshotWrite => "snapshot_write",
    /// Crash recovery: snapshot load plus journal-suffix replay.
    RecoveryReplay => "recovery_replay",
    /// Recovery's scan: segment read, frame CRC, record decode and chain
    /// verification. The commits' operations stay undecoded.
    RecoveryDecode => "recovery_decode",
    /// Recovery's replay: decoding each verified commit's operations and
    /// applying them to the recovered state.
    RecoveryApply => "recovery_apply",
    /// One staged `merge_all` batch: staging it and folding its children
    /// in creation order against the incrementally grown composite.
    MergeParallel => "merge_parallel",
    /// Session-server shard dispatch: decoding a client command, the
    /// commit rebase, and the broadcast fan-out for one message.
    ServerDispatch => "server_dispatch",
}

impl Phase {
    /// The phase's histogram slot (its index in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A running phase span. Created by [`start`]; call
/// [`finish`](PhaseSpan::finish) (or [`finish_root`](PhaseSpan::finish_root))
/// to emit the measured duration. Dropping a span without finishing it
/// discards the measurement.
#[derive(Debug)]
#[must_use = "a span measures nothing unless finished"]
pub struct PhaseSpan {
    phase: Phase,
    t0: Instant,
}

/// Begin timing `phase`. Returns `None` when no recorder is installed,
/// so the uninstalled cost is one relaxed load and no clock read.
#[inline]
pub fn start(phase: Phase) -> Option<PhaseSpan> {
    if !is_enabled() {
        return None;
    }
    Some(PhaseSpan {
        phase,
        t0: Instant::now(),
    })
}

impl PhaseSpan {
    /// Elapsed nanoseconds so far (saturating).
    pub fn elapsed_nanos(&self) -> u64 {
        self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Finish the span, emitting a [`EventKind::PhaseTimed`] event
    /// attributed to `task`.
    pub fn finish(self, task: &TaskPath) {
        let nanos = self.elapsed_nanos();
        let phase = self.phase;
        emit(task, || EventKind::PhaseTimed { phase, nanos });
    }

    /// [`finish`](Self::finish) attributed to the root task — for layers
    /// (store, server) that do not track task identity.
    pub fn finish_root(self) {
        self.finish(&TaskPath::root());
    }
}

/// Emit an already-measured phase duration (for sites that time a phase
/// themselves, e.g. per-field merge statistics aggregated by the
/// mergeable layer). Zero-duration reports are dropped: a phase that
/// never ran has nothing to observe.
#[inline]
pub fn observe(task: &TaskPath, phase: Phase, nanos: u64) {
    if nanos == 0 {
        return;
    }
    emit(task, || EventKind::PhaseTimed { phase, nanos });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use crate::recorder::{install, uninstall, Recorder};
    use std::sync::{Arc, Mutex, PoisonError};

    #[test]
    fn names_are_unique_and_legal_label_values() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
            assert!(p.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert_eq!(Phase::ALL[p.index()], p);
        }
        assert_eq!(seen.len(), Phase::COUNT);
    }

    struct Sink(Mutex<Vec<ObsEvent>>);
    impl Recorder for Sink {
        fn record(&self, event: &ObsEvent) {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(event.clone());
        }
    }

    /// Shares the process-global recorder slot with recorder.rs tests;
    /// the whole crate's global-state tests serialize on this lock.
    #[test]
    fn spans_only_exist_while_installed_and_emit_on_finish() {
        let _guard = crate::recorder::test_serial();
        uninstall();
        assert!(start(Phase::RebaseDelta).is_none(), "uninstalled: no span");

        let sink = Arc::new(Sink(Mutex::new(Vec::new())));
        install(sink.clone());
        let span = start(Phase::WalFsync).expect("installed: span exists");
        span.finish_root();
        observe(&TaskPath::root(), Phase::RebaseGrid, 42);
        observe(&TaskPath::root(), Phase::RebaseGrid, 0); // dropped
        uninstall();

        let events = sink.0.lock().unwrap();
        assert_eq!(events.len(), 2);
        match &events[0].kind {
            EventKind::PhaseTimed { phase, .. } => assert_eq!(*phase, Phase::WalFsync),
            other => panic!("unexpected event {other:?}"),
        }
        match &events[1].kind {
            EventKind::PhaseTimed { phase, nanos } => {
                assert_eq!(*phase, Phase::RebaseGrid);
                assert_eq!(*nanos, 42);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
