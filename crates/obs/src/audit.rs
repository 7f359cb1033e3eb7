//! The determinism auditor: a content hash over the deterministic part
//! of the event stream.
//!
//! A Spawn&Merge program that only uses deterministic constructs
//! (`merge_all`, creation-order merging) must produce the *same logical
//! event sequence on every run*: the same task tree, the same merge
//! order, the same per-merge operation counts. [`DeterminismAuditor`]
//! turns that claim into a checkable 64-bit digest.
//!
//! ## Why per-task hash chains
//!
//! Events from different worker threads arrive at the recorder in a
//! nondeterministic interleaving even when the program itself is
//! deterministic — thread scheduling reorders deliveries of causally
//! unrelated events. What *is* deterministic is each task's own program
//! order. So the auditor keeps one FNV-1a hash chain per emitting
//! [`TaskPath`] (delivery per task is in program order because each
//! task runs on one thread at a time) and combines the finished chains
//! order-insensitively, by folding them in sorted path order.
//!
//! What each event contributes is declared once, in the event table of
//! [`crate::event`]: whether the event is hashed at all (pool churn,
//! store and session-lifecycle events are not — they vary run to
//! run without affecting merged results), and which of its fields are
//! wall-clock and so skipped. Each field type's encoding is its
//! `Field` impl, next to the table.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::sync::PoisonError;

use crate::event::{EventKind, ObsEvent, TaskPath};
use crate::recorder::Recorder;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` — the hash the auditor chains are built from,
/// exposed so layers emitting content digests (e.g. the session server's
/// broadcast payloads) hash exactly the way the auditor expects.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_step(FNV_OFFSET, bytes)
}

pub(crate) fn fnv_step(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_step(h, &v.to_le_bytes())
}

pub(crate) fn fnv_path(mut h: u64, path: &TaskPath) -> u64 {
    h = fnv_u64(h, path.ids().len() as u64);
    for id in path.ids() {
        h = fnv_u64(h, *id);
    }
    h
}

/// A [`Recorder`] hashing the deterministic projection of the stream.
#[derive(Debug, Default)]
pub struct DeterminismAuditor {
    chains: Mutex<BTreeMap<TaskPath, u64>>,
}

impl DeterminismAuditor {
    /// An empty auditor.
    pub fn new() -> Self {
        DeterminismAuditor::default()
    }

    /// The combined digest of everything observed so far.
    ///
    /// Chains are folded in sorted [`TaskPath`] order, so the digest
    /// does not depend on cross-thread event arrival order — only on
    /// each task's own deterministic sequence.
    pub fn digest(&self) -> u64 {
        let chains = self.chains.lock().unwrap_or_else(PoisonError::into_inner);
        let mut h = FNV_OFFSET;
        for (path, chain) in chains.iter() {
            h = fnv_path(h, path);
            h = fnv_u64(h, *chain);
        }
        h
    }

    /// Number of distinct task chains observed.
    pub fn chain_count(&self) -> usize {
        self.chains
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The current per-task chain heads, in sorted path order. This is
    /// what `/health` exposes: two replicas running the same program
    /// must agree on every head, and when they diverge the *first
    /// differing path* localizes the desync to a task — a live sentinel
    /// rather than a post-run assert.
    pub fn chain_heads(&self) -> BTreeMap<TaskPath, u64> {
        self.chains
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Diff two replicas' chain heads: the sorted list of keys (task
    /// paths, or their `/health` renderings) whose chains disagree —
    /// present on one side only, or present on both with different
    /// heads. Empty means the replicas are digest-identical.
    pub fn diff_heads<K: Ord + Clone, V: PartialEq>(
        a: &BTreeMap<K, V>,
        b: &BTreeMap<K, V>,
    ) -> Vec<K> {
        let differing: BTreeSet<&K> = a
            .keys()
            .chain(b.keys())
            .filter(|k| a.get(*k) != b.get(*k))
            .collect();
        differing.into_iter().cloned().collect()
    }
}

/// The deterministic projection of one event: its name plus every
/// field that is not wall-clock, as the event table declares them.
/// `None` for events the table excludes.
fn projection(kind: &EventKind) -> Option<u64> {
    if !kind.audited() {
        return None;
    }
    let mut h = fnv_step(FNV_OFFSET, kind.name().as_bytes());
    kind.walk(|_, value, clock| {
        if !clock {
            h = value.fnv(h);
        }
    });
    Some(h)
}

impl Recorder for DeterminismAuditor {
    fn record(&self, event: &ObsEvent) {
        let Some(p) = projection(&event.kind) else {
            return;
        };
        let mut chains = self.chains.lock().unwrap_or_else(PoisonError::into_inner);
        let chain = chains.entry(event.task.clone()).or_insert(FNV_OFFSET);
        *chain = fnv_u64(*chain, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MergeOpStats;
    use std::time::Instant;

    fn ev(task: TaskPath, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Instant::now(),
            task,
            kind,
        }
    }

    fn merge_finished(child: TaskPath, child_ops: usize) -> EventKind {
        EventKind::MergeFinished {
            child,
            child_continues: false,
            ops: MergeOpStats {
                child_ops,
                applied_ops: child_ops,
                committed_ops: 0,
                ..Default::default()
            },
            oplog_len: child_ops,
            merge_nanos: 1,
        }
    }

    #[test]
    fn digest_ignores_wall_clock_and_cross_task_interleaving() {
        let root = TaskPath::root();
        let (c1, c2) = (root.child(1), root.child(2));

        let a = DeterminismAuditor::new();
        a.record(&ev(c1.clone(), EventKind::TaskSpawned { spawn_nanos: 111 }));
        a.record(&ev(c2.clone(), EventKind::TaskSpawned { spawn_nanos: 222 }));
        a.record(&ev(c1.clone(), EventKind::TaskCompleted));
        a.record(&ev(c2.clone(), EventKind::TaskCompleted));
        a.record(&ev(root.clone(), merge_finished(c1.clone(), 3)));
        a.record(&ev(root.clone(), merge_finished(c2.clone(), 5)));

        // Same logical run: different spawn costs, c2's events delivered
        // before c1's, store/pool noise sprinkled in.
        let b = DeterminismAuditor::new();
        b.record(&ev(root.clone(), EventKind::WorkerStarted { worker: 7 }));
        b.record(&ev(c2.clone(), EventKind::TaskSpawned { spawn_nanos: 9 }));
        b.record(&ev(c2.clone(), EventKind::TaskCompleted));
        b.record(&ev(c1.clone(), EventKind::TaskSpawned { spawn_nanos: 8 }));
        b.record(&ev(c1.clone(), EventKind::TaskCompleted));
        b.record(&ev(
            root.clone(),
            EventKind::WalAppended {
                bytes: 64,
                fsynced: false,
                fsync_nanos: 0,
            },
        ));
        b.record(&ev(root.clone(), merge_finished(c1.clone(), 3)));
        b.record(&ev(root.clone(), merge_finished(c2.clone(), 5)));

        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.chain_count(), 3);
    }

    #[test]
    fn digest_detects_merge_order_and_op_count_changes() {
        let root = TaskPath::root();
        let (c1, c2) = (root.child(1), root.child(2));

        let base = DeterminismAuditor::new();
        base.record(&ev(root.clone(), merge_finished(c1.clone(), 3)));
        base.record(&ev(root.clone(), merge_finished(c2.clone(), 5)));

        // Merge order swapped: root's own chain differs.
        let swapped = DeterminismAuditor::new();
        swapped.record(&ev(root.clone(), merge_finished(c2.clone(), 5)));
        swapped.record(&ev(root.clone(), merge_finished(c1.clone(), 3)));
        assert_ne!(base.digest(), swapped.digest());

        // Same order, different op count.
        let cooked = DeterminismAuditor::new();
        cooked.record(&ev(root.clone(), merge_finished(c1.clone(), 4)));
        cooked.record(&ev(root.clone(), merge_finished(c2.clone(), 5)));
        assert_ne!(base.digest(), cooked.digest());
    }

    #[test]
    fn phase_timings_do_not_perturb_the_digest() {
        let root = TaskPath::root();
        let clean = DeterminismAuditor::new();
        clean.record(&ev(root.clone(), merge_finished(root.child(1), 2)));

        let noisy = DeterminismAuditor::new();
        noisy.record(&ev(
            root.clone(),
            EventKind::PhaseTimed {
                phase: crate::timer::Phase::RebaseDelta,
                nanos: 12345,
            },
        ));
        noisy.record(&ev(root.clone(), merge_finished(root.child(1), 2)));
        noisy.record(&ev(
            root.clone(),
            EventKind::RecoveryFailed {
                reason: "Corrupt".into(),
            },
        ));
        assert_eq!(clean.digest(), noisy.digest());
    }

    #[test]
    fn chain_head_diff_localizes_divergence() {
        let root = TaskPath::root();
        let (c1, c2) = (root.child(1), root.child(2));

        let a = DeterminismAuditor::new();
        let b = DeterminismAuditor::new();
        for aud in [&a, &b] {
            aud.record(&ev(c1.clone(), EventKind::TaskCompleted));
            aud.record(&ev(root.clone(), merge_finished(c1.clone(), 3)));
        }
        assert!(
            DeterminismAuditor::diff_heads(&a.chain_heads(), &b.chain_heads()).is_empty(),
            "identical replicas have no diff"
        );

        // Replica b merges one extra op: its root chain diverges, and it
        // also grows a chain a never saw.
        b.record(&ev(root.clone(), merge_finished(c2.clone(), 1)));
        b.record(&ev(c2.clone(), EventKind::TaskCompleted));
        let diff = DeterminismAuditor::diff_heads(&a.chain_heads(), &b.chain_heads());
        let rendered: Vec<String> = diff.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, ["0", "0/2"], "diff names the diverged tasks");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn empty_auditors_agree() {
        assert_eq!(
            DeterminismAuditor::new().digest(),
            DeterminismAuditor::new().digest()
        );
    }
}
