//! The commit path merges in place and keeps only a ring's worth of
//! history: a commit that fails *after* mutating the head is rolled back
//! without a trace, neither the clients' mirrors nor the shard's head
//! retain history in proportion to the session's age, and the ring's
//! front is exactly the oldest base a commit may name. Every case steps
//! a `Shard` and its clients' `Mirrors` on the test's thread.

mod step;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use sm_codec::session::RejectReason;
use sm_codec::DecodeError;
use sm_mergeable::{MText, MergeError, MergeStats, Mergeable, ReplayError};
use sm_obs::{install, uninstall, DeterminismAuditor, EventKind, Metrics, ObsEvent, TaskPath};
use sm_server::{CommitOutcome, Mirrors, ServerConfig};
use sm_store::Persist;
use step::{tmpdir, Stepped};

/// The recorder slot is process-global and the tests below read totals
/// off it: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const POISON: &str = "☠";

/// `MText`, except that merging a child whose text carries [`POISON`]
/// fails *after* the merge has been applied — the worst case for an
/// in-place merge: the head is already mutated when the error surfaces.
#[derive(Debug, Clone)]
struct Poisonable(MText);

impl Mergeable for Poisonable {
    fn fork(&self) -> Self {
        Poisonable(self.0.fork())
    }

    fn pristine(&self) -> Self {
        Poisonable(self.0.pristine())
    }

    fn merge_into(&mut self, child: &Self, stats: &mut MergeStats) -> Result<(), MergeError> {
        self.0.merge_into(&child.0, stats)?;
        if self.0.to_string().contains(POISON) {
            return Err(MergeError::ShapeMismatch {
                detail: "poisoned payload".into(),
            });
        }
        Ok(())
    }

    fn pending_ops(&self) -> usize {
        self.0.pending_ops()
    }

    fn history_marks(&self, out: &mut Vec<usize>) {
        self.0.history_marks(out)
    }

    fn fork_marks(&self, out: &mut Vec<usize>) {
        self.0.fork_marks(out)
    }

    fn truncate_history(&mut self, watermark: &[usize], cursor: &mut usize) -> usize {
        self.0.truncate_history(watermark, cursor)
    }

    fn rollback_to(&mut self, fork: &Self) {
        self.0.rollback_to(&fork.0)
    }
}

impl Persist for Poisonable {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.0.encode_state(buf)
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        MText::decode_state(buf).map(Poisonable)
    }

    fn encode_log(&self, buf: &mut BytesMut) {
        self.0.encode_log(buf)
    }

    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
        self.0.apply_log(buf)
    }

    /// The same poison check as [`Mergeable::merge`], after the merge.
    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
        let stats = self.0.merge_log(&base.0, buf)?;
        if self.0.to_string().contains(POISON) {
            return Err(ReplayError::Merge(MergeError::ShapeMismatch {
                detail: "poisoned payload".into(),
            }));
        }
        Ok(stats)
    }

    fn seal_history(&self) {
        self.0.seal_history()
    }

    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize {
        self.0.encode_committed_since(marks, cursor, buf)
    }
}

/// Fold a client's applied broadcasts into auditor chain heads — the
/// subscriber-side twin of the server's `session_committed` chains.
fn chain_heads(mirrors: &mut Mirrors<Poisonable>) -> BTreeMap<TaskPath, u64> {
    let auditor = DeterminismAuditor::new();
    for ev in mirrors.drain_commit_events() {
        sm_obs::Recorder::record(
            &auditor,
            &ObsEvent {
                at: Instant::now(),
                task: TaskPath::root().child(ev.session),
                kind: EventKind::SessionCommitted {
                    session: ev.session,
                    seq: ev.seq,
                    ops: ev.ops,
                    digest: ev.digest,
                },
            },
        );
    }
    auditor.chain_heads()
}

struct Outcome {
    digests: [u64; 3],
    heads: [BTreeMap<TaskPath, u64>; 2],
}

/// A commits, B commits one behind, (optionally) A sends a poisoned
/// commit, then B and A commit again; a third client attaches last.
fn poisoned_scenario(tag: &str, poison: bool) -> Outcome {
    const S: u64 = 9;
    let dir = tmpdir(tag);
    let mut shard = Stepped::new(ServerConfig::new(&dir), || {
        Poisonable(MText::from("base. "))
    });
    let (a, b) = (shard.connect(), shard.connect());
    shard.attach(a, S);
    shard.attach(b, S);

    let committed = |seq| CommitOutcome::Committed { seq };
    assert_eq!(
        shard.commit(a, S, |t| t.0.insert_str(0, "[a1]")),
        committed(1)
    );
    // B has not been handed A's commit: its edit is rebased over it.
    assert_eq!(
        shard.commit(b, S, |t| t.0.insert_str(6, "[b1]")),
        committed(2)
    );
    if poison {
        // A is one commit behind too, so the poisoned merge really
        // rebases and mutates the head before it fails.
        let out = shard.commit(a, S, |t| t.0.insert_str(2, POISON));
        assert!(
            matches!(&out, CommitOutcome::Rejected(RejectReason::BadOps(why)) if why.contains("poisoned")),
            "{out:?}"
        );
        assert_eq!(
            shard.mirrors(a).seq(S),
            Some(2),
            "a rejected commit advances nothing"
        );
    } else {
        shard.pump(a);
    }
    assert_eq!(shard.commit(b, S, |t| t.0.delete_range(0, 2)), committed(3));
    assert_eq!(
        shard.commit(a, S, |t| {
            let end = t.0.char_len();
            t.0.insert_str(end, "[a2]")
        }),
        committed(4)
    );
    shard.pump(b);

    let c = shard.connect();
    assert_eq!(shard.attach(c, S), 4);
    let text = shard.mirrors(c).mirror(S).unwrap().0.to_string();
    assert!(!text.contains(POISON), "{text:?}");
    let outcome = Outcome {
        digests: [a, b, c].map(|conn| shard.mirrors(conn).state_digest(S).unwrap()),
        heads: [a, b].map(|conn| chain_heads(shard.mirrors_mut(conn))),
    };
    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn a_commit_that_fails_after_mutating_the_head_leaves_no_trace() {
    let _guard = serial();
    let clean = poisoned_scenario("clean", false);
    let poisoned = poisoned_scenario("poisoned", true);

    // Committer, second subscriber and the fresh third attach agree,
    // and agree with the run that never sent the poisoned commit.
    assert_eq!(poisoned.digests, [clean.digests[0]; 3]);
    assert_eq!(clean.digests, [clean.digests[0]; 3]);
    for heads in &poisoned.heads {
        assert!(!heads.is_empty(), "the clients applied the commits");
        assert_eq!(
            DeterminismAuditor::diff_heads(&clean.heads[0], heads),
            Vec::new(),
            "the rolled-back commit must not perturb the broadcast stream"
        );
    }
    assert_eq!(clean.heads[0], clean.heads[1]);
}

#[test]
fn retained_history_is_bounded_by_the_ring_not_the_session_age() {
    const S: u64 = 3;
    const RING: usize = 4;
    const COMMITS: usize = 10 * RING;

    let _guard = serial();
    let metrics = Arc::new(Metrics::new());
    install(metrics.clone());
    let dir = tmpdir("bounded");
    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = RING;
    let mut shard = Stepped::new(cfg, || MText::from("seed"));
    let clients = [shard.connect(), shard.connect()];
    for c in clients {
        shard.attach(c, S);
    }

    let mut marks = Vec::new();
    for n in 1..=COMMITS {
        // The committer has not been handed the other's last commit, so
        // every commit but the first is rebased. One op each: nothing
        // fuses across the seal between two commits.
        let c = clients[n % 2];
        let out = shard.commit(c, S, |t| t.insert_str(0, "x"));
        assert_eq!(out, CommitOutcome::Committed { seq: n as u64 });
        let mirror = shard.mirrors(c).mirror(S).unwrap();
        assert_eq!(mirror.pending_ops(), 0, "mirror history after commit {n}");
        marks.clear();
        mirror.history_marks(&mut marks);
        assert_eq!(marks, [n], "history marks keep counting absolutely");

        // The shard's head recorded one op per commit; whatever it has
        // not reported as truncated it still holds. Right after a wrap
        // that is the ring's front's RING - 1 successors; the next
        // RING - 1 commits add to them before the next wrap drops them.
        let retained = n as u64 - metrics.snapshot().log_truncated_ops;
        assert!(
            retained <= 2 * RING as u64 - 2,
            "head retains {retained} of {n} ops with a ring of {RING}"
        );
    }
    for c in clients {
        shard.pump(c);
        assert_eq!(shard.mirrors(c).mirror(S).unwrap().pending_ops(), 0);
    }
    let [a, b] = clients.map(|c| shard.mirrors(c).state_digest(S));
    assert_eq!(a, b);

    let snap = metrics.snapshot();
    assert!(
        (1..=(COMMITS / RING) as u64).contains(&snap.log_truncations),
        "truncation is amortised over a ring wrap, got {} runs",
        snap.log_truncations
    );

    shard.stop();
    uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_commit_on_the_rings_front_lands_and_one_behind_it_is_stale() {
    const S: u64 = 4;
    const RING: usize = 3;

    // No recorder of its own, but its events must not reach another's.
    let _guard = serial();
    let dir = tmpdir("ring-front");
    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = RING;
    let mut shard = Stepped::new(cfg, || MText::from("seed"));
    let (head, front, behind) = (shard.connect(), shard.connect(), shard.connect());
    assert_eq!(shard.attach(behind, S), 0);
    shard.attach(head, S);
    shard.commit(head, S, |t| t.insert_str(0, "x"));
    assert_eq!(shard.attach(front, S), 1);
    // Up to seq RING: a ring wrap, so the ring holds bases 1..=RING and
    // the head's history was just truncated to base 1's fork point.
    for seq in 2..=RING as u64 {
        let out = shard.commit(head, S, |t| t.insert_str(0, "x"));
        assert_eq!(out, CommitOutcome::Committed { seq });
    }

    let append = |t: &mut MText| {
        let end = t.char_len();
        t.insert_str(end, "!");
    };
    assert_eq!(
        shard.commit(behind, S, append),
        CommitOutcome::Rejected(RejectReason::StaleBase {
            base_seq: 0,
            oldest_retained: 1,
        })
    );
    // Based on the front, the append is rebased over every commit since
    // and still lands at the end.
    let seq = RING as u64 + 1;
    assert_eq!(
        shard.commit(front, S, append),
        CommitOutcome::Committed { seq }
    );
    let text = shard.mirrors(front).mirror(S).unwrap().to_string();
    assert_eq!(text, format!("{}seed!", "x".repeat(RING)));

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
