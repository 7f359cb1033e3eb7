//! The commit path merges in place and keeps only a ring's worth of
//! history: a commit that fails *after* mutating the head is rolled back
//! without a trace, and neither the clients' mirrors nor the shard's
//! head retain history in proportion to the session's age.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use sm_codec::session::RejectReason;
use sm_codec::DecodeError;
use sm_mergeable::{MText, MergeError, MergeStats, Mergeable, ReplayError};
use sm_net::Network;
use sm_obs::{install, uninstall, DeterminismAuditor, EventKind, Metrics, ObsEvent, TaskPath};
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use sm_store::Persist;

/// The recorder slot is process-global and the tests below read totals
/// off it: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-history-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pump `client` until its mirror of `session` has applied commit
/// `seq`. A ping is no barrier for that: the connection's reader thread
/// answers it, while the shard sends each commit to the subscribers one
/// after another, so a pong can overtake the last broadcast.
fn pump_to<D: Persist>(client: &mut SessionClient<D>, session: u64, seq: u64) {
    while client.seq(session) < Some(seq) {
        let got = client.pump(Duration::from_secs(10)).unwrap();
        assert!(got, "commit {seq} never reached the client");
    }
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

    fn merge(&mut self, child: &Self) -> Result<MergeStats, MergeError> {
        let stats = self.0.merge(&child.0)?;
        if self.0.to_string().contains(POISON) {
            return Err(MergeError::ShapeMismatch {
                detail: "poisoned payload".into(),
            });
        }
        Ok(stats)
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
fn chain_heads(client: &mut SessionClient<Poisonable>) -> BTreeMap<TaskPath, u64> {
    let auditor = DeterminismAuditor::new();
    for ev in client.drain_commit_events() {
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
fn poisoned_scenario(tag: &str, port: u16, poison: bool) -> Outcome {
    const S: u64 = 9;
    let dir = tmpdir(tag);
    let net = Network::new();
    let server = SessionServer::start(&net, port, ServerConfig::new(&dir), || {
        Poisonable(MText::from("base. "))
    })
    .expect("server starts");
    let mut a: SessionClient<Poisonable> = SessionClient::connect(&net, port).unwrap();
    let mut b: SessionClient<Poisonable> = SessionClient::connect(&net, port).unwrap();
    a.attach(S).unwrap();
    b.attach(S).unwrap();

    let committed = |seq| CommitOutcome::Committed { seq };
    assert_eq!(
        a.commit_with(S, |t| t.0.insert_str(0, "[a1]")).unwrap(),
        committed(1)
    );
    // B has not pumped A's commit: its edit is rebased over it.
    assert_eq!(
        b.commit_with(S, |t| t.0.insert_str(6, "[b1]")).unwrap(),
        committed(2)
    );
    if poison {
        // A is one commit behind too, so the poisoned merge really
        // rebases and mutates the head before it fails.
        let out = a.commit_with(S, |t| t.0.insert_str(2, POISON)).unwrap();
        assert!(
            matches!(&out, CommitOutcome::Rejected(RejectReason::BadOps(why)) if why.contains("poisoned")),
            "{out:?}"
        );
        assert_eq!(a.seq(S), Some(2), "a rejected commit advances nothing");
    } else {
        pump_to(&mut a, S, 2);
    }
    assert_eq!(
        b.commit_with(S, |t| t.0.delete_range(0, 2)).unwrap(),
        committed(3)
    );
    assert_eq!(
        a.commit_with(S, |t| {
            let end = t.0.char_len();
            t.0.insert_str(end, "[a2]")
        })
        .unwrap(),
        committed(4)
    );
    pump_to(&mut b, S, 4);

    let mut c: SessionClient<Poisonable> = SessionClient::connect(&net, port).unwrap();
    assert_eq!(c.attach(S).unwrap(), 4);
    let text = c.mirror(S).unwrap().0.to_string();
    assert!(!text.contains(POISON), "{text:?}");
    let outcome = Outcome {
        digests: [&a, &b, &c].map(|client| client.state_digest(S).unwrap()),
        heads: [chain_heads(&mut a), chain_heads(&mut b)],
    };
    drop((a, b, c));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn a_commit_that_fails_after_mutating_the_head_leaves_no_trace() {
    let _guard = serial();
    let clean = poisoned_scenario("clean", 4600, false);
    let poisoned = poisoned_scenario("poisoned", 4601, true);

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
    let net = Network::new();
    let server = SessionServer::start(&net, 4602, cfg, || MText::from("seed")).unwrap();
    let mut clients: [SessionClient<MText>; 2] =
        [(); 2].map(|()| SessionClient::connect(&net, 4602).unwrap());
    for c in &mut clients {
        c.attach(S).unwrap();
    }

    let mut marks = Vec::new();
    for n in 1..=COMMITS {
        // The committer has not seen the other's last commit yet, so
        // every commit but the first is rebased. One op each: nothing
        // fuses across the seal between two commits.
        let c = &mut clients[n % 2];
        let out = c.commit_with(S, |t| t.insert_str(0, "x")).unwrap();
        assert_eq!(out, CommitOutcome::Committed { seq: n as u64 });
        let mirror = c.mirror(S).unwrap();
        assert_eq!(mirror.pending_ops(), 0, "mirror history after commit {n}");
        marks.clear();
        mirror.history_marks(&mut marks);
        assert_eq!(marks, [n], "history marks keep counting absolutely");
    }
    for c in &mut clients {
        pump_to(c, S, COMMITS as u64);
        assert_eq!(c.mirror(S).unwrap().pending_ops(), 0);
    }
    assert_eq!(clients[0].state_digest(S), clients[1].state_digest(S));

    // The shard's head recorded one op per commit; whatever it has not
    // reported as truncated it still holds.
    let snap = metrics.snapshot();
    let retained = COMMITS as u64 - snap.log_truncated_ops;
    assert!(
        retained <= 2 * RING as u64,
        "head retains {retained} of {COMMITS} ops with a ring of {RING}"
    );
    assert!(
        (1..=(COMMITS / RING) as u64).contains(&snap.log_truncations),
        "truncation is amortised over a ring wrap, got {} runs",
        snap.log_truncations
    );

    drop(clients);
    server.shutdown();
    uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}
