//! The commit path merges the client's log straight from its base's fork
//! point and journals and broadcasts one encoding of it:
//!
//! * a delete range whose end lies past `usize::MAX` is refused
//!   `BadOps` like any other out-of-range op, and the shard goes on
//!   committing (the check runs without overflow checks in release);
//! * an op in range against the head but not against the base it names
//!   is refused, with seq, journal and broadcasts unchanged;
//! * every broadcast slice is byte for byte its journal record's `ops`,
//!   across an eviction and rehydration too;
//! * a session's commits are one child path in its journal: one digest
//!   chain links them all, in the eviction snapshot and in recovery.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_codec::{Decode, Encode};
use sm_mergeable::{MList, MText};
use sm_net::frame::{decode_frame, encode_frame, Frames};
use sm_net::{Network, Stream};
use sm_ot::list::ListOp;
use sm_ot::text::TextOp;
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use sm_store::wal::Record;
use sm_store::{RetentionPolicy, Store, StoreOptions};

const S: u64 = 7;

/// Pump `client` until its mirror of `session` has reached `seq`.
fn pump_to(client: &mut SessionClient<MText>, session: u64, seq: u64) {
    while client.seq(session) < Some(seq) {
        let got = client.pump(Duration::from_secs(10)).unwrap();
        assert!(got, "commit {seq} never reached the client");
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-commit-path-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A connection that speaks the protocol by hand: it sends what no
/// `SessionClient` would, and keeps every broadcast's raw bytes.
struct Raw {
    stream: Stream,
    received: u64,
}

impl Raw {
    fn connect(net: &Network, port: u16) -> Raw {
        Raw {
            stream: net.connect(port).unwrap(),
            received: 0,
        }
    }

    fn send(&self, msg: &ClientMsg) {
        let mut framed = Vec::new();
        encode_frame(&msg.to_bytes(), &mut framed);
        self.stream.send(&framed).unwrap();
    }

    fn recv(&mut self) -> ServerMsg {
        let raw = self.stream.recv_timeout(Duration::from_secs(10)).unwrap();
        let (payload, _) = decode_frame(&raw).unwrap();
        let msg = ServerMsg::from_bytes(payload).unwrap();
        self.received += 1;
        self.send(&ClientMsg::Ack {
            upto: self.received,
        });
        msg
    }

    fn attach(&mut self, session: u64) -> u64 {
        self.send(&ClientMsg::Attach { session });
        match self.recv() {
            ServerMsg::Attached { seq, .. } => seq,
            other => panic!("expected Attached, got {other:?}"),
        }
    }

    fn commit<O: Encode>(&mut self, base_seq: u64, ops: Vec<O>) -> ServerMsg {
        let mut buf = BytesMut::new();
        ops.encode(&mut buf);
        self.send(&ClientMsg::Commit {
            session: S,
            base_seq,
            ops: buf.to_vec(),
        });
        self.recv()
    }

    /// The next broadcast: `(seq, ops bytes)`.
    fn committed(&mut self) -> (u64, Vec<u8>) {
        match self.recv() {
            ServerMsg::Committed { seq, ops, .. } => (seq, ops),
            other => panic!("expected Committed, got {other:?}"),
        }
    }
}

fn refused_as_bad_ops(reply: &ServerMsg) -> &str {
    match reply {
        ServerMsg::Rejected {
            session: S,
            reason: RejectReason::BadOps(why),
        } => why,
        other => panic!("expected BadOps, got {other:?}"),
    }
}

/// Every journaled commit of session `S` under `dir`: `(seq, ops,
/// ops_count)`, in order.
fn journal(dir: &Path) -> Vec<(u64, Vec<u8>, u64)> {
    let session = dir.join(format!("session-{S:016x}"));
    let mut wals: Vec<PathBuf> = std::fs::read_dir(&session)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .collect();
    wals.sort();
    let mut out = Vec::new();
    for wal in wals {
        let bytes = std::fs::read(wal).unwrap();
        for (_, payload) in Frames::new(&bytes) {
            if let Record::Commit(c) = Record::from_bytes(payload).unwrap() {
                out.push((c.seq, c.ops.to_vec(), c.ops_count));
            }
        }
    }
    out
}

#[test]
fn a_delete_range_ending_past_usize_max_is_refused_and_the_shard_keeps_committing() {
    let dir = tmpdir("hostile");
    let net = Network::new();
    let text = SessionServer::start(&net, 4700, ServerConfig::new(dir.join("text")), || {
        MText::from("abc")
    })
    .unwrap();
    let list = SessionServer::start(&net, 4701, ServerConfig::new(dir.join("list")), || {
        MList::from_iter([1u32, 2, 3])
    })
    .unwrap();

    let mut raw = Raw::connect(&net, 4700);
    assert_eq!(raw.attach(S), 0);
    let reply = raw.commit(0, vec![TextOp::delete(usize::MAX, 2)]);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    let mut editor: SessionClient<MText> = SessionClient::connect(&net, 4700).unwrap();
    editor.attach(S).unwrap();
    let out = editor.commit_with(S, |t| t.push_str("d")).unwrap();
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    assert_eq!(editor.mirror(S).unwrap().to_string(), "abcd");

    let mut raw = Raw::connect(&net, 4701);
    assert_eq!(raw.attach(S), 0);
    let reply = raw.commit(0, vec![ListOp::<u32>::DeleteRange(usize::MAX, 2)]);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    let mut editor: SessionClient<MList<u32>> = SessionClient::connect(&net, 4701).unwrap();
    editor.attach(S).unwrap();
    let out = editor.commit_with(S, |l| l.push(4)).unwrap();
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    assert_eq!(editor.mirror(S).unwrap().to_vec(), vec![1, 2, 3, 4]);

    text.shutdown();
    list.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_op_in_range_against_the_head_but_not_its_base_is_refused_without_a_trace() {
    let dir = tmpdir("head-not-base");
    let net = Network::new();
    let server =
        SessionServer::start(&net, 4702, ServerConfig::new(&dir), || MText::from("ab")).unwrap();
    let mut raw = Raw::connect(&net, 4702);
    assert_eq!(raw.attach(S), 0);
    let mut editor: SessionClient<MText> = SessionClient::connect(&net, 4702).unwrap();
    editor.attach(S).unwrap();
    let out = editor.commit_with(S, |t| t.push_str("cdef")).unwrap();
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    let first = raw.committed();
    assert_eq!(first.0, 1);

    // "abcdef" has a 4th and 5th char; "ab", the base named, has not.
    let reply = raw.commit(0, vec![TextOp::delete(3, 2)]);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    assert_eq!(journal(&dir).len(), 1, "nothing journaled");

    // Against the base it was made on, the same op lands as seq 2: the
    // refusal advanced nothing and broadcast nothing.
    assert!(matches!(
        raw.commit(1, vec![TextOp::delete(3, 2)]),
        ServerMsg::Committed {
            seq: 2,
            applied: true,
            ..
        }
    ));
    pump_to(&mut editor, S, 2);
    assert_eq!(editor.seq(S), Some(2));
    assert_eq!(editor.mirror(S).unwrap().to_string(), "abcf");
    let events = editor.drain_commit_events();
    assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
    assert_eq!(journal(&dir).len(), 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_broadcast_slice_is_its_journal_record_across_an_eviction() {
    const RING: usize = 3;
    let dir = tmpdir("encode-once");
    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = RING;
    cfg.idle_after = Duration::from_millis(30);
    // Keep every segment: the records before the eviction snapshot too.
    cfg.store.retention = RetentionPolicy::KeepAll;
    let net = Network::new();
    let server = SessionServer::start(&net, 4703, cfg, || MText::from("seed. ")).unwrap();
    let mut editors: [SessionClient<MText>; 2] =
        [(); 2].map(|()| SessionClient::connect(&net, 4703).unwrap());
    let mut watcher = Raw::connect(&net, 4703);
    assert_eq!(watcher.attach(S), 0);

    let mut broadcasts = Vec::new();
    let mut seq = 0;
    let mut round = |editors: &mut [SessionClient<MText>; 2], watcher: &mut Raw, n: usize| {
        for i in 0..n {
            // The other editor's last commit is not pumped yet: every
            // commit but the first is rebased over one or more commits.
            let c = &mut editors[i % 2];
            let out = c
                .commit_with(S, |t| {
                    t.insert_str(0, format!("[{i}]"));
                    let end = t.char_len();
                    t.insert_str(end, "·");
                    t.delete_range(1, 1);
                })
                .unwrap();
            seq += 1;
            assert_eq!(out, CommitOutcome::Committed { seq });
            broadcasts.push(watcher.committed());
        }
    };
    for c in &mut editors {
        c.attach(S).unwrap();
    }
    round(&mut editors, &mut watcher, 2 * RING + 1);

    // Everyone leaves; the session is snapshotted and evicted, then
    // rehydrated by the next attach.
    for c in &mut editors {
        c.detach(S).unwrap();
    }
    watcher.send(&ClientMsg::Detach { session: S });
    assert!(matches!(watcher.recv(), ServerMsg::Detached { session: S }));
    let session = dir.join(format!("session-{S:016x}"));
    let evicted = format!("snap-{:020}", 2 * RING + 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !session.join(&evicted).exists() {
        assert!(Instant::now() < deadline, "the session was never evicted");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(watcher.attach(S), (2 * RING + 1) as u64);
    for c in &mut editors {
        c.attach(S).unwrap();
    }
    round(&mut editors, &mut watcher, RING + 1);

    let journaled = journal(&dir);
    assert_eq!(journaled.len(), broadcasts.len());
    for ((seq, ops, count), (bseq, bops)) in journaled.iter().zip(&broadcasts) {
        assert_eq!(seq, bseq);
        assert_eq!(ops, bops, "commit {seq}: broadcast slice vs journal record");
        let decoded = Vec::<TextOp>::decode(&mut bops.clone().into()).unwrap();
        assert_eq!(decoded.len() as u64, *count, "commit {seq}: op count");
    }
    for c in &mut editors {
        pump_to(c, S, seq);
    }
    assert_eq!(editors[0].state_digest(S), editors[1].state_digest(S));

    drop(editors);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_chain_links_every_commit_of_a_session() {
    const COMMITS: u64 = 5;
    let dir = tmpdir("one-chain");
    let mut cfg = ServerConfig::new(&dir);
    cfg.idle_after = Duration::from_millis(30);
    let net = Network::new();
    let server = SessionServer::start(&net, 4704, cfg, || MText::from("seed. ")).unwrap();
    let mut editor: SessionClient<MText> = SessionClient::connect(&net, 4704).unwrap();
    editor.attach(S).unwrap();
    for seq in 1..=COMMITS {
        let out = editor
            .commit_with(S, |t| t.insert_str(0, format!("[{seq}]")))
            .unwrap();
        assert_eq!(out, CommitOutcome::Committed { seq });
    }
    editor.detach(S).unwrap();
    let session = dir.join(format!("session-{S:016x}"));
    let evicted = session.join(format!("snap-{COMMITS:020}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !evicted.exists() {
        assert!(Instant::now() < deadline, "the session was never evicted");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(editor);
    server.shutdown();

    let bytes = std::fs::read(&evicted).unwrap();
    let (payload, _) = decode_frame(&bytes).unwrap();
    let Record::Snapshot(snapshot) = Record::from_bytes(payload).unwrap() else {
        panic!("a snapshot file holds a snapshot record");
    };
    assert_eq!(snapshot.seq, COMMITS);
    assert_eq!(snapshot.chains.len(), 1, "{:?}", snapshot.chains);
    let recovered = Store::open(&session, StoreOptions::default())
        .unwrap()
        .recover::<MText>()
        .unwrap()
        .expect("the session has a journal");
    assert_eq!(recovered.last_seq, COMMITS);
    assert_eq!(recovered.chains.len(), 1, "{:?}", recovered.chains);
    let _ = std::fs::remove_dir_all(&dir);
}
