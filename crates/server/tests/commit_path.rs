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
//!
//! Every case steps a `Shard` and its clients' `Mirrors` on the test's
//! thread (see `step/mod.rs`).

mod step;

use std::path::{Path, PathBuf};

use bytes::BytesMut;
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_codec::{Decode, Encode};
use sm_mergeable::{MList, MText};
use sm_net::frame::{decode_frame, Frames};
use sm_ot::list::ListOp;
use sm_ot::text::TextOp;
use sm_server::{CommitOutcome, ServerConfig};
use sm_store::wal::Record;
use sm_store::{Store, StoreOptions};
use step::{tmpdir, Stepped};

const S: u64 = 7;

/// A commit no `Mirrors` would build: `ops` against `base_seq`.
fn raw_commit<O: Encode>(base_seq: u64, ops: Vec<O>) -> ClientMsg {
    let mut buf = BytesMut::new();
    ops.encode(&mut buf);
    ClientMsg::Commit {
        session: S,
        base_seq,
        ops: buf.to_vec(),
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
fn commits(dir: &Path) -> Vec<(u64, Vec<u8>, u64)> {
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
    let mut text = Stepped::new(ServerConfig::new(dir.join("text")), || MText::from("abc"));
    let (raw, editor) = (text.connect(), text.connect());
    assert_eq!(text.attach(raw, S), 0);
    text.send(raw, raw_commit(0, vec![TextOp::delete(usize::MAX, 2)]));
    let reply = text.recv(raw);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    text.attach(editor, S);
    let out = text.commit(editor, S, |t| t.push_str("d"));
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    assert_eq!(text.mirrors(editor).mirror(S).unwrap().to_string(), "abcd");

    let mut list = Stepped::new(ServerConfig::new(dir.join("list")), || {
        MList::from_iter([1u32, 2, 3])
    });
    let (raw, editor) = (list.connect(), list.connect());
    assert_eq!(list.attach(raw, S), 0);
    list.send(
        raw,
        raw_commit(0, vec![ListOp::<u32>::DeleteRange(usize::MAX, 2)]),
    );
    let reply = list.recv(raw);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    list.attach(editor, S);
    let out = list.commit(editor, S, |l| l.push(4));
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    assert_eq!(
        list.mirrors(editor).mirror(S).unwrap().to_vec(),
        [1, 2, 3, 4]
    );

    text.stop();
    list.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_op_in_range_against_the_head_but_not_its_base_is_refused_without_a_trace() {
    let dir = tmpdir("head-not-base");
    let mut shard = Stepped::new(ServerConfig::new(&dir), || MText::from("ab"));
    let (raw, editor) = (shard.connect(), shard.connect());
    assert_eq!(shard.attach(raw, S), 0);
    shard.attach(editor, S);
    let out = shard.commit(editor, S, |t| t.push_str("cdef"));
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    assert!(matches!(
        shard.recv(raw),
        ServerMsg::Committed { seq: 1, .. }
    ));

    // "abcdef" has a 4th and 5th char; "ab", the base named, has not.
    shard.send(raw, raw_commit(0, vec![TextOp::delete(3, 2)]));
    let reply = shard.recv(raw);
    assert!(
        refused_as_bad_ops(&reply).starts_with("apply: "),
        "{reply:?}"
    );
    assert_eq!(commits(&dir).len(), 1, "nothing journaled");

    // Against the base it was made on, the same op lands as seq 2: the
    // refusal advanced nothing and broadcast nothing.
    shard.send(raw, raw_commit(1, vec![TextOp::delete(3, 2)]));
    assert!(matches!(
        shard.recv(raw),
        ServerMsg::Committed {
            seq: 2,
            applied: true,
            ..
        }
    ));
    shard.pump(editor);
    let mirrors = shard.mirrors_mut(editor);
    assert_eq!(mirrors.seq(S), Some(2));
    assert_eq!(mirrors.mirror(S).unwrap().to_string(), "abcf");
    let events = mirrors.drain_commit_events();
    assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
    assert_eq!(commits(&dir).len(), 2);

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_broadcast_slice_is_its_journal_record_across_an_eviction() {
    const RING: usize = 3;
    let dir = tmpdir("encode-once");
    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = RING;
    let mut shard = Stepped::new(cfg, || MText::from("seed. "));
    let editors = [shard.connect(), shard.connect()];
    let watcher = shard.connect();
    assert_eq!(shard.attach(watcher, S), 0);

    let mut broadcasts = Vec::new();
    let mut seq = 0;
    let mut round = |shard: &mut Stepped<MText>, n: usize| {
        for i in 0..n {
            // The other editor's last commit is not handed over yet:
            // every commit but the first is rebased over one or more.
            let out = shard.commit(editors[i % 2], S, |t| {
                t.insert_str(0, format!("[{i}]"));
                let end = t.char_len();
                t.insert_str(end, "·");
                t.delete_range(1, 1);
            });
            seq += 1;
            assert_eq!(out, CommitOutcome::Committed { seq });
            match shard.recv(watcher) {
                ServerMsg::Committed { seq, ops, .. } => broadcasts.push((seq, ops)),
                other => panic!("expected Committed, got {other:?}"),
            }
        }
    };
    for c in editors {
        shard.attach(c, S);
    }
    round(&mut shard, 2 * RING + 1);
    // The eviction snapshot prunes the segments these records are in.
    let mut journaled = commits(&dir);

    // Everyone leaves; the session is snapshotted and evicted, then
    // rehydrated by the next attach.
    for c in editors.into_iter().chain([watcher]) {
        shard.detach(c, S);
    }
    shard.idle();
    let evicted = format!("snap-{:020}", 2 * RING + 1);
    let session = dir.join(format!("session-{S:016x}"));
    assert!(session.join(&evicted).exists(), "the session was evicted");
    assert_eq!(shard.attach(watcher, S), (2 * RING + 1) as u64);
    for c in editors {
        shard.attach(c, S);
    }
    round(&mut shard, RING + 1);

    journaled.extend(commits(&dir));
    assert_eq!(journaled.len(), broadcasts.len());
    for ((seq, ops, count), (bseq, bops)) in journaled.iter().zip(&broadcasts) {
        assert_eq!(seq, bseq);
        assert_eq!(ops, bops, "commit {seq}: broadcast slice vs journal record");
        let decoded = Vec::<TextOp>::decode(&mut bops.clone().into()).unwrap();
        assert_eq!(decoded.len() as u64, *count, "commit {seq}: op count");
    }
    for c in editors {
        shard.pump(c);
        assert_eq!(shard.mirrors(c).seq(S), Some(seq));
    }
    let [a, b] = editors.map(|c| shard.mirrors(c).state_digest(S));
    assert_eq!(a, b);

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_chain_links_every_commit_of_a_session() {
    const COMMITS: u64 = 5;
    let dir = tmpdir("one-chain");
    let mut shard = Stepped::new(ServerConfig::new(&dir), || MText::from("seed. "));
    let editor = shard.connect();
    shard.attach(editor, S);
    for seq in 1..=COMMITS {
        let out = shard.commit(editor, S, |t| t.insert_str(0, format!("[{seq}]")));
        assert_eq!(out, CommitOutcome::Committed { seq });
    }
    shard.detach(editor, S);
    shard.idle();
    let session = dir.join(format!("session-{S:016x}"));
    let evicted = session.join(format!("snap-{COMMITS:020}"));
    assert!(evicted.exists(), "the session was evicted");
    shard.stop();

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
