//! Convergence and back-pressure behaviour of the session server: every
//! subscriber of a session ends digest-identical, divergent concurrent
//! commits are OT-rebased, stale bases are rejected, and slow consumers
//! are disconnected without stalling anyone else.
//!
//! The protocol cases step a `Shard` and its clients' `Mirrors` on the
//! test's thread (see `step/mod.rs`). The back-pressure cases run a
//! `SessionServer`: the slow-consumer disconnect is the driver's, not the
//! core's.

mod step;

use std::time::Duration;

use bytes::{BufMut, BytesMut};
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_codec::{put_varint, Decode, Encode};
use sm_mergeable::MText;
use sm_net::frame::{decode_frame, encode_frame};
use sm_net::{NetError, Network};
use sm_server::{
    ClientError, CommitOutcome, ServerConfig, SessionClient, SessionServer, SLOW_CONSUMER_REASON,
};
use step::{tmpdir, Stepped};

fn base() -> MText {
    MText::from("base. ")
}

fn start(net: &Network, port: u16, cfg: ServerConfig) -> SessionServer {
    SessionServer::start(net, port, cfg, base).expect("server starts")
}

#[test]
fn two_clients_converge_through_broadcasts() {
    let dir = tmpdir("converge");
    let mut shard = Stepped::new(ServerConfig::new(&dir), base);
    let (a, b) = (shard.connect(), shard.connect());
    assert_eq!(shard.attach(a, 7), 0);
    assert_eq!(shard.attach(b, 7), 0);

    let out = shard.commit(a, 7, |t| t.insert_str(0, "[a1]"));
    assert_eq!(out, CommitOutcome::Committed { seq: 1 });
    // B sees A's commit as a broadcast.
    shard.pump(b);
    assert_eq!(shard.mirrors(b).seq(7), Some(1));
    let digest = |shard: &Stepped<MText>, c| shard.mirrors(c).state_digest(7);
    assert_eq!(digest(&shard, a), digest(&shard, b));

    let out = shard.commit(b, 7, |t| {
        let len = t.char_len();
        t.insert_str(len, "[b1]")
    });
    assert_eq!(out, CommitOutcome::Committed { seq: 2 });
    shard.pump(a);
    assert_eq!(shard.mirrors(a).seq(7), Some(2));
    assert_eq!(digest(&shard, a), digest(&shard, b));
    let text = shard.mirrors(a).mirror(7).unwrap().to_string();
    assert!(text.contains("[a1]") && text.contains("[b1]"), "{text:?}");

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergent_concurrent_commits_are_rebased() {
    let dir = tmpdir("rebase");
    let mut shard = Stepped::new(ServerConfig::new(&dir), base);
    let (a, b) = (shard.connect(), shard.connect());
    shard.attach(a, 1);
    shard.attach(b, 1);

    // Both commit against seq 0; B does not see A's commit before
    // committing, so the server must rebase B's ops over A's.
    assert_eq!(
        shard.commit(a, 1, |t| t.insert_str(0, "[A]")),
        CommitOutcome::Committed { seq: 1 }
    );
    let out = shard.commit(b, 1, |t| t.insert_str(0, "[B]"));
    assert_eq!(out, CommitOutcome::Committed { seq: 2 });

    shard.pump(a);
    for c in [a, b] {
        assert_eq!(shard.mirrors(c).seq(1), Some(2));
    }
    assert_eq!(
        shard.mirrors(a).state_digest(1),
        shard.mirrors(b).state_digest(1),
        "mirrors must converge"
    );
    let text = shard.mirrors(a).mirror(1).unwrap().to_string();
    assert!(
        text.contains("[A]") && text.contains("[B]"),
        "both divergent edits must survive the rebase: {text:?}"
    );

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_base_commits_are_rejected() {
    let dir = tmpdir("stale");
    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = 2;
    let mut shard = Stepped::new(cfg, base);
    let (a, b) = (shard.connect(), shard.connect());
    shard.attach(a, 3);
    shard.attach(b, 3);

    // Four commits from A push seq to 4; the ring (length 2) forgets
    // base 0, which B still sits on.
    for i in 0..4 {
        shard.commit(a, 3, |t| t.insert_str(0, format!("[a{i}]")));
    }
    match shard.commit(b, 3, |t| t.insert_str(0, "[late]")) {
        CommitOutcome::Rejected(RejectReason::StaleBase {
            base_seq,
            oldest_retained,
        }) => {
            assert_eq!(base_seq, 0);
            assert!(oldest_retained > 0);
        }
        other => panic!("expected StaleBase rejection, got {other:?}"),
    }
    // Recovery path: B re-attaches for a fresh snapshot and can commit.
    assert_eq!(shard.attach(b, 3), 4);
    assert_eq!(
        shard.commit(b, 3, |t| t.insert_str(0, "[b-retry]")),
        CommitOutcome::Committed { seq: 5 }
    );

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_without_attach_is_rejected() {
    let dir = tmpdir("noattach");
    let mut shard = Stepped::new(ServerConfig::new(&dir), base);

    // The client's mirrors refuse locally without a mirror…
    let b = shard.connect();
    let commit = |shard: &Stepped<MText>| shard.mirrors(b).commit_msg(9, |_| {});
    assert!(commit(&shard).is_err(), "no mirror, no commit");
    shard.attach(b, 9);
    shard.detach(b, 9);
    assert!(commit(&shard).is_err(), "detach drops the mirror too");

    // …and the shard itself bounces a raw commit from a connection that
    // never attached.
    let raw = shard.connect();
    let msg = ClientMsg::Commit {
        session: 9,
        base_seq: 0,
        ops: Vec::new(),
    };
    shard.send(raw, msg);
    match shard.recv(raw) {
        ServerMsg::Rejected {
            session: 9,
            reason: RejectReason::NotAttached,
        } => {}
        other => panic!("expected NotAttached rejection, got {other:?}"),
    }

    shard.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_consumer_is_disconnected_without_stalling_others() {
    let net = Network::new();
    let dir = tmpdir("slow");
    let mut cfg = ServerConfig::new(&dir);
    cfg.queue_cap = 4;
    let server = start(&net, 4404, cfg);

    let mut fast: SessionClient<MText> = SessionClient::connect(&net, 4404).unwrap();
    let mut slow: SessionClient<MText> = SessionClient::connect(&net, 4404).unwrap();
    fast.attach(5).unwrap();
    slow.attach(5).unwrap();

    // `slow` never pumps: its broadcasts wait in its stream, and past
    // `queue_cap` of them the server cuts it loose. `fast` keeps
    // committing the whole time.
    for i in 0..20 {
        assert!(matches!(
            fast.commit_with(5, |t| t.insert_str(0, format!("[{i}]")))
                .unwrap(),
            CommitOutcome::Committed { .. }
        ));
    }

    // Draining `slow` now ends in the server's shutdown notice.
    let err = loop {
        match slow.pump(Duration::from_secs(1)) {
            Ok(true) => continue,
            Ok(false) => panic!("slow consumer never saw the disconnect"),
            Err(e) => break e,
        }
    };
    match err {
        ClientError::Shutdown(reason) => assert_eq!(reason, SLOW_CONSUMER_REASON),
        other => panic!("expected slow-consumer shutdown, got {other:?}"),
    }

    // The fast client is unaffected.
    assert!(matches!(
        fast.commit_with(5, |t| t.insert_str(0, "[after]")).unwrap(),
        CommitOutcome::Committed { .. }
    ));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscriber that claims to have read everything the server will ever
/// send it, in the bytes of the ack the protocol no longer has
/// (`Ack { upto: u64::MAX }`, tag 3), and then reads nothing is cut off
/// within `queue_cap + 2` messages, like any reader that fell behind.
#[test]
fn an_ack_ahead_subscriber_that_never_reads_is_disconnected() {
    const QUEUE_CAP: usize = 4;
    let net = Network::new();
    let dir = tmpdir("ack-ahead");
    let mut cfg = ServerConfig::new(&dir);
    cfg.queue_cap = QUEUE_CAP;
    let server = start(&net, 4405, cfg);

    let raw = net.connect(4405).unwrap();
    let send = |payload: &[u8]| {
        let mut framed = Vec::new();
        encode_frame(payload, &mut framed);
        raw.send(&framed).unwrap();
    };
    let recv = || {
        let reply = raw.recv_timeout(Duration::from_secs(10));
        let reply = reply.expect("the server answers or closes the stream");
        let (payload, _) = decode_frame(&reply).unwrap();
        ServerMsg::from_bytes(payload).unwrap()
    };
    send(&ClientMsg::Attach { session: 6 }.to_bytes());
    assert!(matches!(recv(), ServerMsg::Attached { session: 6, .. }));
    let mut ack = BytesMut::new();
    ack.put_u8(3);
    put_varint(&mut ack, u64::MAX);
    send(&ack);

    let mut fast: SessionClient<MText> = SessionClient::connect(&net, 4405).unwrap();
    fast.attach(6).unwrap();
    for i in 0..20 {
        assert!(matches!(
            fast.commit_with(6, |t| t.insert_str(0, format!("[{i}]")))
                .unwrap(),
            CommitOutcome::Committed { .. }
        ));
    }

    let mut delivered = 0;
    let reason = loop {
        match recv() {
            ServerMsg::Shutdown { reason } => break reason,
            _ => delivered += 1,
        }
        assert!(
            delivered <= QUEUE_CAP + 1,
            "still subscribed after {delivered} messages past the attach"
        );
    };
    assert!(
        reason == SLOW_CONSUMER_REASON || reason.starts_with("bad client message"),
        "{reason:?}"
    );
    assert_eq!(
        raw.recv_timeout(Duration::from_secs(10)),
        Err(NetError::Closed)
    );

    // The other subscriber is unaffected.
    assert!(matches!(
        fast.commit_with(6, |t| t.insert_str(0, "[after]")).unwrap(),
        CommitOutcome::Committed { .. }
    ));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
