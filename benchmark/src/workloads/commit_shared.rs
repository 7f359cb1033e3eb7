//! `commit_shared`: one blocking `SessionClient::commit_with` through
//! `sm-server` — the only path through `sm-net`, `sm-codec` and the
//! `sm-store` write side.
//!
//! One generator thread drives two connections, A and B, both attached
//! to every session. Each session receives its commits consecutively,
//! A and B alternating, so the committer is always exactly one foreign
//! commit behind: it has not pumped the other side's broadcast yet, the
//! server rebases its ops over that commit, and the broadcast it missed
//! is applied to its mirror while it waits for its own `Committed`.
//!
//! The **shadow session** replays, after the timed ops, the identical
//! payloads of some sessions through the same public calls
//! `shard.rs::handle_commit` and `client.rs` make, one span per call.
//! Its state must end on the digest the real mirrors reached; in the
//! traced run its spans are the commit ledger.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use spawn_merge::codec::session::{ClientMsg, ServerMsg};
use spawn_merge::codec::{Decode, Encode};
use spawn_merge::net::frame::{decode_frame, encode_frame};
use spawn_merge::net::Network;
use spawn_merge::obs::TaskPath;
use spawn_merge::server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use spawn_merge::{FsyncPolicy, MText, Mergeable, Persist, Store, StoreOptions};

use crate::gen::{fnv, state_digest, Fnv, Lcg};
use crate::harness::{Failures, Layers, Workload};
use crate::trace::{Span, Tracer, NO_PARENT};

/// Final workload parameters (recorded in the README's env block).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Measured sessions per round.
    pub sessions: usize,
    /// Extra sessions that take the warm-up commits of set-up.
    pub warm_sessions: usize,
    /// Commits per session, A and B alternating.
    pub commits_per_session: usize,
    /// Edits per commit: three inserts to every delete.
    pub edits_per_commit: usize,
    /// Characters of the genesis document every session starts from.
    pub genesis_chars: usize,
    /// Traced run: every n-th session is replayed through the shadow
    /// (the untraced run replays session 0 only, as an output check).
    pub shadow_every: usize,
    /// Server shards (`ServerConfig::new` says 4; the box has 2 cores).
    pub shards: usize,
    /// Session-journal group commit, `FsyncPolicy::EveryN`.
    pub fsync_every_n: u32,
}

pub const PARAMS: Params = Params {
    sessions: 10,
    warm_sessions: 2,
    commits_per_session: 128,
    edits_per_commit: 128,
    genesis_chars: 4096,
    shadow_every: 8,
    shards: 2,
    fsync_every_n: 1024,
};

const PORT: u16 = 4600;
const FIRST_SESSION: u64 = 0x1000;
/// Edits land in the first `genesis_chars − EDIT_MARGIN` characters.
/// Every commit inserts more than it deletes, so a document never gets
/// shorter than its genesis and every generated position stays valid
/// whatever the other side committed meanwhile — inputs are a pure
/// function of the seed.
const EDIT_MARGIN: usize = 64;

/// One generated edit: a delete of `del` characters at `pos`, or (when
/// `del` is 0) an insert of `text[..len]` there.
#[derive(Debug, Clone, Copy)]
struct Edit {
    pos: u32,
    del: u8,
    len: u8,
    text: [u8; 3],
}

fn apply_edits(doc: &mut MText, edits: &[Edit]) {
    for e in edits {
        if e.del > 0 {
            doc.delete_range(e.pos as usize, e.del as usize);
        } else {
            let text = std::str::from_utf8(&e.text[..e.len as usize]).expect("ascii");
            doc.insert_str(e.pos as usize, text);
        }
    }
}

fn session_id(index: usize) -> u64 {
    FIRST_SESSION + index as u64
}

/// The live server of one round.
struct Live {
    dir: PathBuf,
    server: SessionServer,
    a: SessionClient<MText>,
    b: SessionClient<MText>,
    net: Network,
    lag_sum: u64,
    commits: u64,
}

pub struct CommitShared {
    p: Params,
    scratch: PathBuf,
    genesis: String,
    /// `(sessions + warm_sessions) × commits × edits`, flat.
    script: Vec<Edit>,
    input_digest: u64,
    round: u64,
    next_op: u64,
    live: Option<Live>,
}

impl CommitShared {
    pub fn new(seed: u64, scratch: PathBuf) -> Self {
        Self::with_params(seed, scratch, PARAMS)
    }

    pub fn with_params(seed: u64, scratch: PathBuf, p: Params) -> Self {
        let mut text = Lcg::stream(seed, 0x7e87);
        let genesis: String = (0..p.genesis_chars)
            .map(|_| match text.below(6) {
                0 => ' ',
                _ => (b'a' + text.below(26) as u8) as char,
            })
            .collect();

        let span = p.genesis_chars - EDIT_MARGIN;
        let commits = (p.sessions + p.warm_sessions) * p.commits_per_session;
        let mut script = Vec::with_capacity(commits * p.edits_per_commit);
        let mut lcg = Lcg::stream(seed, 0xed17);
        for _ in 0..commits {
            for e in 0..p.edits_per_commit {
                let pos = lcg.below(span) as u32;
                let edit = if e % 4 == 3 {
                    Edit {
                        pos,
                        del: 1 + lcg.below(2) as u8,
                        len: 0,
                        text: [0; 3],
                    }
                } else {
                    let mut text = [0u8; 3];
                    text.fill_with(|| b'A' + lcg.below(26) as u8);
                    Edit {
                        pos,
                        del: 0,
                        len: 1 + lcg.below(3) as u8,
                        text,
                    }
                };
                script.push(edit);
            }
        }

        let mut digest = Fnv::default();
        digest.bytes(genesis.as_bytes());
        for e in &script {
            digest
                .u64(u64::from(e.pos))
                .bytes(&[e.del, e.len])
                .bytes(&e.text[..e.len as usize]);
        }
        CommitShared {
            p,
            scratch,
            genesis,
            script,
            input_digest: digest.0,
            round: 0,
            next_op: 0,
            live: None,
        }
    }

    fn edits(&self, session: usize, commit: usize) -> &[Edit] {
        let at = (session * self.p.commits_per_session + commit) * self.p.edits_per_commit;
        &self.script[at..at + self.p.edits_per_commit]
    }

    fn store_options(&self) -> StoreOptions {
        StoreOptions {
            fsync: FsyncPolicy::EveryN(self.p.fsync_every_n),
            ..StoreOptions::default()
        }
    }

    /// One blocking commit; `false` (and a counted failure) unless the
    /// server answered `Committed`.
    fn commit(&self, live: &mut Live, session: usize, commit: usize, f: &mut Failures) -> bool {
        let id = session_id(session);
        let client = if commit.is_multiple_of(2) {
            &mut live.a
        } else {
            &mut live.b
        };
        let base = client.seq(id).unwrap_or(0);
        let edits = self.edits(session, commit);
        match client.commit_with(id, |doc| apply_edits(doc, edits)) {
            Ok(CommitOutcome::Committed { seq }) => {
                live.lag_sum += seq - base - 1;
                live.commits += 1;
                true
            }
            Ok(CommitOutcome::Rejected(reason)) => {
                f.fail(|| format!("commit {commit} on session {session} rejected: {reason:?}"));
                false
            }
            Err(e) => {
                f.fail(|| format!("commit {commit} on session {session} failed: {e}"));
                false
            }
        }
    }
}

impl Workload for CommitShared {
    fn name(&self) -> &'static str {
        "commit_shared"
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn params(&self) -> String {
        format!("{:?}", self.p)
    }

    /// Scratch dir + `SessionServer::start` + 2 connects + all attaches
    /// (genesis, journal `begin`, state transfer) + the warm-up commits.
    fn setup(&mut self, _t: &mut Tracer, f: &mut Failures) {
        let dir = self.scratch.join(format!("commit-shared-{}", self.round));
        self.round += 1;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");

        let net = Network::new();
        let mut cfg = ServerConfig::new(&dir);
        cfg.shards = self.p.shards;
        cfg.idle_after = Duration::from_secs(3600);
        cfg.store.fsync = FsyncPolicy::EveryN(self.p.fsync_every_n);
        let genesis = self.genesis.clone();
        let server = SessionServer::start(&net, PORT, cfg, move || MText::from(genesis.as_str()))
            .expect("session server starts");
        let mut a = SessionClient::<MText>::connect(&net, PORT).expect("client A connects");
        let mut b = SessionClient::<MText>::connect(&net, PORT).expect("client B connects");
        let total = self.p.sessions + self.p.warm_sessions;
        for s in 0..total {
            for client in [&mut a, &mut b] {
                if let Err(e) = client.attach(session_id(s)) {
                    f.fail(|| format!("attach of session {s} failed: {e}"));
                }
            }
        }
        let mut live = Live {
            dir,
            server,
            a,
            b,
            net,
            lag_sum: 0,
            commits: 0,
        };
        for s in self.p.sessions..total {
            for c in 0..self.p.commits_per_session {
                self.commit(&mut live, s, c, f);
            }
        }
        live.lag_sum = 0;
        live.commits = 0;
        self.live = Some(live);
    }

    fn ops(&mut self, t: &mut Tracer, ops: &mut Vec<u64>, f: &mut Failures) {
        let mut live = self.live.take().expect("set-up ran");
        for s in 0..self.p.sessions {
            for c in 0..self.p.commits_per_session {
                t.set_op(self.next_op);
                self.next_op += 1;
                f.attempt();
                // Not `server.round_trip`: that metric is taken from the op
                // timer, not from a span that also pays the tracer.
                let span = t.begin("client.commit_with");
                let t0 = Instant::now();
                let ok = self.commit(&mut live, s, c, f);
                let took = t0.elapsed();
                t.end(span);
                if ok {
                    ops.push(took.as_nanos() as u64);
                }
            }
        }
        self.live = Some(live);
    }

    fn finish(&mut self, t: &mut Tracer, layers: &mut Layers, f: &mut Failures) -> u64 {
        let Live {
            dir,
            server,
            mut a,
            mut b,
            net,
            lag_sum,
            commits,
        } = self.live.take().expect("set-up ran");
        let p = self.p;
        let first_op = self.next_op - (p.sessions * p.commits_per_session) as u64;

        if t.is_on() {
            let pings: Vec<u64> = (0..200)
                .map(|_| {
                    let t0 = Instant::now();
                    let _ = a.ping();
                    t0.elapsed().as_nanos() as u64
                })
                .collect();
            layers.sample_median_ns("server.ping_rtt_ns", &pings);
        }
        // A pong trails every broadcast already queued for the client.
        for (name, client) in [("A", &mut a), ("B", &mut b)] {
            if let Err(e) = client.ping() {
                f.fail(|| format!("client {name} lost its connection: {e}"));
            }
        }
        let delivered = a.drain_commit_events().len() + b.drain_commit_events().len();
        let all_commits = (p.sessions + p.warm_sessions) * p.commits_per_session;
        layers.sample(
            "server.fanout_per_commit",
            delivered as f64 / all_commits as f64,
        );
        layers.sample(
            "client.rebase_lag_mean",
            lag_sum as f64 / commits.max(1) as f64,
        );
        let mut marks = Vec::new();
        if let Some(doc) = a.mirror(session_id(p.sessions - 1)) {
            doc.history_marks(&mut marks);
        }
        layers.sample(
            "client.history_ops_at_end",
            marks.first().copied().unwrap_or(0) as f64,
        );

        // A, B and a fresh third attach must share one digest per session.
        let mut digests = Vec::with_capacity(p.sessions);
        match SessionClient::<MText>::connect(&net, PORT) {
            Ok(mut c) => {
                for s in 0..p.sessions {
                    let id = session_id(s);
                    if let Err(e) = c.attach(id) {
                        f.fail(|| format!("third attach of session {s} failed: {e}"));
                    }
                    let (da, db, dc) = (a.state_digest(id), b.state_digest(id), c.state_digest(id));
                    if da.is_none() || da != db || da != dc {
                        f.fail(|| format!("session {s} diverged: A {da:x?} B {db:x?} C {dc:x?}"));
                    }
                    digests.push(da.unwrap_or(0));
                }
            }
            Err(e) => f.fail(|| format!("third client cannot connect: {e}")),
        }
        drop((a, b));
        server.shutdown();

        // Durability from flushed bytes only: every journal recovers to
        // the digest the mirrors converged on.
        for (s, expected) in digests.iter().enumerate() {
            let journal = dir.join(format!("session-{:016x}", session_id(s)));
            let recovered = Store::open(journal, self.store_options())
                .and_then(|store| store.recover::<MText>());
            match recovered {
                Ok(Some(r)) if state_digest(&r.data) == *expected => {}
                Ok(Some(_)) => f.fail(|| format!("session {s} recovered to another digest")),
                Ok(None) => f.fail(|| format!("session {s} left no journal")),
                Err(e) => f.fail(|| format!("session {s} failed to recover: {e}")),
            }
        }

        // The shadow replica: same payloads, same calls, same digest.
        let every = if t.is_on() {
            p.shadow_every
        } else {
            p.sessions
        };
        for s in (0..p.sessions).step_by(every.max(1)) {
            let first = first_op + (s * p.commits_per_session) as u64;
            match self.shadow_session(t, &dir, s, first) {
                Ok(stats) => {
                    if digests.get(s) != Some(&stats.digest) {
                        f.fail(|| format!("shadow of session {s} ended on another digest"));
                    }
                    layers.sample(
                        "codec.wire_bytes_per_commit",
                        stats.wire_bytes as f64 / p.commits_per_session as f64,
                    );
                }
                Err(e) => f.fail(|| format!("shadow of session {s}: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        let mut out = Fnv::default();
        for d in &digests {
            out.u64(*d);
        }
        out.0
    }
}

/// A shadow client mirror — `client.rs::Mirror`, field for field.
struct ShadowMirror {
    data: MText,
    seq: u64,
    marks: Vec<usize>,
    /// Framed broadcasts delivered but not pumped yet.
    inbox: VecDeque<Vec<u8>>,
}

impl ShadowMirror {
    fn recapture(&mut self) {
        self.data.seal_history();
        self.marks.clear();
        self.data.history_marks(&mut self.marks);
    }
}

struct ShadowStats {
    digest: u64,
    wire_bytes: usize,
}

impl CommitShared {
    /// Replay every commit of one session through the public calls the
    /// server and the client make, one span per call. The spans directly
    /// under `shadow.commit` are the op's ledger.
    fn shadow_session(
        &self,
        t: &mut Tracer,
        dir: &std::path::Path,
        session: usize,
        first_op: u64,
    ) -> Result<ShadowStats, String> {
        let p = self.p;
        let id = session_id(session);
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

        // shard.rs::open_session
        let store = Store::open(dir.join(format!("shadow-{session}")), self.store_options())
            .map_err(|e| err("open", &e))?;
        let mut data = MText::from(self.genesis.as_str());
        store.begin(&data).map_err(|e| err("begin", &e))?;
        let mut seq = 0u64;
        let mut marks = Vec::new();
        data.seal_history();
        data.history_marks(&mut marks);
        let mut ring: VecDeque<(u64, MText)> = VecDeque::from([(seq, data.fork())]);
        let ring_cap = ServerConfig::new(dir).ring.max(1);

        // client.rs::apply(Attached)
        let mut state = BytesMut::new();
        data.encode_state(&mut state);
        let mut mirrors: Vec<ShadowMirror> = Vec::new();
        for _ in 0..2 {
            let mut buf = Bytes::copy_from_slice(state.as_slice());
            let mut m = ShadowMirror {
                data: MText::decode_state(&mut buf).map_err(|e| err("state", &e))?,
                seq,
                marks: Vec::new(),
                inbox: VecDeque::new(),
            };
            m.recapture();
            mirrors.push(m);
        }

        let mut wire_bytes = 0usize;
        for c in 0..p.commits_per_session {
            let who = c % 2;
            t.set_op(first_op + c as u64);
            let op = t.begin("shadow.commit");

            // --- client.rs::commit_with ---------------------------------
            let s = t.begin("mergeable.client_build");
            let s2 = t.begin("mergeable.client_clone");
            let mut work = mirrors[who].data.clone();
            t.end(s2);
            apply_edits(&mut work, self.edits(session, c));
            work.seal_history();
            let mut buf = BytesMut::new();
            let mut cursor = 0usize;
            work.encode_committed_since(&mirrors[who].marks, &mut cursor, &mut buf);
            let msg = ClientMsg::Commit {
                session: id,
                base_seq: mirrors[who].seq,
                ops: buf.to_vec(),
            };
            drop(work);
            t.end(s);
            let s = t.begin("codec.commit_encode");
            let payload = msg.to_bytes();
            t.end(s);
            let s = t.begin("net.frame_encode");
            let mut framed = Vec::new();
            encode_frame(&payload, &mut framed);
            t.end(s);
            wire_bytes += framed.len();

            // --- client.rs::handle_raw, the broadcast it had missed ------
            while let Some(raw) = mirrors[who].inbox.pop_front() {
                pump(t, &mut mirrors[who], &raw)?;
            }

            // --- lib.rs::decode_client_frame ----------------------------
            let s = t.begin("net.frame_decode");
            let (payload, _) = decode_frame(&framed).map_err(|e| err("frame", &e))?;
            t.end(s);
            let s = t.begin("codec.commit_decode");
            let msg = ClientMsg::from_bytes(payload).map_err(|e| err("decode", &e))?;
            t.end(s);
            let ClientMsg::Commit { base_seq, ops, .. } = msg else {
                return Err("decoded another message".into());
            };

            // --- shard.rs::handle_commit --------------------------------
            let Some((_, base)) = ring.iter().find(|(s, _)| *s == base_seq) else {
                return Err(format!("base {base_seq} fell off the ring"));
            };
            let s = t.begin("mergeable.base_clone");
            let mut work = base.clone();
            t.end(s);
            let s = t.begin("mergeable.apply_log");
            let mut buf = Bytes::from(ops);
            work.apply_log(&mut buf).map_err(|e| err("apply", &e))?;
            t.end(s);
            let s = t.begin("mergeable.head_clone");
            let mut next = data.clone();
            t.end(s);
            let s = t.begin("mergeable.merge");
            next.merge(&work).map_err(|e| err("merge", &e))?;
            t.end(s);
            seq += 1;
            let s = t.begin("store.commit");
            store
                .commit(&next, &TaskPath::root().child(seq))
                .map_err(|e| err("journal", &e))?;
            t.end(s);
            data = next;
            let s = t.begin("mergeable.slice_encode");
            data.seal_history();
            let mut slice = BytesMut::new();
            let mut cursor = 0usize;
            data.encode_committed_since(&marks, &mut cursor, &mut slice);
            let slice = slice.to_vec();
            t.end(s);
            let s = t.begin("mergeable.ring_fork");
            data.seal_history();
            marks.clear();
            data.history_marks(&mut marks);
            ring.push_back((seq, data.fork()));
            while ring.len() > ring_cap {
                ring.pop_front();
            }
            t.end(s);
            // Session::broadcast: subscribers in attach order, A then B.
            for (sub, mirror) in mirrors.iter_mut().enumerate() {
                let s = t.begin("codec.bcast_encode");
                let payload = ServerMsg::Committed {
                    session: id,
                    seq,
                    applied: sub == who,
                    ops: slice.clone(),
                }
                .to_bytes();
                t.end(s);
                let s = t.begin("net.frame_encode");
                let mut framed = Vec::new();
                encode_frame(&payload, &mut framed);
                t.end(s);
                wire_bytes += framed.len();
                mirror.inbox.push_back(framed);
            }

            // --- client.rs::handle_raw, its own `Committed` --------------
            let raw = mirrors[who]
                .inbox
                .pop_front()
                .ok_or("own broadcast missing")?;
            pump(t, &mut mirrors[who], &raw)?;
            t.end(op);
        }
        for m in &mut mirrors {
            while let Some(raw) = m.inbox.pop_front() {
                pump(&mut Tracer::off(), m, &raw)?;
            }
        }
        let digest = state_digest(&data);
        if mirrors.iter().any(|m| state_digest(&m.data) != digest) {
            return Err("shadow mirrors diverged from the shadow head".into());
        }
        Ok(ShadowStats { digest, wire_bytes })
    }
}

/// `client.rs::handle_raw` + `apply(Committed)` on a shadow mirror.
fn pump(t: &mut Tracer, m: &mut ShadowMirror, raw: &[u8]) -> Result<(), String> {
    let s = t.begin("net.frame_decode");
    let (payload, _) = decode_frame(raw).map_err(|e| format!("frame: {e}"))?;
    t.end(s);
    let s = t.begin("codec.bcast_decode");
    let msg = ServerMsg::from_bytes(payload).map_err(|e| format!("decode: {e}"))?;
    t.end(s);
    let ServerMsg::Committed { seq, ops, .. } = msg else {
        return Err("decoded another message".into());
    };
    let s = t.begin("mergeable.mirror_apply");
    let mut buf = Bytes::copy_from_slice(&ops);
    m.data
        .apply_log(&mut buf)
        .map_err(|e| format!("mirror: {e}"))?;
    m.seq = seq;
    m.recapture();
    std::hint::black_box(fnv(&ops));
    t.end(s);
    Ok(())
}

/// Each traced op's ledger sum: the spans directly under its
/// `shadow.commit`, added up.
pub fn ledger_sums(spans: &[Span]) -> Vec<u64> {
    let mut sums = std::collections::BTreeMap::<u32, u64>::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == "shadow.commit" {
            sums.insert(id as u32, 0);
        }
    }
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        if let Some(sum) = sums.get_mut(&s.parent) {
            *sum += s.dur();
        }
    }
    sums.into_values().collect()
}
