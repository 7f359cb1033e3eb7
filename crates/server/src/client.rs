//! The client side: [`Mirrors`], the protocol, and [`SessionClient`],
//! its stream.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_codec::{Decode, DecodeError, Encode};
use sm_net::frame::{encode_frame, FrameError};
use sm_net::{NetError, Network, Stream};
use sm_store::Persist;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including the server closing the connection).
    Net(NetError),
    /// A server frame failed CRC or length validation.
    Frame(FrameError),
    /// A server message failed to decode.
    Decode(DecodeError),
    /// A broadcast slice failed to apply to the local mirror.
    Replay(String),
    /// The server sent something this client did not expect (e.g. a
    /// broadcast for a session it never attached).
    Protocol(String),
    /// The server closed the connection with a reason.
    Shutdown(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "client network error: {e}"),
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Decode(e) => write!(f, "client decode error: {e}"),
            ClientError::Replay(e) => write!(f, "mirror replay failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::Shutdown(reason) => write!(f, "server shut us down: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// Outcome of [`SessionClient::commit_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The commit landed; the mirror now reflects sequence `seq`.
    Committed {
        /// The session's new commit sequence.
        seq: u64,
    },
    /// The server rejected the commit; the mirror is unchanged (beyond
    /// any other subscribers' commits that arrived meanwhile).
    Rejected(RejectReason),
}

/// One applied `Committed` broadcast, as observed by this client — the
/// subscriber-side twin of the server's `session_committed` event.
/// Feeding these into a client-side `DeterminismAuditor` and diffing its
/// chain heads against the server's is the convergence assertion the
/// multi-tenant workload runs: equal heads ⟺ this subscriber applied
/// exactly the committed stream, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// The session the broadcast belonged to.
    pub session: u64,
    /// The commit sequence the mirror advanced to.
    pub seq: u64,
    /// Operations applied from the broadcast slice.
    pub ops: usize,
    /// FNV-1a digest of the raw broadcast bytes.
    pub digest: u64,
}

struct Mirror<D> {
    data: D,
    seq: u64,
    /// History marks at the mirror's current head: the watermark its
    /// retained history is truncated to.
    marks: Vec<usize>,
}

impl<D: Persist> Mirror<D> {
    /// Seal the head and drop the history below it. Commits edit a fork
    /// taken at the head, so no live fork ever needs an older position;
    /// the marks keep counting absolutely.
    fn recapture(&mut self) {
        self.data.seal_history();
        self.marks.clear();
        self.data.history_marks(&mut self.marks);
        self.data.truncate_history(&self.marks, &mut 0);
    }
}

/// The client's half of the protocol, without a stream: one **mirror**
/// per attached session — a copy of the authoritative state advanced
/// *only* by the server's `Committed` broadcast slices, in sequence
/// order, as [`on_msg`](Mirrors::on_msg) applies them. Edits never touch
/// a mirror: [`commit_msg`](Mirrors::commit_msg) forks it (O(1), empty
/// log), applies the caller's edit to the fork, and ships the fork's
/// log; the change lands back on the mirror via the broadcast, rebased,
/// like every other subscriber's. Nothing rebases against a mirror's own
/// history, so it is dropped after every applied broadcast: a commit
/// costs what the edit costs, however old the session is. Two clients
/// of a session therefore converge to bit-identical mirrors, which
/// [`state_digest`](Mirrors::state_digest) witnesses. Nothing answers a
/// server message: the server learns how far a client has read from the
/// depth of its stream.
pub struct Mirrors<D> {
    mirrors: HashMap<u64, Mirror<D>>,
    commit_events: Vec<CommitEvent>,
    /// The reason of the server's `Shutdown`, once one arrived.
    shutdown: Option<String>,
}

impl<D> Default for Mirrors<D> {
    fn default() -> Self {
        Mirrors {
            mirrors: HashMap::new(),
            commit_events: Vec::new(),
            shutdown: None,
        }
    }
}

impl<D: Persist> Mirrors<D> {
    /// Apply one server message.
    pub fn on_msg(&mut self, msg: &ServerMsg) -> Result<(), ClientError> {
        match msg {
            ServerMsg::Attached {
                session,
                seq,
                state,
            } => {
                let mut buf = Bytes::copy_from_slice(state);
                let data = D::decode_state(&mut buf).map_err(ClientError::Decode)?;
                let mut mirror = Mirror {
                    data,
                    seq: *seq,
                    marks: Vec::new(),
                };
                mirror.recapture();
                self.mirrors.insert(*session, mirror);
            }
            ServerMsg::Committed {
                session, seq, ops, ..
            } => {
                if let Some(mirror) = self.mirrors.get_mut(session) {
                    let mut buf = Bytes::copy_from_slice(ops);
                    let applied = mirror
                        .data
                        .apply_log(&mut buf)
                        .map_err(|e| ClientError::Replay(e.to_string()))?;
                    mirror.seq = *seq;
                    mirror.recapture();
                    self.commit_events.push(CommitEvent {
                        session: *session,
                        seq: *seq,
                        ops: applied,
                        digest: sm_obs::fnv1a(ops),
                    });
                }
            }
            ServerMsg::Detached { session } => {
                self.mirrors.remove(session);
            }
            ServerMsg::Shutdown { reason } => {
                self.shutdown = Some(reason.clone());
            }
            ServerMsg::Rejected { .. } | ServerMsg::Pong => {}
        }
        Ok(())
    }

    /// The commit of `edit` to `session`: `edit` runs on a fork of the
    /// mirror, and the message carries the fork's log against the
    /// mirror's seq. The mirror itself changes only when the commit's
    /// broadcast arrives.
    pub fn commit_msg(
        &self,
        session: u64,
        edit: impl FnOnce(&mut D),
    ) -> Result<ClientMsg, ClientError> {
        let mirror = self.mirrors.get(&session).ok_or_else(|| {
            ClientError::Protocol(format!("commit on unattached session {session}"))
        })?;
        let mut work = mirror.data.fork();
        edit(&mut work);
        // The fork's log starts empty: its whole log is the commit.
        let mut ops = BytesMut::new();
        work.encode_log(&mut ops);
        Ok(ClientMsg::Commit {
            session,
            base_seq: mirror.seq,
            ops: ops.into(),
        })
    }

    /// The mirror of an attached session.
    pub fn mirror(&self, session: u64) -> Option<&D> {
        self.mirrors.get(&session).map(|m| &m.data)
    }

    /// The mirror's commit sequence for an attached session.
    pub fn seq(&self, session: u64) -> Option<u64> {
        self.mirrors.get(&session).map(|m| m.seq)
    }

    /// FNV-1a digest of the mirror's encoded state — the convergence
    /// witness the multi-tenant tests compare across subscribers.
    pub fn state_digest(&self, session: u64) -> Option<u64> {
        self.mirrors.get(&session).map(|m| {
            let mut buf = BytesMut::new();
            m.data.encode_state(&mut buf);
            sm_obs::fnv1a(&buf)
        })
    }

    /// Drain the log of applied `Committed` broadcasts accumulated since
    /// the last drain, in application order.
    pub fn drain_commit_events(&mut self) -> Vec<CommitEvent> {
        std::mem::take(&mut self.commit_events)
    }
}

/// A blocking client of a [`SessionServer`](crate::SessionServer),
/// multiplexing any number of attached sessions over one connection: a
/// stream plus the [`Mirrors`] it feeds, whose read-only methods
/// ([`mirror`](Mirrors::mirror), [`seq`](Mirrors::seq),
/// [`state_digest`](Mirrors::state_digest)) it derefs to.
pub struct SessionClient<D: Persist> {
    stream: Stream,
    mirrors: Mirrors<D>,
}

impl<D: Persist> Deref for SessionClient<D> {
    type Target = Mirrors<D>;

    fn deref(&self) -> &Mirrors<D> {
        &self.mirrors
    }
}

impl<D: Persist> SessionClient<D> {
    /// Connect to the server listening on `port` of `net`.
    pub fn connect(net: &Network, port: u16) -> Result<Self, ClientError> {
        Ok(SessionClient {
            stream: net.connect(port)?,
            mirrors: Mirrors::default(),
        })
    }

    /// Attach to `session`, blocking until the state snapshot arrives.
    /// Returns the session's current commit sequence.
    pub fn attach(&mut self, session: u64) -> Result<u64, ClientError> {
        self.send(&ClientMsg::Attach { session })?;
        loop {
            match self.pump_blocking()? {
                ServerMsg::Attached {
                    session: s, seq, ..
                } if s == session => return Ok(seq),
                ServerMsg::Rejected { session: s, reason } if s == session => {
                    return Err(ClientError::Protocol(format!(
                        "attach rejected: {reason:?}"
                    )));
                }
                _ => {}
            }
        }
    }

    /// Detach from `session`, blocking for the acknowledgement, and drop
    /// its mirror.
    pub fn detach(&mut self, session: u64) -> Result<(), ClientError> {
        self.send(&ClientMsg::Detach { session })?;
        loop {
            if let ServerMsg::Detached { session: s } = self.pump_blocking()? {
                if s == session {
                    return Ok(());
                }
            }
        }
    }

    /// Edit `session` and commit the result, blocking until the server
    /// confirms or rejects. `edit` runs on a fork of the mirror; the
    /// ops it records are shipped, rebased server-side over anything
    /// committed since this mirror's head, and land back here via the
    /// broadcast (so after `Committed` the mirror includes the edit in
    /// its rebased form).
    pub fn commit_with(
        &mut self,
        session: u64,
        edit: impl FnOnce(&mut D),
    ) -> Result<CommitOutcome, ClientError> {
        let commit = self.mirrors.commit_msg(session, edit)?;
        self.send(&commit)?;
        loop {
            match self.pump_blocking()? {
                ServerMsg::Committed {
                    session: s,
                    seq,
                    applied: true,
                    ..
                } if s == session => return Ok(CommitOutcome::Committed { seq }),
                ServerMsg::Rejected { session: s, reason } if s == session => {
                    return Ok(CommitOutcome::Rejected(reason))
                }
                _ => {}
            }
        }
    }

    /// Process at most one pending server message. `Ok(true)` if one was
    /// processed, `Ok(false)` on timeout.
    pub fn pump(&mut self, timeout: Duration) -> Result<bool, ClientError> {
        match self.stream.recv_timeout(timeout) {
            Ok(raw) => {
                self.handle_raw(&raw)?;
                Ok(true)
            }
            Err(NetError::Timeout) => Ok(false),
            Err(e) => Err(self.closed_reason(e)),
        }
    }

    /// Drain every already-queued server message without blocking
    /// longer than `timeout` per message. Returns how many were
    /// processed.
    pub fn pump_all(&mut self, timeout: Duration) -> Result<usize, ClientError> {
        let mut n = 0;
        while self.pump(timeout)? {
            n += 1;
        }
        Ok(n)
    }

    /// Drain the log of applied `Committed` broadcasts accumulated since
    /// the last drain, in application order.
    pub fn drain_commit_events(&mut self) -> Vec<CommitEvent> {
        self.mirrors.drain_commit_events()
    }

    /// Send a ping and block until the pong comes back, applying the
    /// broadcasts that arrive first. The connection's reader thread
    /// answers the ping, so it orders only against messages already
    /// queued on this connection, not against shard work: a broadcast the
    /// shard has yet to send this client may arrive after the pong.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&ClientMsg::Ping)?;
        loop {
            if let ServerMsg::Pong = self.pump_blocking()? {
                return Ok(());
            }
        }
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        let mut framed = Vec::new();
        encode_frame(&msg.to_bytes(), &mut framed);
        self.stream.send(&framed).map_err(|e| self.closed_reason(e))
    }

    /// Receive, decode and apply one server message.
    fn pump_blocking(&mut self) -> Result<ServerMsg, ClientError> {
        let raw = self.stream.recv().map_err(|e| self.closed_reason(e))?;
        self.handle_raw(&raw)
    }

    /// Every closed-stream error after the server's `Shutdown` reports it.
    fn closed_reason(&self, e: NetError) -> ClientError {
        match (&e, &self.mirrors.shutdown) {
            (NetError::Closed, Some(reason)) => ClientError::Shutdown(reason.clone()),
            _ => ClientError::Net(e),
        }
    }

    fn handle_raw(&mut self, raw: &[u8]) -> Result<ServerMsg, ClientError> {
        let (payload, used) = sm_net::frame::decode_frame(raw).map_err(ClientError::Frame)?;
        if used != raw.len() {
            return Err(ClientError::Protocol("trailing bytes after frame".into()));
        }
        let msg = ServerMsg::from_bytes(payload).map_err(ClientError::Decode)?;
        self.mirrors.on_msg(&msg)?;
        Ok(msg)
    }
}
