//! Session-scoped wire messages for the multi-tenant session server
//! (`sm-server`).
//!
//! A single connection can interleave traffic for many sessions, so every
//! message carries the session id it belongs to. Payloads (`state`, `ops`)
//! are opaque byte blobs produced by the [`Persist`] codec of the hosted
//! data type — the server never interprets them, it only rebases and
//! re-broadcasts, which keeps the wire protocol independent of the state
//! type a session hosts.
//!
//! [`Persist`]: https://docs.rs/sm-mergeable

use bytes::{BufMut, Bytes, BytesMut};

use crate::{get_blob, get_tag, put_blob, Decode, DecodeError, Encode};

/// Why the server rejected a client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The commit's base sequence number is older than the server's
    /// retained fork-base ring; the client must re-attach for a fresh
    /// state snapshot.
    StaleBase {
        /// The base the client committed against.
        base_seq: u64,
        /// The oldest base the server still holds.
        oldest_retained: u64,
    },
    /// The operation log could not be decoded or applied.
    BadOps(String),
    /// The command referenced a session this connection is not attached to.
    NotAttached,
}

impl Encode for RejectReason {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RejectReason::StaleBase {
                base_seq,
                oldest_retained,
            } => {
                buf.put_u8(0);
                base_seq.encode(buf);
                oldest_retained.encode(buf);
            }
            RejectReason::BadOps(msg) => {
                buf.put_u8(1);
                msg.encode(buf);
            }
            RejectReason::NotAttached => buf.put_u8(2),
        }
    }
}

impl Decode for RejectReason {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(RejectReason::StaleBase {
                base_seq: u64::decode(buf)?,
                oldest_retained: u64::decode(buf)?,
            }),
            1 => Ok(RejectReason::BadOps(String::decode(buf)?)),
            2 => Ok(RejectReason::NotAttached),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Client → server commands. All session-scoped variants carry the
/// session id explicitly so one connection can multiplex many sessions.
/// Tag 3 is retired (it was an ack of server messages): it decodes as an
/// unknown tag, like any other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Attach to (and subscribe to) `session`, creating or rehydrating it
    /// on the owning shard as needed. Answered by [`ServerMsg::Attached`].
    Attach {
        /// Session to attach to.
        session: u64,
    },
    /// Commit a local operation log made against the state at `base_seq`.
    /// The server rebases it over any commits in `(base_seq, now]` and
    /// broadcasts the rebased log to every subscriber.
    Commit {
        /// Session the ops belong to.
        session: u64,
        /// Server sequence number the ops were produced against.
        base_seq: u64,
        /// `encode_committed_since` bytes from the client's working copy.
        ops: Vec<u8>,
    },
    /// Unsubscribe from `session`. Answered by [`ServerMsg::Detached`].
    Detach {
        /// Session to detach from.
        session: u64,
    },
    /// Liveness probe. Answered by [`ServerMsg::Pong`].
    Ping,
}

impl Encode for ClientMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ClientMsg::Attach { session } => {
                buf.put_u8(0);
                session.encode(buf);
            }
            ClientMsg::Commit {
                session,
                base_seq,
                ops,
            } => {
                buf.put_u8(1);
                session.encode(buf);
                base_seq.encode(buf);
                put_blob(buf, ops);
            }
            ClientMsg::Detach { session } => {
                buf.put_u8(2);
                session.encode(buf);
            }
            ClientMsg::Ping => buf.put_u8(4),
        }
    }
}

impl Decode for ClientMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(ClientMsg::Attach {
                session: u64::decode(buf)?,
            }),
            1 => Ok(ClientMsg::Commit {
                session: u64::decode(buf)?,
                base_seq: u64::decode(buf)?,
                ops: get_blob(buf)?.to_vec(),
            }),
            2 => Ok(ClientMsg::Detach {
                session: u64::decode(buf)?,
            }),
            4 => Ok(ClientMsg::Ping),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Server → client messages. Nothing acknowledges them: the server's
/// back-pressure is the depth of the connection's outbound stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Attach succeeded: here is the full state snapshot at `seq`.
    Attached {
        /// Session attached to.
        session: u64,
        /// Server sequence number of the snapshot.
        seq: u64,
        /// `encode_state` bytes of the authoritative state.
        state: Vec<u8>,
    },
    /// A commit landed on the session (the committer's own, or another
    /// subscriber's). `ops` is the rebased committed log slice; applying
    /// it via `apply_log` advances a mirror of `seq - 1` to `seq`.
    Committed {
        /// Session the commit landed on.
        session: u64,
        /// New server sequence number after this commit.
        seq: u64,
        /// True on the copy delivered to the connection that committed.
        applied: bool,
        /// Rebased committed ops (`encode_committed_since` wire format).
        ops: Vec<u8>,
    },
    /// A command was rejected; the session state is unchanged.
    Rejected {
        /// Session the rejected command targeted.
        session: u64,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// Detach acknowledged; no further broadcasts for this session.
    Detached {
        /// Session detached from.
        session: u64,
    },
    /// Answer to [`ClientMsg::Ping`].
    Pong,
    /// The server is closing this connection.
    Shutdown {
        /// Human-readable reason (e.g. "slow consumer", "server stopping").
        reason: String,
    },
}

impl Encode for ServerMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ServerMsg::Attached {
                session,
                seq,
                state,
            } => {
                buf.put_u8(0);
                session.encode(buf);
                seq.encode(buf);
                put_blob(buf, state);
            }
            ServerMsg::Committed {
                session,
                seq,
                applied,
                ops,
            } => {
                buf.put_u8(1);
                session.encode(buf);
                seq.encode(buf);
                applied.encode(buf);
                put_blob(buf, ops);
            }
            ServerMsg::Rejected { session, reason } => {
                buf.put_u8(2);
                session.encode(buf);
                reason.encode(buf);
            }
            ServerMsg::Detached { session } => {
                buf.put_u8(3);
                session.encode(buf);
            }
            ServerMsg::Pong => buf.put_u8(4),
            ServerMsg::Shutdown { reason } => {
                buf.put_u8(5);
                reason.encode(buf);
            }
        }
    }
}

impl Decode for ServerMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(ServerMsg::Attached {
                session: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                state: get_blob(buf)?.to_vec(),
            }),
            1 => Ok(ServerMsg::Committed {
                session: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                applied: bool::decode(buf)?,
                ops: get_blob(buf)?.to_vec(),
            }),
            2 => Ok(ServerMsg::Rejected {
                session: u64::decode(buf)?,
                reason: RejectReason::decode(buf)?,
            }),
            3 => Ok(ServerMsg::Detached {
                session: u64::decode(buf)?,
            }),
            4 => Ok(ServerMsg::Pong),
            5 => Ok(ServerMsg::Shutdown {
                reason: String::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn client_msgs_roundtrip() {
        roundtrip(&ClientMsg::Attach { session: 7 });
        roundtrip(&ClientMsg::Commit {
            session: u64::MAX,
            base_seq: 12345,
            ops: vec![0, 1, 2, 255],
        });
        roundtrip(&ClientMsg::Commit {
            session: 0,
            base_seq: 0,
            ops: Vec::new(),
        });
        roundtrip(&ClientMsg::Detach { session: 3 });
        roundtrip(&ClientMsg::Ping);
    }

    #[test]
    fn server_msgs_roundtrip() {
        roundtrip(&ServerMsg::Attached {
            session: 9,
            seq: 42,
            state: vec![7; 300],
        });
        roundtrip(&ServerMsg::Committed {
            session: 9,
            seq: 43,
            applied: true,
            ops: vec![1, 2, 3],
        });
        roundtrip(&ServerMsg::Committed {
            session: 9,
            seq: 44,
            applied: false,
            ops: Vec::new(),
        });
        roundtrip(&ServerMsg::Rejected {
            session: 9,
            reason: RejectReason::StaleBase {
                base_seq: 3,
                oldest_retained: 10,
            },
        });
        roundtrip(&ServerMsg::Rejected {
            session: 9,
            reason: RejectReason::BadOps("bad tag 9".into()),
        });
        roundtrip(&ServerMsg::Rejected {
            session: 9,
            reason: RejectReason::NotAttached,
        });
        roundtrip(&ServerMsg::Detached { session: 9 });
        roundtrip(&ServerMsg::Pong);
        roundtrip(&ServerMsg::Shutdown {
            reason: "slow consumer".into(),
        });
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(ClientMsg::from_bytes(&[99]), Err(DecodeError::BadTag(99)));
        assert_eq!(ServerMsg::from_bytes(&[200]), Err(DecodeError::BadTag(200)));
        assert_eq!(
            RejectReason::from_bytes(&[77]),
            Err(DecodeError::BadTag(77))
        );
    }

    #[test]
    fn truncated_blobs_fail_cleanly() {
        // Commit with a blob length prefix larger than the remaining bytes.
        let msg = ClientMsg::Commit {
            session: 1,
            base_seq: 2,
            ops: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ClientMsg::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = ClientMsg::Ping.to_bytes().to_vec();
        bytes.push(0xAB);
        assert!(matches!(
            ClientMsg::from_bytes(&bytes),
            Err(DecodeError::BadLength(_))
        ));
    }
}
