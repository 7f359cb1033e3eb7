//! The shard loop: exclusive owner of its sessions' state, stores, and
//! subscriber lists.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_obs::{emit, fnv1a, start, EventKind, Phase, TaskPath};
use sm_store::{Persist, ReplayError, Store, StoreError};

use crate::conn::ConnShared;
use crate::ServerConfig;

/// How often a shard scans for evictable sessions, busy or idle.
pub const SHARD_TICK: Duration = Duration::from_millis(25);

/// Commands a shard receives from reader threads and the server handle.
pub enum ShardCmd {
    /// A session-scoped client message, with the connection it came from.
    Client {
        /// The originating connection.
        conn: Arc<ConnShared>,
        /// The decoded message (`Attach`, `Commit`, or `Detach`).
        msg: ClientMsg,
    },
    /// A connection closed; forget its subscriptions.
    Disconnect {
        /// The closed connection's id.
        conn_id: u64,
    },
    /// Orderly shutdown: evict every session, then exit.
    Stop,
}

/// One in-memory session: authoritative state, its fork-base ring, and
/// the subscriber fan-out list.
struct Session<D> {
    /// The head. Its retained history reaches back to the oldest ring
    /// base and no further (see [`Session::truncate_to_ring`]).
    data: D,
    /// Commit sequence number (equals the store's last appended seq).
    seq: u64,
    /// `(seq, fork)` bases for recent commits, oldest first. A commit
    /// whose `base_seq` fell off the front is rejected as stale. The back
    /// is always an unmodified fork of `data` at `seq` — the rollback
    /// target of a commit that fails after merging in place.
    ring: VecDeque<(u64, D)>,
    store: Store,
    subscribers: Vec<(u64, Arc<ConnShared>)>,
    last_active: Instant,
    path: TaskPath,
}

impl<D: Persist> Session<D> {
    /// Drop the head's history below the oldest ring base: a commit is
    /// only ever rebased over what was committed since its base, and no
    /// base older than the ring's front is accepted.
    fn truncate_to_ring(&mut self) {
        let Some((_, oldest)) = self.ring.front() else {
            return;
        };
        let mut watermark = Vec::new();
        oldest.fork_marks(&mut watermark);
        let dropped = self.data.truncate_history(&watermark, &mut 0);
        if dropped > 0 {
            emit(&self.path, || EventKind::LogTruncated { dropped });
        }
    }

    /// Fan a landed commit out to every live subscriber, dropping dead
    /// ones. One message owns the slice; only `applied` differs per copy.
    fn broadcast_commit(&mut self, session: u64, seq: u64, committer: u64, ops: Vec<u8>) {
        let mut msg = ServerMsg::Committed {
            session,
            seq,
            applied: false,
            ops,
        };
        self.subscribers.retain(|(conn_id, conn)| {
            if let ServerMsg::Committed { applied, .. } = &mut msg {
                *applied = *conn_id == committer;
            }
            conn.send_msg(&msg)
        });
    }
}

/// The shard thread body: drain commands, evict idle sessions on ticks.
/// A tick is time since the last scan, not an empty queue: a busy shard
/// still evicts, and does not walk every session per command.
pub(crate) fn shard_loop<D: Persist + 'static>(
    shard: u64,
    rx: Receiver<ShardCmd>,
    cfg: Arc<ServerConfig>,
    factory: Arc<dyn Fn() -> D + Send + Sync>,
) {
    let mut sessions: HashMap<u64, Session<D>> = HashMap::new();
    let mut last_scan = Instant::now();
    loop {
        match rx.recv_timeout(SHARD_TICK) {
            Ok(ShardCmd::Client { conn, msg }) => {
                dispatch(shard, &mut sessions, &cfg, &factory, conn, msg)
            }
            Ok(ShardCmd::Disconnect { conn_id }) => {
                for sess in sessions.values_mut() {
                    if sess.subscribers.iter().any(|(id, _)| *id == conn_id) {
                        sess.subscribers.retain(|(id, _)| *id != conn_id);
                        sess.last_active = Instant::now();
                    }
                }
            }
            Ok(ShardCmd::Stop) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if last_scan.elapsed() >= SHARD_TICK {
            evict_idle(shard, &mut sessions, &cfg, false);
            last_scan = Instant::now();
        }
    }
    // Orderly shutdown: evict everything still resident.
    evict_idle(shard, &mut sessions, &cfg, true);
}

/// Handle one session-scoped client message under a `server_dispatch`
/// phase span.
fn dispatch<D: Persist + 'static>(
    shard: u64,
    sessions: &mut HashMap<u64, Session<D>>,
    cfg: &ServerConfig,
    factory: &Arc<dyn Fn() -> D + Send + Sync>,
    conn: Arc<ConnShared>,
    msg: ClientMsg,
) {
    let session_id = match &msg {
        ClientMsg::Attach { session }
        | ClientMsg::Commit { session, .. }
        | ClientMsg::Detach { session } => *session,
        // Ack/Ping are handled on the reader thread, never routed here.
        _ => return,
    };
    let span = start(Phase::ServerDispatch);
    let path = TaskPath::root().child(session_id);

    match msg {
        ClientMsg::Attach { session } => {
            handle_attach(shard, sessions, cfg, factory, conn, session)
        }
        ClientMsg::Commit {
            session,
            base_seq,
            ops,
        } => handle_commit(sessions, cfg, conn, session, base_seq, ops),
        ClientMsg::Detach { session } => {
            if let Some(sess) = sessions.get_mut(&session) {
                sess.subscribers.retain(|(id, _)| *id != conn.id());
                sess.last_active = Instant::now();
            }
            conn.send_msg(&ServerMsg::Detached { session });
        }
        _ => {}
    }

    if let Some(span) = span {
        span.finish(&path);
    }
}

fn handle_attach<D: Persist + 'static>(
    shard: u64,
    sessions: &mut HashMap<u64, Session<D>>,
    cfg: &ServerConfig,
    factory: &Arc<dyn Fn() -> D + Send + Sync>,
    conn: Arc<ConnShared>,
    session: u64,
) {
    let sess = match sessions.entry(session) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(slot) => match open_session(shard, cfg, factory, session) {
            Ok(sess) => slot.insert(sess),
            Err(e) => {
                conn.send_msg(&ServerMsg::Rejected {
                    session,
                    reason: RejectReason::BadOps(format!("session store: {e}")),
                });
                return;
            }
        },
    };
    sess.last_active = Instant::now();
    if !sess.subscribers.iter().any(|(id, _)| *id == conn.id()) {
        sess.subscribers.push((conn.id(), Arc::clone(&conn)));
    }
    emit(&sess.path, || EventKind::SessionAttached {
        session,
        shard,
        subscribers: sess.subscribers.len(),
    });
    let mut state = BytesMut::new();
    sess.data.encode_state(&mut state);
    conn.send_msg(&ServerMsg::Attached {
        session,
        seq: sess.seq,
        state: state.into(),
    });
}

/// Load a session into memory: rehydrate from its journal if one
/// exists, otherwise create it from the factory state.
fn open_session<D: Persist + 'static>(
    shard: u64,
    cfg: &ServerConfig,
    factory: &Arc<dyn Fn() -> D + Send + Sync>,
    session: u64,
) -> Result<Session<D>, StoreError> {
    let dir = cfg.dir.join(format!("session-{session:016x}"));
    let store = Store::open(dir, cfg.store.clone())?;
    let path = TaskPath::root().child(session);
    let data = match store.recover::<D>()? {
        Some(recovered) => {
            emit(&path, || EventKind::SessionRehydrated {
                session,
                shard,
                replayed_ops: recovered.replayed_ops as usize,
            });
            recovered.data
        }
        None => {
            let data = (factory)();
            store.begin(&data)?;
            emit(&path, || EventKind::SessionOpened { session, shard });
            data
        }
    };
    let seq = store.last_seq();
    let mut sess = Session {
        data,
        seq,
        ring: VecDeque::new(),
        store,
        subscribers: Vec::new(),
        last_active: Instant::now(),
        path,
    };
    sess.ring.push_back((seq, sess.data.fork()));
    // A rehydrated head carries its whole replayed journal as history.
    sess.truncate_to_ring();
    Ok(sess)
}

fn handle_commit<D: Persist>(
    sessions: &mut HashMap<u64, Session<D>>,
    cfg: &ServerConfig,
    conn: Arc<ConnShared>,
    session: u64,
    base_seq: u64,
    ops: Vec<u8>,
) {
    let Some(sess) = sessions.get_mut(&session) else {
        conn.send_msg(&ServerMsg::Rejected {
            session,
            reason: RejectReason::NotAttached,
        });
        return;
    };
    if !sess.subscribers.iter().any(|(id, _)| *id == conn.id()) {
        conn.send_msg(&ServerMsg::Rejected {
            session,
            reason: RejectReason::NotAttached,
        });
        return;
    }
    sess.last_active = Instant::now();

    // Locate the fork base the client's ops were made against.
    let Some((_, base)) = sess.ring.iter().find(|(s, _)| *s == base_seq) else {
        let oldest = sess.ring.front().map(|(s, _)| *s).unwrap_or(0);
        conn.send_msg(&ServerMsg::Rejected {
            session,
            reason: RejectReason::StaleBase {
                base_seq,
                oldest_retained: oldest,
            },
        });
        return;
    };

    // Merge the client's log in place, from that base's fork point: its
    // ops are checked against the base's state, without building the
    // child, and rebased over every commit in (base_seq, seq]. The store
    // journals the rebased slice and hands its bytes back for the
    // broadcast. The newest ring base is an unmodified fork of the head
    // at `sess.seq`, so any failure — a check, the merge, the append —
    // is undone by rolling back to it: state and history are as before.
    let mut buf = Bytes::from(ops);
    let journaled = sess
        .data
        .merge_log(base, &mut buf)
        .map_err(|e| match e {
            ReplayError::Merge(e) => format!("merge: {e}"),
            e => format!("apply: {e}"),
        })
        .and_then(|_| {
            sess.store
                .commit(&sess.data, &sess.path)
                .map_err(|e| format!("journal: {e}"))
        });
    let (slice, broadcast_ops) = match journaled {
        Ok(committed) => committed,
        Err(reason) => {
            let (_, head) = sess.ring.back().expect("the ring is never empty");
            sess.data.rollback_to(head);
            conn.send_msg(&ServerMsg::Rejected {
                session,
                reason: RejectReason::BadOps(reason),
            });
            return;
        }
    };

    // The commit is durable (and sealed by the store): fan it out.
    let seq = sess.seq + 1;
    sess.seq = seq;
    sess.ring.push_back((seq, sess.data.fork()));
    let ring = cfg.ring.max(1);
    while sess.ring.len() > ring {
        sess.ring.pop_front();
    }
    // Once per ring wrap, not per commit: the drain moves the whole
    // retained window, which therefore stays under two ring lengths.
    if seq % ring as u64 == 0 {
        sess.truncate_to_ring();
    }

    emit(&sess.path, || EventKind::SessionCommitted {
        session,
        seq,
        ops: broadcast_ops,
        digest: fnv1a(slice.as_slice()),
    });
    sess.broadcast_commit(session, seq, conn.id(), slice.to_vec());
}

/// Drop sessions that have no subscribers and have been idle past the
/// configured horizon (or all of them, on shutdown), snapshotting per
/// `snapshot_on_evict`.
fn evict_idle<D: Persist>(
    shard: u64,
    sessions: &mut HashMap<u64, Session<D>>,
    cfg: &ServerConfig,
    all: bool,
) {
    sessions.retain(|session, sess| {
        sess.subscribers.retain(|(_, conn)| !conn.is_dead());
        if !all && (!sess.subscribers.is_empty() || sess.last_active.elapsed() < cfg.idle_after) {
            return true;
        }
        if cfg.snapshot_on_evict {
            let _ = sess.store.snapshot(&sess.data);
        }
        let _ = sess.store.sync();
        emit(&sess.path, || EventKind::SessionEvicted {
            session: *session,
            shard,
        });
        false
    });
}
