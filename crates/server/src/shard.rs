//! The session core: [`Shard`], stepped by its caller.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use sm_codec::session::{ClientMsg, RejectReason, ServerMsg};
use sm_obs::{emit, fnv1a, EventKind, TaskPath};
use sm_store::{Persist, ReplayError, Store, StoreError};

use crate::ServerConfig;

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
    /// Subscribed connection ids, in attach order: the broadcast order.
    subscribers: Vec<u64>,
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
}

/// One shard of a [`SessionServer`](crate::SessionServer), stepped one
/// message at a time. Each step takes the time as `now`, connections are
/// plain ids, and a step pushes what it sends onto the caller's `out` as
/// `(connection id, message)`, in send order. The session stores stay
/// inside: a commit's journal append is its durability point. Dropping a
/// shard without [`stop`](Shard::stop) is a crash.
pub struct Shard<D> {
    id: u64,
    config: ServerConfig,
    factory: Box<dyn Fn() -> D + Send>,
    sessions: HashMap<u64, Session<D>>,
}

impl<D: Persist> Shard<D> {
    /// A shard holding no sessions. `id` names it in lifecycle events;
    /// `factory` makes the genesis state of a session that has no
    /// journal under `config.dir` yet.
    pub fn new(id: u64, config: ServerConfig, factory: impl Fn() -> D + Send + 'static) -> Self {
        Shard {
            id,
            config,
            factory: Box::new(factory),
            sessions: HashMap::new(),
        }
    }

    /// Handle one message from connection `conn`. `Ping` belongs to the
    /// connection, not to a session, and is ignored here.
    pub fn command(
        &mut self,
        now: Instant,
        conn: u64,
        msg: ClientMsg,
        out: &mut Vec<(u64, ServerMsg)>,
    ) {
        match msg {
            ClientMsg::Attach { session } => self.attach(now, conn, session, out),
            ClientMsg::Commit {
                session,
                base_seq,
                ops,
            } => self.handle_commit(now, conn, session, base_seq, ops, out),
            ClientMsg::Detach { session } => {
                if let Some(sess) = self.sessions.get_mut(&session) {
                    sess.subscribers.retain(|&id| id != conn);
                    sess.last_active = now;
                }
                out.push((conn, ServerMsg::Detached { session }));
            }
            ClientMsg::Ping => {}
        }
    }

    /// Connection `conn` closed: forget its subscriptions.
    pub fn disconnect(&mut self, now: Instant, conn: u64) {
        for sess in self.sessions.values_mut() {
            if sess.subscribers.contains(&conn) {
                sess.subscribers.retain(|&id| id != conn);
                sess.last_active = now;
            }
        }
    }

    /// Evict every session that has no subscribers and has been idle for
    /// `idle_after` as of `now`.
    pub fn tick(&mut self, now: Instant) {
        let idle_after = self.config.idle_after;
        self.evict(|sess| {
            sess.subscribers.is_empty()
                && now.saturating_duration_since(sess.last_active) >= idle_after
        });
    }

    /// Evict every session: the orderly stop.
    pub fn stop(mut self) {
        self.evict(|_| true);
    }

    /// Snapshot, sync and drop the sessions `evictable` picks.
    fn evict(&mut self, evictable: impl Fn(&Session<D>) -> bool) {
        let shard = self.id;
        self.sessions.retain(|&session, sess| {
            if !evictable(sess) {
                return true;
            }
            let _ = sess.store.snapshot(&sess.data);
            let _ = sess.store.sync();
            emit(&sess.path, || EventKind::SessionEvicted { session, shard });
            false
        });
    }

    fn attach(&mut self, now: Instant, conn: u64, session: u64, out: &mut Vec<(u64, ServerMsg)>) {
        let sess = match self.sessions.entry(session) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                match open_session(self.id, &self.config, &self.factory, session, now) {
                    Ok(sess) => slot.insert(sess),
                    Err(e) => {
                        let reason = RejectReason::BadOps(format!("session store: {e}"));
                        out.push((conn, ServerMsg::Rejected { session, reason }));
                        return;
                    }
                }
            }
        };
        sess.last_active = now;
        if !sess.subscribers.contains(&conn) {
            sess.subscribers.push(conn);
        }
        emit(&sess.path, || EventKind::SessionAttached {
            session,
            shard: self.id,
            subscribers: sess.subscribers.len(),
        });
        let mut state = BytesMut::new();
        sess.data.encode_state(&mut state);
        out.push((
            conn,
            ServerMsg::Attached {
                session,
                seq: sess.seq,
                state: state.into(),
            },
        ));
    }

    fn handle_commit(
        &mut self,
        now: Instant,
        conn: u64,
        session: u64,
        base_seq: u64,
        ops: Vec<u8>,
        out: &mut Vec<(u64, ServerMsg)>,
    ) {
        let mut reject = |reason| out.push((conn, ServerMsg::Rejected { session, reason }));
        let Some(sess) = self
            .sessions
            .get_mut(&session)
            .filter(|sess| sess.subscribers.contains(&conn))
        else {
            return reject(RejectReason::NotAttached);
        };
        sess.last_active = now;

        // Locate the fork base the client's ops were made against.
        let Some((_, base)) = sess.ring.iter().find(|(s, _)| *s == base_seq) else {
            let oldest = sess.ring.front().map(|(s, _)| *s).unwrap_or(0);
            return reject(RejectReason::StaleBase {
                base_seq,
                oldest_retained: oldest,
            });
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
                return reject(RejectReason::BadOps(reason));
            }
        };

        // The commit is durable (and sealed by the store): fan it out.
        let seq = sess.seq + 1;
        sess.seq = seq;
        sess.ring.push_back((seq, sess.data.fork()));
        let ring = self.config.ring.max(1);
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
        // Every subscriber gets the same slice; only `applied` differs.
        for &id in &sess.subscribers {
            let msg = ServerMsg::Committed {
                session,
                seq,
                applied: id == conn,
                ops: slice.to_vec(),
            };
            out.push((id, msg));
        }
    }
}

/// Load a session into memory: rehydrate from its journal if one
/// exists, otherwise create it from the factory state.
fn open_session<D: Persist>(
    shard: u64,
    cfg: &ServerConfig,
    factory: &dyn Fn() -> D,
    session: u64,
    now: Instant,
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
            let data = factory();
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
        last_active: now,
        path,
    };
    sess.ring.push_back((seq, sess.data.fork()));
    // A rehydrated head carries its whole replayed journal as history.
    sess.truncate_to_ring();
    Ok(sess)
}
