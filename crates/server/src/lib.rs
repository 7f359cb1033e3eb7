//! **sm-server** — a sharded, multi-tenant session server: one process
//! hosting thousands of live, durable Spawn & Merge sessions.
//!
//! A distributed program (`spawn_merge::dist`) runs some children's
//! bodies on nodes. This crate turns the same building blocks into a
//! *service*:
//! a single [`SessionServer`] owns many independent sessions, each a
//! durable [`Persist`] state journaled by its own `sm-store` directory,
//! and serves them to remote clients over one `sm-net` listener.
//!
//! ```text
//!                        ┌───────────────────────────────────────────┐
//!  client ──connect──►   │ listener ── reader thread per connection  │
//!  client ──connect──►   │     │  ClientMsg, routed by session hash  │
//!                        │     ▼                                     │
//!                        │ shard 0      shard 1      …    shard N-1  │
//!                        │ ┌────────┐  ┌────────┐       ┌─────────┐  │
//!                        │ │sessions│  │sessions│       │sessions │  │
//!                        │ │+ store │  │+ store │       │+ store  │  │
//!                        │ └────────┘  └────────┘       └─────────┘  │
//!                        └───────────────────────────────────────────┘
//! ```
//!
//! **Sharding.** Sessions are hash-routed (`fnv1a(session id) % shards`)
//! to one of N shard threads; a shard owns its sessions exclusively, so
//! session state needs no locking. Each session's journal writes on its
//! shard's thread, snapshots included.
//!
//! **Commit protocol (ring of fork bases).** Each session keeps the
//! authoritative state plus a bounded ring of `fork()` bases, one per
//! recent commit sequence. A client commit names the sequence number its
//! ops were made against; the shard clones that base, replays the ops
//! onto it, and OT-merges the result into the authoritative state in
//! place — rebasing the client's ops over everything committed since its
//! base. A merge or journal failure is rolled back to the newest base
//! (`Mergeable::rollback_to`), so a rejected commit leaves the session
//! untouched. The rebased slice (`encode_committed_since`) is journaled
//! and fanned out to every subscriber, whose mirrors advance by
//! `apply_log` only — so all subscribers of a session stay
//! digest-converged by construction. The authoritative state retains
//! history only as far back as the oldest base in the ring, and a client
//! mirror retains none: a commit costs what the commit contains, not
//! what the session has accumulated.
//!
//! **Back-pressure.** All server→client traffic goes through a bounded
//! per-connection outbound queue with an ack window
//! ([`ClientMsg::Ack`]); a consumer
//! that stops acking first queues, then — past the cap — is disconnected
//! (`SlowConsumerDropped`), never blocking a shard.
//!
//! **Eviction / rehydration.** A session with no subscribers that stays
//! idle past `idle_after` is snapshotted to its store and dropped from
//! memory; the next attach rehydrates it via `Store::recover`, bit-for-
//! bit — and if the process crashes between eviction and snapshot
//! publish, the journal suffix alone reproduces the state (that is the
//! store's ordinary recovery guarantee).
//!
//! All lifecycle transitions are emitted as `sm-obs` events
//! (`session_opened` / `session_attached` / `session_evicted` /
//! `session_rehydrated` / `session_committed` / `slow_consumer_dropped`)
//! with per-shard `sm_sessions_active` gauges on `/metrics`, and every
//! command is timed under the `server_dispatch` phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
mod shard;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use sm_codec::session::ClientMsg;
use sm_codec::Decode;
use sm_net::frame::FrameError;
use sm_net::{NetError, Network};
use sm_obs::fnv1a;
use sm_store::{Persist, StoreError, StoreOptions};

pub use client::{ClientError, CommitEvent, CommitOutcome, SessionClient};
pub use conn::SLOW_CONSUMER_REASON;
pub use shard::SHARD_TICK;

/// Configuration of a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of runtime shards (session-owning threads). Sessions are
    /// hash-routed; a session lives on exactly one shard for its whole
    /// in-memory lifetime.
    pub shards: usize,
    /// Root directory; each session journals under
    /// `<dir>/session-<id hex>`.
    pub dir: PathBuf,
    /// A session with no subscribers is evicted to its store after this
    /// much idle time.
    pub idle_after: Duration,
    /// Length of the per-session ring of fork bases — how many commits a
    /// client's `base_seq` may lag before its commit is rejected as
    /// stale and it must re-attach.
    pub ring: usize,
    /// Unacknowledged server→client deliveries before further messages
    /// queue instead of sending.
    pub window: u64,
    /// Queued messages per connection before the consumer is declared
    /// slow and disconnected.
    pub queue_cap: usize,
    /// Publish a full snapshot when evicting (the fast-rehydration
    /// path). `false` simulates a crash in the eviction window: the
    /// session must then rehydrate from the journal suffix alone.
    pub snapshot_on_evict: bool,
    /// Store options applied to every session journal.
    pub store: StoreOptions,
}

impl ServerConfig {
    /// Defaults for a server rooted at `dir`: 4 shards, 30 s idle
    /// eviction, ring of 32 bases, window 64, queue cap 256, snapshots
    /// on evict.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            shards: 4,
            dir: dir.into(),
            idle_after: Duration::from_secs(30),
            ring: 32,
            window: 64,
            queue_cap: 256,
            snapshot_on_evict: true,
            store: StoreOptions::default(),
        }
    }
}

/// Why the server failed to start or stop.
#[derive(Debug)]
pub enum ServerError {
    /// The listener port could not be bound.
    Net(NetError),
    /// The root store directory could not be prepared.
    Io(std::io::Error),
    /// A session journal failed (propagated from shard startup).
    Store(StoreError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Net(e) => write!(f, "server network error: {e}"),
            ServerError::Io(e) => write!(f, "server I/O error: {e}"),
            ServerError::Store(e) => write!(f, "server store error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<NetError> for ServerError {
    fn from(e: NetError) -> Self {
        ServerError::Net(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// The shard a session id is routed to, out of `shards`.
///
/// FNV-1a over the little-endian id — stable across runs and processes,
/// so a session's journal directory is always owned by the same shard
/// index for a given shard count.
pub fn shard_of(session: u64, shards: usize) -> usize {
    (fnv1a(&session.to_le_bytes()) % shards.max(1) as u64) as usize
}

/// A running sharded session server. Dropping without
/// [`shutdown`](SessionServer::shutdown) aborts the threads without
/// joining them; call `shutdown` for an orderly stop.
pub struct SessionServer {
    port: u16,
    stop: Arc<AtomicBool>,
    shard_txs: Vec<Sender<shard::ShardCmd>>,
    listener_join: Option<JoinHandle<()>>,
    shard_joins: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SessionServer {
    /// Start a server on `port` of `net`. `factory` produces the genesis
    /// state of a session that has never existed before; existing
    /// sessions rehydrate from their journal instead.
    pub fn start<D, F>(
        net: &Network,
        port: u16,
        config: ServerConfig,
        factory: F,
    ) -> Result<SessionServer, ServerError>
    where
        D: Persist + 'static,
        F: Fn() -> D + Send + Sync + 'static,
    {
        std::fs::create_dir_all(&config.dir)?;
        let listener = net.listen(port)?;
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = Arc::new(config);
        let factory: Arc<dyn Fn() -> D + Send + Sync> = Arc::new(factory);

        let mut shard_txs = Vec::with_capacity(cfg.shards);
        let mut shard_joins = Vec::with_capacity(cfg.shards);
        for shard_id in 0..cfg.shards.max(1) {
            let (tx, rx) = unbounded();
            shard_txs.push(tx);
            let cfg = Arc::clone(&cfg);
            let factory = Arc::clone(&factory);
            shard_joins.push(
                std::thread::Builder::new()
                    .name(format!("sm-shard-{shard_id}"))
                    .spawn(move || shard::shard_loop(shard_id as u64, rx, cfg, factory))
                    .expect("spawn shard thread"),
            );
        }

        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let listener_join = {
            let stop = Arc::clone(&stop);
            let shard_txs = shard_txs.clone();
            let cfg = Arc::clone(&cfg);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("sm-listener".into())
                .spawn(move || {
                    let next_conn = AtomicU64::new(1);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        match listener.accept_timeout(Duration::from_millis(50)) {
                            Ok(stream) => {
                                let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
                                let conn = Arc::new(conn::ConnShared::new(
                                    conn_id,
                                    stream,
                                    cfg.window,
                                    cfg.queue_cap,
                                ));
                                let stop = Arc::clone(&stop);
                                let shard_txs = shard_txs.clone();
                                let join = std::thread::Builder::new()
                                    .name(format!("sm-conn-{conn_id}"))
                                    .spawn(move || reader_loop(conn, shard_txs, stop))
                                    .expect("spawn reader thread");
                                // A reader ends with its connection: keep
                                // only the handles shutdown still joins.
                                let mut readers = readers.lock();
                                readers.retain(|j| !j.is_finished());
                                readers.push(join);
                            }
                            Err(NetError::Timeout) => continue,
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn listener thread")
        };

        Ok(SessionServer {
            port,
            stop,
            shard_txs,
            listener_join: Some(listener_join),
            shard_joins,
            readers,
        })
    }

    /// The listener port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stop accepting, drain the shards (each evicts what it holds to
    /// its store), and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.listener_join.take() {
            let _ = j.join();
        }
        for tx in self.shard_txs.drain(..) {
            let _ = tx.send(shard::ShardCmd::Stop);
        }
        for j in self.shard_joins.drain(..) {
            let _ = j.join();
        }
        for j in self.readers.lock().drain(..) {
            let _ = j.join();
        }
    }
}

/// Per-connection reader: decode CRC-framed [`ClientMsg`]s off the
/// stream and route session-scoped commands to the owning shard.
/// Connection-scoped commands (`Ack`, `Ping`) are handled here, off the
/// shard threads.
fn reader_loop(
    conn: Arc<conn::ConnShared>,
    shard_txs: Vec<Sender<shard::ShardCmd>>,
    stop: Arc<AtomicBool>,
) {
    let shards = shard_txs.len();
    loop {
        if stop.load(Ordering::Relaxed) || conn.is_dead() {
            break;
        }
        let raw = match conn.recv_timeout(Duration::from_millis(50)) {
            Ok(raw) => raw,
            Err(NetError::Timeout) => continue,
            Err(_) => break,
        };
        let msg = match decode_client_frame(&raw) {
            Ok(msg) => msg,
            Err(reason) => {
                conn.kill(&reason);
                break;
            }
        };
        match msg {
            ClientMsg::Ack { upto } => conn.ack(upto),
            ClientMsg::Ping => {
                conn.send_msg(&sm_codec::session::ServerMsg::Pong);
            }
            ClientMsg::Attach { session }
            | ClientMsg::Commit { session, .. }
            | ClientMsg::Detach { session } => {
                let tx = &shard_txs[shard_of(session, shards)];
                if tx
                    .send(shard::ShardCmd::Client {
                        conn: Arc::clone(&conn),
                        msg,
                    })
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    // Let every shard forget this connection's subscriptions.
    for tx in &shard_txs {
        let _ = tx.send(shard::ShardCmd::Disconnect { conn_id: conn.id() });
    }
}

fn decode_client_frame(raw: &[u8]) -> Result<ClientMsg, String> {
    let payload = match sm_net::frame::decode_frame(raw) {
        Ok((payload, used)) if used == raw.len() => payload,
        Ok(_) => return Err("trailing bytes after frame".into()),
        Err(FrameError::Truncated { need, have }) => {
            return Err(format!("truncated frame: need {need}, have {have}"))
        }
        Err(e) => return Err(format!("bad frame: {e}")),
    };
    ClientMsg::from_bytes(payload).map_err(|e| format!("bad client message: {e}"))
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use sm_mergeable::MCounter;

    use super::*;

    #[test]
    fn finished_reader_handles_are_dropped_at_the_next_accept() {
        let dir = std::env::temp_dir().join(format!("sm-server-readers-{}", std::process::id()));
        let net = Network::new();
        let server =
            SessionServer::start(&net, 7, ServerConfig::new(dir.clone()), || MCounter::new(0))
                .unwrap();
        // A pong proves the connection's reader runs; dropping the client
        // then ends it.
        let connect_and_drop = || SessionClient::<MCounter>::connect(&net, 7)?.ping();
        let deadline = Instant::now() + Duration::from_secs(10);
        let wait_until = |done: &dyn Fn(&[JoinHandle<()>]) -> bool| {
            while !done(&server.readers.lock()) {
                assert!(
                    Instant::now() < deadline,
                    "{} handles",
                    server.readers.lock().len()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        for _ in 0..50 {
            connect_and_drop().unwrap();
        }
        wait_until(&|readers| readers.iter().all(JoinHandle::is_finished));
        connect_and_drop().unwrap();
        wait_until(&|readers| readers.len() <= 3);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for session in [0u64, 1, 42, u64::MAX] {
                let s = shard_of(session, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(session, shards), "routing must be stable");
            }
        }
        // Zero shards must not divide by zero.
        assert_eq!(shard_of(7, 0), 0);
        // The hash actually spreads sessions around.
        let hits: std::collections::HashSet<usize> = (0..64u64).map(|s| shard_of(s, 8)).collect();
        assert!(hits.len() > 1, "sessions must spread across shards");
    }
}
