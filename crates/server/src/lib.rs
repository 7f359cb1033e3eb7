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
//!                 ┌─────────────────────────────────────────────────┐
//!  client ──────► │ listener ── reader thread per connection        │
//!  client ──────► │     │  ClientMsg, routed by session hash        │
//!                 │     ▼                                           │
//!                 │ driver 0         driver 1    …    driver N-1    │
//!                 │ (a thread: clock, conn id → connection, sends)  │
//!                 │     │ now, conn id, msg   ▲ [(conn id, ServerMsg)]
//!                 │     ▼                     │                     │
//!                 │ Shard::command ───────────┘                     │
//!                 │ (sessions + stores; no clock, no sockets)       │
//!                 └─────────────────────────────────────────────────┘
//! ```
//!
//! **Sharding.** Sessions are hash-routed (`fnv1a(session id) % shards`)
//! to one of N shard threads; a shard owns its sessions exclusively, so
//! session state needs no locking, and each session's journal writes on
//! its shard's thread.
//!
//! **Core and driver.** The protocol is [`Shard`], a value stepped by
//! `command`, `disconnect` and `tick`: it reads no clock and holds no
//! connection, so a test steps it on one thread. A shard thread is its
//! driver: it passes the time, keeps the connection behind each id, and
//! delivers what a step sends. The client splits the same way: [`Mirrors`]
//! applies server messages, and [`SessionClient`] is a stream plus
//! `Mirrors`.
//!
//! **Commit protocol (ring of fork bases).** Each session keeps the
//! authoritative state plus a ring of `fork()` bases, one per recent
//! commit. A commit names the base its ops were made against; the shard
//! checks them against that base (`BadOps` if out of range), merges them
//! into the head in place from the base's fork point
//! (`Persist::merge_log`, rebasing over everything committed since), and
//! journals the rebased slice. The journaled bytes are the bytes every
//! subscriber's mirror applies, so mirrors converge by construction. Any
//! failure rolls the head back to the newest base, leaving the session
//! untouched. The head keeps history back to the ring's front only, and
//! a mirror keeps none (DESIGN.md §3.11 has the details).
//!
//! **Back-pressure.** The transport is the only signal: a connection's
//! outbound stream counts the messages its client has not received yet,
//! as a socket's send buffer would, and no client message can change
//! that count. A message that finds more than `queue_cap` of them
//! waiting disconnects the consumer instead (`SlowConsumerDropped`), so a
//! shard never blocks on a client and never holds its backlog. A client
//! sends only what it means to: attaches, commits, detaches, pings.
//!
//! **Eviction and stopping.** A session with no subscribers idle past
//! `idle_after` is snapshotted to its store and dropped from memory; the
//! next attach rehydrates it via `Store::recover`, bit for bit. Dropping
//! a [`SessionServer`] (or calling `shutdown`) stops accepting, evicts
//! every session, joins every thread and frees the port. Dropping a
//! [`Shard`] without [`Shard::stop`] is a crash: the journal alone
//! reproduces its sessions, as after a crash between eviction and
//! snapshot.
//!
//! All lifecycle transitions are emitted as `sm-obs` events
//! (`session_opened` / `session_attached` / `session_evicted` /
//! `session_rehydrated` / `session_committed` / `slow_consumer_dropped`)
//! with per-shard `sm_sessions_active` gauges on `/metrics`, and every
//! command is timed under the `server_dispatch` phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conn;
mod shard;

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use sm_codec::session::ClientMsg;
use sm_codec::Decode;
use sm_net::frame::FrameError;
use sm_net::{NetError, Network};
use sm_obs::{fnv1a, start, Phase, TaskPath};
use sm_store::{Persist, StoreOptions};

pub use client::{ClientError, CommitEvent, CommitOutcome, Mirrors, SessionClient};
use conn::ConnShared;
pub use conn::SLOW_CONSUMER_REASON;
pub use shard::Shard;

/// How often a shard thread scans for evictable sessions, busy or idle.
const SHARD_TICK: Duration = Duration::from_millis(25);

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
    /// Messages a connection's client may leave unreceived; the next one
    /// sent to it disconnects it as a slow consumer instead.
    pub queue_cap: usize,
    /// Store options applied to every session journal.
    pub store: StoreOptions,
}

impl ServerConfig {
    /// Defaults for a server rooted at `dir`: 4 shards, 30 s idle
    /// eviction, ring of 32 bases, queue cap 256.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            shards: 4,
            dir: dir.into(),
            idle_after: Duration::from_secs(30),
            ring: 32,
            queue_cap: 256,
            store: StoreOptions::default(),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServerError {
    /// The listener port could not be bound.
    Net(NetError),
    /// The root store directory could not be prepared.
    Io(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Net(e) => write!(f, "server network error: {e}"),
            ServerError::Io(e) => write!(f, "server I/O error: {e}"),
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
fn shard_of(session: u64, shards: usize) -> usize {
    (fnv1a(&session.to_le_bytes()) % shards.max(1) as u64) as usize
}

/// What a shard thread receives from the reader threads. The channel
/// closing is the stop.
enum ShardCmd {
    /// A session-scoped client message, with the connection it came from.
    Client {
        conn: Arc<ConnShared>,
        session: u64,
        msg: ClientMsg,
    },
    /// A connection closed.
    Disconnect(u64),
}

/// A running sharded session server. Dropping it is the orderly stop:
/// the listener and every shard and reader thread are stopped and
/// joined, and every resident session is evicted to its store.
pub struct SessionServer {
    stop: Arc<AtomicBool>,
    shard_txs: Vec<Sender<ShardCmd>>,
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
        let factory = Arc::new(factory);

        let mut shard_txs = Vec::with_capacity(config.shards);
        let mut shard_joins = Vec::with_capacity(config.shards);
        for shard_id in 0..config.shards.max(1) {
            let (tx, rx) = unbounded();
            shard_txs.push(tx);
            let factory = Arc::clone(&factory);
            let shard = Shard::new(shard_id as u64, config.clone(), move || factory());
            shard_joins.push(
                std::thread::Builder::new()
                    .name(format!("sm-shard-{shard_id}"))
                    .spawn(move || drive_shard(shard, rx))
                    .expect("spawn shard thread"),
            );
        }

        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let listener_join = {
            let stop = Arc::clone(&stop);
            let shard_txs = shard_txs.clone();
            let queue_cap = config.queue_cap;
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
                                let conn = Arc::new(ConnShared::new(conn_id, stream, queue_cap));
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
            stop,
            shard_txs,
            listener_join: Some(listener_join),
            shard_joins,
            readers,
        })
    }

    /// Stop the server: the same as dropping it.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SessionServer {
    /// Stop accepting and reading, then close the shard channels: each
    /// shard evicts its sessions and exits. Every thread is joined.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.listener_join.take() {
            let _ = j.join();
        }
        for j in self.readers.lock().drain(..) {
            let _ = j.join();
        }
        self.shard_txs.clear();
        for j in self.shard_joins.drain(..) {
            let _ = j.join();
        }
    }
}

/// A shard thread: step `shard` with each command and the clock, deliver
/// what it sends, and scan for idle sessions once per [`SHARD_TICK`]. A
/// tick is time since the last scan, not an empty queue: a busy shard
/// still evicts, and does not walk every session per command.
fn drive_shard<D: Persist>(mut shard: Shard<D>, rx: Receiver<ShardCmd>) {
    let mut conns: HashMap<u64, Arc<ConnShared>> = HashMap::new();
    let mut out = Vec::new();
    let mut last_scan = Instant::now();
    loop {
        match rx.recv_timeout(SHARD_TICK) {
            Ok(ShardCmd::Client { conn, session, msg }) => {
                let span = start(Phase::ServerDispatch);
                let conn_id = conns.entry(conn.id()).or_insert(conn).id();
                shard.command(Instant::now(), conn_id, msg, &mut out);
                // A dead connection drops what it is sent; its reader
                // sends the `Disconnect` that unsubscribes it.
                for (id, msg) in out.drain(..) {
                    if let Some(conn) = conns.get(&id) {
                        conn.send_msg(&msg);
                    }
                }
                if let Some(span) = span {
                    span.finish(&TaskPath::root().child(session));
                }
            }
            Ok(ShardCmd::Disconnect(conn_id)) => {
                conns.remove(&conn_id);
                shard.disconnect(Instant::now(), conn_id);
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        if last_scan.elapsed() >= SHARD_TICK {
            shard.tick(Instant::now());
            last_scan = Instant::now();
        }
    }
    shard.stop();
}

/// Per-connection reader: decode CRC-framed [`ClientMsg`]s off the
/// stream and route session-scoped commands to the owning shard.
/// `Ping` belongs to the connection and is answered here, off the shard
/// threads. A frame that does not decode closes the connection.
fn reader_loop(conn: Arc<ConnShared>, shard_txs: Vec<Sender<ShardCmd>>, stop: Arc<AtomicBool>) {
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
            ClientMsg::Ping => conn.send_msg(&sm_codec::session::ServerMsg::Pong),
            ClientMsg::Attach { session }
            | ClientMsg::Commit { session, .. }
            | ClientMsg::Detach { session } => {
                let tx = &shard_txs[shard_of(session, shards)];
                let conn = Arc::clone(&conn);
                if tx.send(ShardCmd::Client { conn, session, msg }).is_err() {
                    break;
                }
            }
        }
    }
    // Let every shard forget this connection's subscriptions.
    for tx in &shard_txs {
        let _ = tx.send(ShardCmd::Disconnect(conn.id()));
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
    fn dropping_the_server_stops_its_threads_and_frees_its_port() {
        let dir = std::env::temp_dir().join(format!("sm-server-drop-{}", std::process::id()));
        let net = Network::new();
        let server =
            SessionServer::start(&net, 77, ServerConfig::new(&dir), || MCounter::new(0)).unwrap();
        let mut client = SessionClient::<MCounter>::connect(&net, 77).unwrap();
        client.attach(1).unwrap();
        drop(server);
        // Every thread is joined, the listener's included, so the port is
        // free at once, though a client is still connected.
        net.listen(77).expect("the dropped server's port is free");
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
