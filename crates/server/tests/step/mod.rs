//! A [`Shard`] and its clients' [`Mirrors`], stepped on the test's
//! thread: every delivery happens when the test says so, in FIFO order
//! per connection, and the clock is a value the test advances.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use sm_codec::session::{ClientMsg, ServerMsg};
use sm_server::{CommitOutcome, Mirrors, ServerConfig, Shard};
use sm_store::Persist;

pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-step-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A client connection: its mirrors and what the shard sent it that it
/// has not handled yet.
struct Client<D> {
    mirrors: Mirrors<D>,
    inbox: VecDeque<ServerMsg>,
}

pub struct Stepped<D: Persist> {
    /// `None` between a crash and the restart.
    shard: Option<Shard<D>>,
    config: ServerConfig,
    factory: fn() -> D,
    now: Instant,
    /// Connection `i + 1` is `clients[i]`.
    clients: Vec<Client<D>>,
}

impl<D: Persist> Stepped<D> {
    pub fn new(config: ServerConfig, factory: fn() -> D) -> Self {
        Stepped {
            shard: Some(Shard::new(0, config.clone(), factory)),
            config,
            factory,
            now: Instant::now(),
            clients: Vec::new(),
        }
    }

    /// Open a connection; returns its id.
    pub fn connect(&mut self) -> u64 {
        self.clients.push(Client {
            mirrors: Mirrors::default(),
            inbox: VecDeque::new(),
        });
        self.clients.len() as u64
    }

    fn client(&mut self, conn: u64) -> &mut Client<D> {
        &mut self.clients[conn as usize - 1]
    }

    pub fn mirrors(&self, conn: u64) -> &Mirrors<D> {
        &self.clients[conn as usize - 1].mirrors
    }

    pub fn mirrors_mut(&mut self, conn: u64) -> &mut Mirrors<D> {
        &mut self.client(conn).mirrors
    }

    /// Step the shard with `msg` from `conn`, and queue what it sends.
    pub fn send(&mut self, conn: u64, msg: ClientMsg) {
        let mut out = Vec::new();
        let shard = self.shard.as_mut().expect("the shard is running");
        shard.command(self.now, conn, msg, &mut out);
        for (to, msg) in out {
            self.client(to).inbox.push_back(msg);
        }
    }

    /// Hand `conn` its next message: its mirrors apply it.
    pub fn recv(&mut self, conn: u64) -> ServerMsg {
        let client = self.client(conn);
        let msg = client.inbox.pop_front().expect("a message is queued");
        client.mirrors.on_msg(&msg).expect("the mirrors apply it");
        msg
    }

    /// Hand `conn` every queued message.
    pub fn pump(&mut self, conn: u64) {
        while !self.client(conn).inbox.is_empty() {
            self.recv(conn);
        }
    }

    /// Hand `conn` its messages up to the first that `done` accepts.
    fn recv_until<T>(&mut self, conn: u64, done: impl Fn(&ServerMsg) -> Option<T>) -> T {
        loop {
            if let Some(t) = done(&self.recv(conn)) {
                return t;
            }
        }
    }

    /// Attach, as `SessionClient::attach` does; returns the seq.
    pub fn attach(&mut self, conn: u64, session: u64) -> u64 {
        self.send(conn, ClientMsg::Attach { session });
        self.recv_until(conn, |msg| match msg {
            ServerMsg::Attached {
                session: s, seq, ..
            } if *s == session => Some(*seq),
            _ => None,
        })
    }

    /// Detach, as `SessionClient::detach` does.
    pub fn detach(&mut self, conn: u64, session: u64) {
        self.send(conn, ClientMsg::Detach { session });
        self.recv_until(conn, |msg| match msg {
            ServerMsg::Detached { session: s } if *s == session => Some(()),
            _ => None,
        })
    }

    /// Commit `edit`, as `SessionClient::commit_with` does: `conn` gets
    /// its messages up to the commit's answer, and no other connection
    /// gets any.
    pub fn commit(&mut self, conn: u64, session: u64, edit: impl FnOnce(&mut D)) -> CommitOutcome {
        let msg = self.mirrors(conn).commit_msg(session, edit).unwrap();
        self.send(conn, msg);
        self.recv_until(conn, |msg| match msg {
            ServerMsg::Committed {
                session: s,
                seq,
                applied: true,
                ..
            } if *s == session => Some(CommitOutcome::Committed { seq: *seq }),
            ServerMsg::Rejected { session: s, reason } if *s == session => {
                Some(CommitOutcome::Rejected(reason.clone()))
            }
            _ => None,
        })
    }

    /// Let `idle_after` pass, and run the idle scan.
    pub fn idle(&mut self) {
        self.now += self.config.idle_after;
        let now = self.now;
        self.shard.as_mut().expect("the shard is running").tick(now);
    }

    /// Drop the shard with its sessions resident, as a crash would, and
    /// start a fresh one on the same directory. Connections stay open.
    pub fn crash_and_restart(&mut self) {
        drop(self.shard.take());
        self.shard = Some(Shard::new(0, self.config.clone(), self.factory));
    }

    /// The orderly stop: every resident session is evicted.
    pub fn stop(mut self) {
        self.shard.take().expect("the shard is running").stop();
    }
}
