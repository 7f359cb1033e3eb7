//! In-memory network substrate for the Spawn & Merge examples.
//!
//! The paper's server example (§II-G) is written against blocking TCP
//! sockets (`tcp.accept()`, `read(socket)`, `write(socket, …)`). To keep
//! the example runnable, testable and — where the framework allows —
//! deterministic, this crate provides a loopback network with the same
//! blocking control flow: named ports, listeners, bidirectional
//! message streams, and an optional fixed propagation latency.
//!
//! The substitution is documented in `DESIGN.md`: nothing in the paper's
//! evaluation depends on kernel TCP behaviour; what the example exercises
//! is the *blocking accept / read / write* pattern interacting with
//! `Spawn`, `Clone`, `Sync` and `MergeAny`, which this substrate preserves
//! exactly.
//!
//! Beyond the loopback substrate, the [`frame`] module provides the
//! CRC32-checked framing that sm-store's write-ahead log and the session
//! server's wire protocol share: length-prefixed, checksummed records
//! whose decoder distinguishes torn writes from corruption.
//!
//! # Example
//!
//! ```
//! use sm_net::Network;
//!
//! let net = Network::new();
//! let listener = net.listen(8080).unwrap();
//! let t = std::thread::spawn({
//!     let net = net.clone();
//!     move || {
//!         let client = net.connect(8080).unwrap();
//!         client.send(b"ping").unwrap();
//!         client.recv().unwrap()
//!     }
//! });
//! let server_side = listener.accept().unwrap();
//! assert_eq!(server_side.recv().unwrap(), b"ping");
//! server_side.send(b"pong").unwrap();
//! assert_eq!(t.join().unwrap(), b"pong");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

/// Network errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// `listen` on a port that already has a listener.
    PortInUse(u16),
    /// `connect` to a port nobody listens on.
    ConnectionRefused(u16),
    /// The peer closed the stream (or the listener was dropped).
    Closed,
    /// A timed receive elapsed without a message.
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PortInUse(p) => write!(f, "port {p} already in use"),
            NetError::ConnectionRefused(p) => write!(f, "connection refused on port {p}"),
            NetError::Closed => write!(f, "stream closed by peer"),
            NetError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// A message in flight: payload plus earliest delivery instant.
struct Packet {
    deliver_at: Instant,
    data: Vec<u8>,
}

struct NetInner {
    listeners: Mutex<HashMap<u16, Sender<Stream>>>,
    latency: Duration,
}

/// An in-memory network: a namespace of ports. Cloning shares the network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("latency", &self.inner.latency)
            .finish_non_exhaustive()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// A network with zero propagation latency.
    pub fn new() -> Self {
        Self::with_latency(Duration::ZERO)
    }

    /// A network that delays every message by `latency` before it becomes
    /// receivable — enough to make timing-dependent bugs in conventional
    /// code reproducible.
    pub fn with_latency(latency: Duration) -> Self {
        Network {
            inner: Arc::new(NetInner {
                listeners: Mutex::new(HashMap::new()),
                latency,
            }),
        }
    }

    /// Start listening on `port`.
    pub fn listen(&self, port: u16) -> Result<Listener, NetError> {
        let mut listeners = self.inner.listeners.lock();
        if listeners.contains_key(&port) {
            return Err(NetError::PortInUse(port));
        }
        let (tx, rx) = unbounded();
        listeners.insert(port, tx);
        Ok(Listener {
            port,
            backlog: rx,
            network: self.clone(),
        })
    }

    /// Open a connection to `port`. Fails if nobody listens there.
    pub fn connect(&self, port: u16) -> Result<Stream, NetError> {
        let backlog = {
            let listeners = self.inner.listeners.lock();
            listeners
                .get(&port)
                .cloned()
                .ok_or(NetError::ConnectionRefused(port))?
        };
        let (client, server) = stream_pair(self.inner.latency);
        backlog
            .send(server)
            .map_err(|_| NetError::ConnectionRefused(port))?;
        Ok(client)
    }

    /// The configured propagation latency.
    pub fn latency(&self) -> Duration {
        self.inner.latency
    }
}

/// A listening socket: accepts incoming [`Stream`]s.
#[derive(Debug)]
pub struct Listener {
    port: u16,
    backlog: Receiver<Stream>,
    network: Network,
}

impl Listener {
    /// The port this listener is bound to.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Block until a client connects; returns the server-side stream.
    pub fn accept(&self) -> Result<Stream, NetError> {
        self.backlog.recv().map_err(|_| NetError::Closed)
    }

    /// Accept with a timeout.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Stream, NetError> {
        self.backlog.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })
    }

    /// Accept without blocking, if a connection is already queued.
    pub fn try_accept(&self) -> Option<Stream> {
        self.backlog.try_recv().ok()
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.network.inner.listeners.lock().remove(&self.port);
    }
}

/// One end of a bidirectional, message-oriented stream.
///
/// Each [`send`](Stream::send) delivers one whole message; receives are
/// blocking (with timed variants). Dropping an end closes the stream: the
/// peer's receives return [`NetError::Closed`] after draining.
#[derive(Debug)]
pub struct Stream {
    tx: Sender<Packet>,
    rx: Receiver<Packet>,
    latency: Duration,
}

fn stream_pair(latency: Duration) -> (Stream, Stream) {
    let (a_tx, a_rx) = unbounded();
    let (b_tx, b_rx) = unbounded();
    (
        Stream {
            tx: a_tx,
            rx: b_rx,
            latency,
        },
        Stream {
            tx: b_tx,
            rx: a_rx,
            latency,
        },
    )
}

impl Stream {
    /// Send one message to the peer.
    pub fn send(&self, data: &[u8]) -> Result<(), NetError> {
        let packet = Packet {
            deliver_at: Instant::now() + self.latency,
            data: data.to_vec(),
        };
        self.tx.send(packet).map_err(|_| NetError::Closed)
    }

    /// Send a UTF-8 string message.
    pub fn send_str(&self, s: &str) -> Result<(), NetError> {
        self.send(s.as_bytes())
    }

    /// Block until a message arrives (or the peer closes).
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        let packet = self.rx.recv().map_err(|_| NetError::Closed)?;
        wait_until(packet.deliver_at);
        Ok(packet.data)
    }

    /// Receive with a timeout (counted against arrival; the latency delay
    /// is honoured on top).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let packet = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })?;
        wait_until(packet.deliver_at);
        Ok(packet.data)
    }

    /// Receive a message and decode it as UTF-8 (lossily).
    pub fn recv_str(&self) -> Result<String, NetError> {
        Ok(String::from_utf8_lossy(&self.recv()?).into_owned())
    }

    /// Close this end explicitly (equivalent to dropping it).
    pub fn close(self) {}

    /// Split the stream into independently owned send and receive halves,
    /// so different threads can write and read concurrently.
    pub fn split(self) -> (SendHalf, RecvHalf) {
        (
            SendHalf {
                tx: self.tx,
                latency: self.latency,
            },
            RecvHalf { rx: self.rx },
        )
    }
}

/// The owning send half of a split [`Stream`].
#[derive(Debug)]
pub struct SendHalf {
    tx: Sender<Packet>,
    latency: Duration,
}

impl SendHalf {
    /// Send one message to the peer.
    pub fn send(&self, data: &[u8]) -> Result<(), NetError> {
        let packet = Packet {
            deliver_at: Instant::now() + self.latency,
            data: data.to_vec(),
        };
        self.tx.send(packet).map_err(|_| NetError::Closed)
    }

    /// Send a UTF-8 string message.
    pub fn send_str(&self, s: &str) -> Result<(), NetError> {
        self.send(s.as_bytes())
    }
}

/// The owning receive half of a split [`Stream`].
#[derive(Debug)]
pub struct RecvHalf {
    rx: Receiver<Packet>,
}

impl RecvHalf {
    /// Block until a message arrives (or the peer closes).
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        let packet = self.rx.recv().map_err(|_| NetError::Closed)?;
        wait_until(packet.deliver_at);
        Ok(packet.data)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let packet = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })?;
        wait_until(packet.deliver_at);
        Ok(packet.data)
    }
}

fn wait_until(instant: Instant) {
    let now = Instant::now();
    if instant > now {
        std::thread::sleep(instant - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_connect_roundtrip() {
        let net = Network::new();
        let listener = net.listen(1000).unwrap();
        let client = net.connect(1000).unwrap();
        let server = listener.accept().unwrap();

        client.send(b"hello").unwrap();
        assert_eq!(server.recv().unwrap(), b"hello");
        server.send_str("world").unwrap();
        assert_eq!(client.recv_str().unwrap(), "world");
    }

    #[test]
    fn port_in_use() {
        let net = Network::new();
        let _l = net.listen(7).unwrap();
        assert_eq!(net.listen(7).unwrap_err(), NetError::PortInUse(7));
    }

    #[test]
    fn connection_refused() {
        let net = Network::new();
        assert_eq!(net.connect(9).unwrap_err(), NetError::ConnectionRefused(9));
    }

    #[test]
    fn port_freed_on_listener_drop() {
        let net = Network::new();
        drop(net.listen(5).unwrap());
        assert!(net.listen(5).is_ok());
    }

    #[test]
    fn close_propagates() {
        let net = Network::new();
        let listener = net.listen(1).unwrap();
        let client = net.connect(1).unwrap();
        let server = listener.accept().unwrap();
        client.send(b"last").unwrap();
        client.close();
        // Queued data drains first, then Closed.
        assert_eq!(server.recv().unwrap(), b"last");
        assert_eq!(server.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn recv_timeout_elapses() {
        let net = Network::new();
        let listener = net.listen(2).unwrap();
        let client = net.connect(2).unwrap();
        let _server = listener.accept().unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn accept_timeout_elapses() {
        let net = Network::new();
        let listener = net.listen(3).unwrap();
        assert_eq!(
            listener
                .accept_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        assert!(listener.try_accept().is_none());
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::with_latency(Duration::from_millis(40));
        let listener = net.listen(4).unwrap();
        let client = net.connect(4).unwrap();
        let server = listener.accept().unwrap();
        let start = Instant::now();
        client.send(b"x").unwrap();
        server.recv().unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "latency must be honoured"
        );
    }

    #[test]
    fn many_concurrent_connections() {
        let net = Network::new();
        let listener = net.listen(80).unwrap();
        let mut joins = Vec::new();
        for i in 0..16u32 {
            let net = net.clone();
            joins.push(std::thread::spawn(move || {
                let c = net.connect(80).unwrap();
                c.send(&i.to_be_bytes()).unwrap();
                u32::from_be_bytes(c.recv().unwrap().try_into().unwrap())
            }));
        }
        let mut server_sides = Vec::new();
        for _ in 0..16 {
            let s = listener.accept().unwrap();
            let v = u32::from_be_bytes(s.recv().unwrap().try_into().unwrap());
            s.send(&(v * 2).to_be_bytes()).unwrap();
            // Keep the stream alive until the echo is consumed.
            server_sides.push(s);
        }
        let mut results: Vec<u32> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }
}
