//! Per-connection state: the framed outbound path with ack-window
//! back-pressure, and the slow-consumer disconnect.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use sm_codec::session::ServerMsg;
use sm_codec::Encode;
use sm_net::frame::encode_frame;
use sm_net::{NetError, RecvHalf, SendHalf};
use sm_obs::{emit, EventKind, TaskPath};

/// The shutdown reason sent to a consumer that stopped acking.
pub const SLOW_CONSUMER_REASON: &str = "slow consumer";

/// One client connection, shared between its reader thread and every
/// shard that has it subscribed to a session.
///
/// All server→client messages go through [`send_msg`](ConnShared::send_msg):
/// one ordered, flow-controlled path per connection. Deliveries are
/// numbered implicitly by send order; the client acks the count of
/// messages it has processed, and at most `window` deliveries may be
/// unacknowledged before further messages queue. A queue past
/// `queue_cap` marks the consumer dead and closes the stream.
pub struct ConnShared {
    id: u64,
    dead: AtomicBool,
    rx: RecvHalf,
    out: Mutex<Outbound>,
}

struct Outbound {
    tx: Option<SendHalf>,
    sent: u64,
    acked: u64,
    queue: VecDeque<Vec<u8>>,
    window: u64,
    queue_cap: usize,
}

impl ConnShared {
    pub fn new(id: u64, stream: sm_net::Stream, window: u64, queue_cap: usize) -> Self {
        let (tx, rx) = stream.split();
        ConnShared {
            id,
            dead: AtomicBool::new(false),
            rx,
            out: Mutex::new(Outbound {
                tx: Some(tx),
                sent: 0,
                acked: 0,
                queue: VecDeque::new(),
                window: window.max(1),
                queue_cap: queue_cap.max(1),
            }),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Receive one raw inbound message (reader thread only).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.rx.recv_timeout(timeout)
    }

    /// Frame and deliver `msg`, honouring the ack window; a message to a
    /// dead connection is dropped.
    pub fn send_msg(&self, msg: &ServerMsg) {
        if self.is_dead() {
            return;
        }
        let mut framed = Vec::new();
        encode_frame(&msg.to_bytes(), &mut framed);

        let mut out = self.out.lock();
        out.queue.push_back(framed);
        out.flush();
        if out.queue.len() > out.queue_cap {
            // The consumer has stopped acking and its queue is past the
            // cap: drop it rather than hold its backlog forever.
            let queued = out.queue.len();
            out.queue.clear();
            drop(out);
            self.kill(SLOW_CONSUMER_REASON);
            emit(&TaskPath::root(), || EventKind::SlowConsumerDropped {
                queued,
            });
        } else if out.tx.is_none() {
            drop(out);
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    /// Record the client's ack and release queued deliveries into the
    /// freed window.
    pub fn ack(&self, upto: u64) {
        let mut out = self.out.lock();
        out.acked = out.acked.max(upto);
        out.flush();
    }

    /// Close the connection with a final [`ServerMsg::Shutdown`],
    /// bypassing the window (it is the last message).
    pub fn kill(&self, reason: &str) {
        let mut out = self.out.lock();
        out.queue.clear();
        if let Some(tx) = out.tx.take() {
            let shutdown = ServerMsg::Shutdown {
                reason: reason.into(),
            };
            let mut framed = Vec::new();
            encode_frame(&shutdown.to_bytes(), &mut framed);
            let _ = tx.send(&framed);
        }
        drop(out);
        self.dead.store(true, Ordering::Relaxed);
    }
}

impl Outbound {
    /// Send queued frames while the ack window has room.
    fn flush(&mut self) {
        while self.sent.saturating_sub(self.acked) < self.window {
            let Some(frame) = self.queue.pop_front() else {
                return;
            };
            let Some(tx) = &self.tx else {
                return;
            };
            if tx.send(&frame).is_err() {
                self.tx = None;
                self.queue.clear();
                return;
            }
            self.sent += 1;
        }
    }
}
