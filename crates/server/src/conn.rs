//! Per-connection state: the framed outbound path, and the slow-consumer
//! disconnect that the depth of the outbound stream triggers.

use std::time::Duration;

use parking_lot::Mutex;
use sm_codec::session::ServerMsg;
use sm_codec::Encode;
use sm_net::frame::encode_frame;
use sm_net::{NetError, RecvHalf, SendHalf};
use sm_obs::{emit, EventKind, TaskPath};

/// The shutdown reason sent to a consumer that stopped reading.
pub const SLOW_CONSUMER_REASON: &str = "slow consumer";

/// One client connection, shared between its reader thread and every
/// shard that has it subscribed to a session.
///
/// All server→client messages go through [`send_msg`](ConnShared::send_msg):
/// one ordered path per connection. Back-pressure is the stream's own
/// depth ([`SendHalf::queued`]), the messages sent that the client has
/// not received yet, which nothing the client sends can change. A message
/// that finds more than `queue_cap` of them waiting marks the consumer
/// slow: the connection closes with a final [`ServerMsg::Shutdown`]
/// instead.
pub struct ConnShared {
    id: u64,
    rx: RecvHalf,
    /// `None` once the connection is closed.
    tx: Mutex<Option<SendHalf>>,
    queue_cap: usize,
}

impl ConnShared {
    pub fn new(id: u64, stream: sm_net::Stream, queue_cap: usize) -> Self {
        let (tx, rx) = stream.split();
        ConnShared {
            id,
            rx,
            tx: Mutex::new(Some(tx)),
            queue_cap,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn is_dead(&self) -> bool {
        self.tx.lock().is_none()
    }

    /// Receive one raw inbound message (reader thread only).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.rx.recv_timeout(timeout)
    }

    /// Frame and deliver `msg`, or close a connection whose consumer has
    /// fallen more than `queue_cap` messages behind; a message to a
    /// closed connection is dropped.
    pub fn send_msg(&self, msg: &ServerMsg) {
        let mut framed = Vec::new();
        encode_frame(&msg.to_bytes(), &mut framed);
        let mut tx = self.tx.lock();
        let Some(half) = tx.take() else {
            return;
        };
        let queued = half.queued();
        if queued > self.queue_cap {
            // Drop the consumer rather than hold its backlog forever.
            drop(tx);
            shut(half, SLOW_CONSUMER_REASON);
            emit(&TaskPath::root(), || EventKind::SlowConsumerDropped {
                queued,
            });
        } else if half.send(&framed).is_ok() {
            *tx = Some(half);
        }
    }

    /// Close the connection with a final [`ServerMsg::Shutdown`].
    pub fn kill(&self, reason: &str) {
        let half = self.tx.lock().take();
        if let Some(half) = half {
            shut(half, reason);
        }
    }
}

/// Send the last message of a connection, and close it.
fn shut(half: SendHalf, reason: &str) {
    let shutdown = ServerMsg::Shutdown {
        reason: reason.into(),
    };
    let mut framed = Vec::new();
    encode_frame(&shutdown.to_bytes(), &mut framed);
    let _ = half.send(&framed);
}
