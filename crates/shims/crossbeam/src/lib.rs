//! Offline shim for the `crossbeam` crate (see `crates/shims/README.md`).
//!
//! Implements the one `channel` this workspace uses: an unbounded
//! many-producer, one-consumer channel with crossbeam's disconnect
//! semantics (a receive drains what is buffered, then fails once every
//! `Sender` is gone; `send` fails once the `Receiver` is gone). Built on
//! `std::sync::{Mutex, Condvar}`.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver: bool,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when the queue gains an item or the last sender drops.
        readable: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            // A panic while holding the lock only poisons bookkeeping that
            // is still structurally valid; keep going like crossbeam does.
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel; there is one per channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// `send` failed because the receiver is gone; returns the value.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// `recv` failed because the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a failed `recv_timeout`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait elapsed with the channel still empty.
        Timeout,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// Outcome of a failed `try_recv`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// A channel with unlimited buffering: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receiver: true,
            }),
            readable: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Deliver `value`. Fails (returning the value) once the receiver
        /// is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            if !inner.receiver {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.readable.notify_one();
            Ok(())
        }

        /// Messages sent and not yet received.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// No message is waiting (upstream pairs it with `len`).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.readable.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Take the next message, blocking while the channel is empty.
        /// Fails once the channel is empty with every sender dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Like [`recv`](Self::recv) but gives up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + timeout))
        }

        /// Wait for a message until `deadline`, or for good without one.
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let readable = &self.shared.readable;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                inner = match deadline {
                    None => readable.wait(inner).unwrap_or_else(PoisonError::into_inner),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        let waited = readable.wait_timeout(inner, deadline - now);
                        waited.unwrap_or_else(PoisonError::into_inner).0
                    }
                };
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            match inner.queue.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receiver = false;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::mpsc;
        use std::thread;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        /// Two senders, one message each: every kind of receive drains
        /// both, then reports the disconnect once the last sender is gone.
        fn drained_then_disconnected() -> Receiver<u8> {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            tx.send(7).unwrap();
            tx2.send(8).unwrap();
            drop(tx);
            drop(tx2);
            rx
        }

        #[test]
        fn recv_drains_then_fails_after_last_sender_drops() {
            let rx = drained_then_disconnected();
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Ok(8));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn recv_timeout_drains_then_reports_disconnected() {
            let rx = drained_then_disconnected();
            let wait = Duration::from_millis(10);
            assert_eq!(rx.recv_timeout(wait), Ok(7));
            assert_eq!(rx.recv_timeout(wait), Ok(8));
            assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn try_recv_drains_then_reports_disconnected() {
            let rx = drained_then_disconnected();
            assert_eq!(rx.try_recv(), Ok(7));
            assert_eq!(rx.try_recv(), Ok(8));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn try_recv_reports_empty_while_a_sender_lives() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(3).unwrap();
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn len_counts_what_is_sent_and_not_yet_received() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            assert!(tx.is_empty());
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            assert_eq!((tx.len(), tx2.len()), (2, 2));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(tx.len(), 1);
            assert_eq!(rx.try_recv(), Ok(2));
            assert!(tx.is_empty());
        }

        #[test]
        fn send_fails_after_receiver_drops() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            drop(rx);
            assert!(tx.send(1).is_err());
            assert!(tx2.send(2).is_err());
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        }

        #[test]
        fn a_blocked_recv_wakes_when_the_last_sender_drops() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            let (woke_tx, woke_rx) = mpsc::channel();
            let receiver = thread::spawn(move || woke_tx.send(rx.recv()).unwrap());
            // Nothing shows from outside that the receiver sleeps in its
            // wait: the pause makes that the likely case, and the verdict
            // must be the same if it has not got there yet.
            thread::sleep(Duration::from_millis(20));
            drop(tx);
            drop(tx2);
            assert_eq!(
                woke_rx.recv_timeout(Duration::from_secs(10)),
                Ok(Err(RecvError)),
                "the blocked recv must wake with a disconnect"
            );
            receiver.join().unwrap();
        }

        #[test]
        fn every_message_of_many_producers_arrives_in_producer_order() {
            const PRODUCERS: u32 = 4;
            const EACH: u32 = 1_000;
            let (tx, rx) = unbounded::<(u32, u32)>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..EACH {
                            tx.send((p, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0; PRODUCERS as usize];
            while let Ok((p, i)) = rx.recv() {
                assert_eq!(i, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
            assert_eq!(next, [EACH; PRODUCERS as usize]);
            for p in producers {
                p.join().unwrap();
            }
        }
    }
}
