//! The **conventional** simulator: one OS thread per host, mutex-protected
//! incoming queues with condition variables — the baseline implementation
//! of §III ("each host is represented by a thread with an incoming queue.
//! The thread performs a blocking read on its queue until a message is
//! received").
//!
//! With [`Routing::HashDerived`](crate::message::Routing) this
//! implementation is genuinely non-deterministic: when two hosts forward to
//! the same recipient concurrently, the arrival order — and therefore the
//! recipient's processing order and rolling digest — depends on thread
//! timing. With `Routing::NextHost` the concurrency on each queue
//! disappears and the run is deterministic. Both variants perform the same
//! hashing work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::message::{Message, SimConfig};
use crate::workload::{fingerprint, process_message, total_processed, HostStats};
use crate::SimResult;

/// One host's inbox.
struct Inbox {
    queue: Mutex<std::collections::VecDeque<Message>>,
    available: Condvar,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            queue: Mutex::new(std::collections::VecDeque::new()),
            available: Condvar::new(),
        }
    }

    fn push(&self, msg: Message) {
        self.queue.lock().push_back(msg);
        self.available.notify_one();
    }

    /// Blocking pop: returns `None` once the simulation is globally done.
    fn pop(&self, remaining: &AtomicU64) -> Option<Message> {
        let mut q = self.queue.lock();
        loop {
            if let Some(m) = q.pop_front() {
                return Some(m);
            }
            if remaining.load(Ordering::SeqCst) == 0 {
                return None;
            }
            self.available.wait(&mut q);
        }
    }
}

/// Run the conventional (threads + locks) simulation.
pub(crate) fn run_conventional(cfg: &SimConfig) -> SimResult {
    let inboxes: Arc<Vec<Inbox>> = Arc::new((0..cfg.hosts).map(|_| Inbox::new()).collect());
    // Total processings left; hitting zero wakes every blocked host.
    let remaining = Arc::new(AtomicU64::new(cfg.expected_hops()));

    for (h, msgs) in cfg.initial_queues().into_iter().enumerate() {
        for m in msgs {
            inboxes[h].queue.lock().push_back(m);
        }
    }

    let start = Instant::now();
    let threads: Vec<_> = (0..cfg.hosts)
        .map(|h| {
            let inboxes = Arc::clone(&inboxes);
            let remaining = Arc::clone(&remaining);
            let cfg = *cfg;
            std::thread::spawn(move || host_thread(h, &cfg, &inboxes, &remaining))
        })
        .collect();

    let stats: Vec<HostStats> = threads
        .into_iter()
        .map(|t| t.join().expect("host thread"))
        .collect();
    let elapsed = start.elapsed();

    SimResult {
        elapsed,
        fingerprint: fingerprint(&stats),
        total_processed: total_processed(&stats),
        stats,
        rounds: 0,
    }
}

fn host_thread(h: usize, cfg: &SimConfig, inboxes: &[Inbox], remaining: &AtomicU64) -> HostStats {
    let mut stats = HostStats::default();
    while let Some(msg) = inboxes[h].pop(remaining) {
        let (digest, forwarded) = process_message(&msg, h, cfg);
        stats.record(msg.id, &digest);
        if let Some((m, dest)) = forwarded {
            inboxes[dest].push(m);
        }
        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last processing: wake every blocked host so it can exit.
            for inbox in inboxes {
                inbox.available.notify_all();
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Routing;

    #[test]
    fn processes_every_hop() {
        let cfg = SimConfig::small(0, Routing::HashDerived);
        let r = run_conventional(&cfg);
        assert_eq!(r.total_processed, cfg.expected_hops());
    }

    #[test]
    fn deterministic_routing_is_reproducible() {
        let cfg = SimConfig::small(1, Routing::NextHost);
        let a = run_conventional(&cfg);
        let b = run_conventional(&cfg);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "ring routing must be deterministic"
        );
        assert_eq!(a.total_processed, cfg.expected_hops());
    }

    #[test]
    fn all_hosts_participate_in_ring() {
        let cfg = SimConfig::small(0, Routing::NextHost);
        let r = run_conventional(&cfg);
        assert!(r.stats.iter().all(|s| s.processed > 0));
    }

    #[test]
    fn paper_scale_terminates_quickly_at_zero_workload() {
        let cfg = SimConfig::paper(0, Routing::HashDerived);
        let r = run_conventional(&cfg);
        assert_eq!(r.total_processed, 10_000);
    }
}
