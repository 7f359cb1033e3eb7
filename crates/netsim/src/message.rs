//! Messages and simulation configuration (§III of the paper).

use sm_sha1::{sha1, Digest};

/// A simulated network message.
///
/// The payload is a SHA-1 digest: each hop replaces it with the result of
/// the host's (iterated) hash workload, so the routing in the
/// non-deterministic setup is genuinely data-dependent, exactly as in the
/// paper ("the destination address is derived from the message payload
/// using cryptographic operations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Stable identity of the message (its index at initialization).
    pub id: u32,
    /// Current payload (rewritten every hop).
    pub payload: Digest,
    /// Remaining hops; a message is processed exactly `ttl` times in total.
    pub ttl: u32,
}

impl Message {
    /// The `i`-th initial message with the given time-to-live.
    pub(crate) fn initial(i: u32, ttl: u32) -> Self {
        Message {
            id: i,
            payload: sha1(&i.to_be_bytes()),
            ttl,
        }
    }
}

/// How hosts pick the destination of a forwarded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Destination derived from the hashed payload — the paper's
    /// "non-deterministic" simulation content (two hosts may target the
    /// same recipient concurrently).
    HashDerived,
    /// Always send to the next-higher host id — the paper's deterministic
    /// variant ("the concurrency caused by sending two messages to the
    /// same host is no longer present").
    NextHost,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of simulated hosts (paper: 20).
    pub hosts: usize,
    /// Initial messages distributed round-robin over the hosts (paper: 100).
    pub initial_messages: usize,
    /// Hops per message (paper: 100).
    pub ttl: u32,
    /// Host workload `l`: SHA-1 iterations per processed message
    /// (paper: swept 0..10000).
    pub workload: usize,
    /// Destination selection.
    pub routing: Routing,
}

impl Default for SimConfig {
    /// The paper's setup at workload 0 with hash routing.
    fn default() -> Self {
        SimConfig::paper(0, Routing::HashDerived)
    }
}

impl SimConfig {
    /// The paper's base setup (20 hosts, 100 messages, TTL 100) at host
    /// workload `l`.
    pub fn paper(workload: usize, routing: Routing) -> Self {
        SimConfig {
            hosts: 20,
            initial_messages: 100,
            ttl: 100,
            workload,
            routing,
        }
    }

    /// A miniature configuration for fast tests.
    pub fn small(workload: usize, routing: Routing) -> Self {
        SimConfig {
            hosts: 4,
            initial_messages: 8,
            ttl: 6,
            workload,
            routing,
        }
    }

    /// Total number of message processings the simulation performs.
    pub fn expected_hops(&self) -> u64 {
        self.initial_messages as u64 * u64::from(self.ttl)
    }

    /// The initial per-host message queues (message `i` starts at host
    /// `i % hosts`).
    pub(crate) fn initial_queues(&self) -> Vec<Vec<Message>> {
        let mut queues = vec![Vec::new(); self.hosts];
        for i in 0..self.initial_messages {
            queues[i % self.hosts].push(Message::initial(i as u32, self.ttl));
        }
        queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_message_payload_is_seeded_hash() {
        let m = Message::initial(3, 100);
        assert_eq!(m.payload, sha1(&3u32.to_be_bytes()));
        assert_eq!(m.ttl, 100);
    }

    #[test]
    fn paper_config_matches_evaluation_setup() {
        let cfg = SimConfig::paper(1000, Routing::HashDerived);
        assert_eq!(cfg.hosts, 20);
        assert_eq!(cfg.initial_messages, 100);
        assert_eq!(cfg.ttl, 100);
        assert_eq!(cfg.expected_hops(), 10_000);
    }

    #[test]
    fn initial_distribution_is_round_robin() {
        let cfg = SimConfig {
            hosts: 3,
            initial_messages: 7,
            ttl: 5,
            workload: 0,
            routing: Routing::NextHost,
        };
        let queues = cfg.initial_queues();
        assert_eq!(queues[0].len(), 3);
        assert_eq!(queues[1].len(), 2);
        assert_eq!(queues[2].len(), 2);
        assert_eq!(queues[0][1].id, 3);
    }
}
