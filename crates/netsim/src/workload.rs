//! The per-message host workload, result fingerprinting, and the shared
//! deterministic seeding utility ([`Lcg`]) every reproducible workload
//! derives its "randomness" from.

use sm_sha1::{digest_to_index, sha1_iterated, Digest, Sha1};

use crate::message::{Message, Routing, SimConfig};

/// The deterministic 64-bit LCG (Knuth's MMIX constants) shared by the
/// netsim workloads, the bench binaries, and the integration tests — one
/// definition instead of a copy per call site. Runs are reproducible
/// without an RNG dependency: same seed, same stream, on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lcg(u64);

impl Lcg {
    /// The workspace's conventional seed for unsalted position streams
    /// (the historical `lcg_positions` constant).
    pub const DEFAULT_SEED: u64 = 0x2545_f491_4f6c_dd1d;

    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Lcg(seed)
    }

    /// A per-actor stream: `seed` salted with `id` via a golden-ratio
    /// multiply, so actors sharing one workload seed still draw
    /// decorrelated streams (the editor/tenant idiom).
    pub fn stream(seed: u64, id: usize) -> Self {
        Lcg(seed ^ ((id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// The next value: one MMIX step, top bits (`state >> 33`) — the
    /// well-mixed half of the state.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// The next value reduced below `bound` (`bound` 0 is treated as 1).
    pub fn next_below(&mut self, bound: usize) -> usize {
        (self.next() as usize) % bound.max(1)
    }
}

/// `n` deterministic scattered positions in `[0, bound)` from the
/// conventional seed — the shape every "scattered merge" scenario uses.
pub fn lcg_positions(n: usize, bound: usize) -> Vec<usize> {
    let mut lcg = Lcg::new(Lcg::DEFAULT_SEED);
    (0..n).map(|_| lcg.next_below(bound)).collect()
}

/// Process one message at `host`: run the (iterated) SHA-1 workload over
/// the payload, derive the destination, decrement the TTL.
///
/// Returns the digest the workload produced (for stats) and, unless this
/// was the final hop, the forwarded message with its destination host.
pub fn process_message(
    msg: &Message,
    host: usize,
    cfg: &SimConfig,
) -> (Digest, Option<(Message, usize)>) {
    let digest = sha1_iterated(&msg.payload, cfg.workload);
    let next_ttl = msg.ttl - 1;
    if next_ttl == 0 {
        return (digest, None);
    }
    let dest = match cfg.routing {
        // "the destination address is derived from the message payload
        // using cryptographic operations".
        Routing::HashDerived => digest_to_index(&digest, cfg.hosts),
        // "sending messages only to the node with the next higher id".
        Routing::NextHost => (host + 1) % cfg.hosts,
    };
    let forwarded = Message {
        id: msg.id,
        payload: digest,
        ttl: next_ttl,
    };
    (digest, Some((forwarded, dest)))
}

/// Per-host accumulation of observable results: how many messages the host
/// processed and a rolling digest over the payloads it produced, in its
/// local processing order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HostStats {
    /// Messages processed by this host.
    pub processed: u64,
    /// Rolling digest: `sha1(previous ‖ msg_id ‖ payload)` per processing.
    pub digest: Digest,
}

impl HostStats {
    /// Fold one processing into the stats.
    pub fn record(&mut self, msg_id: u32, payload: &Digest) {
        self.processed += 1;
        let mut h = Sha1::new();
        h.update(&self.digest);
        h.update(&msg_id.to_be_bytes());
        h.update(payload);
        self.digest = h.finalize();
    }
}

/// Combine per-host stats into one fingerprint (host order). Two runs that
/// processed the same messages in the same per-host order produce the same
/// fingerprint — the determinism witness used by the tests and the
/// Figure 3 harness.
pub fn fingerprint(stats: &[HostStats]) -> Digest {
    let mut h = Sha1::new();
    for s in stats {
        h.update(&s.processed.to_be_bytes());
        h.update(&s.digest);
    }
    h.finalize()
}

/// Total processings across hosts.
pub(crate) fn total_processed(stats: &[HostStats]) -> u64 {
    stats.iter().map(|s| s.processed).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_sha1::sha1;

    fn cfg(routing: Routing) -> SimConfig {
        SimConfig {
            hosts: 4,
            initial_messages: 4,
            ttl: 3,
            workload: 2,
            routing,
        }
    }

    #[test]
    fn lcg_streams_are_reproducible_and_decorrelated() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        let run: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let rerun: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(run, rerun, "same seed, same stream");

        let mut s0 = Lcg::stream(42, 0);
        let mut s1 = Lcg::stream(42, 1);
        assert_ne!(
            (0..8).map(|_| s0.next()).collect::<Vec<_>>(),
            (0..8).map(|_| s1.next()).collect::<Vec<_>>(),
            "salted streams differ per actor"
        );

        // The positions helper matches the historical inline generator.
        let mut x = Lcg::DEFAULT_SEED;
        let legacy: Vec<usize> = (0..8)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as usize) % 64
            })
            .collect();
        assert_eq!(lcg_positions(8, 64), legacy);
        // bound 0 must not divide by zero.
        assert_eq!(lcg_positions(3, 0), vec![0, 0, 0]);
    }

    #[test]
    fn process_decrements_ttl_and_rewrites_payload() {
        let cfg = cfg(Routing::HashDerived);
        let m = Message::initial(0, 3);
        let (digest, fwd) = process_message(&m, 0, &cfg);
        let (fwd, dest) = fwd.expect("ttl 3 forwards");
        assert_eq!(fwd.ttl, 2);
        assert_eq!(fwd.payload, digest);
        assert_eq!(digest, sha1_iterated(&m.payload, 2));
        assert!(dest < cfg.hosts);
    }

    #[test]
    fn final_hop_does_not_forward() {
        let cfg = cfg(Routing::HashDerived);
        let m = Message {
            id: 0,
            payload: [1; 20],
            ttl: 1,
        };
        let (_digest, fwd) = process_message(&m, 0, &cfg);
        assert!(fwd.is_none());
    }

    #[test]
    fn ring_routing_targets_next_host() {
        let cfg = cfg(Routing::NextHost);
        let m = Message::initial(0, 3);
        let (_d, fwd) = process_message(&m, 2, &cfg);
        assert_eq!(fwd.unwrap().1, 3);
        let (_d, fwd) = process_message(&m, 3, &cfg);
        assert_eq!(fwd.unwrap().1, 0, "ring wraps");
    }

    #[test]
    fn hash_routing_is_data_dependent_and_stable() {
        let cfg = cfg(Routing::HashDerived);
        let m = Message::initial(7, 3);
        let (_d1, f1) = process_message(&m, 0, &cfg);
        let (_d2, f2) = process_message(&m, 1, &cfg);
        assert_eq!(
            f1, f2,
            "hash routing ignores the sender; same input, same destination"
        );
    }

    #[test]
    fn zero_workload_still_hashes_once() {
        let cfg = SimConfig {
            workload: 0,
            ..cfg(Routing::HashDerived)
        };
        let m = Message::initial(0, 2);
        let (digest, _) = process_message(&m, 0, &cfg);
        assert_eq!(digest, sha1(&m.payload));
    }

    #[test]
    fn stats_accumulate_order_sensitively() {
        let mut a = HostStats::default();
        a.record(1, &[1; 20]);
        a.record(2, &[2; 20]);
        let mut b = HostStats::default();
        b.record(2, &[2; 20]);
        b.record(1, &[1; 20]);
        assert_eq!(a.processed, b.processed);
        assert_ne!(a.digest, b.digest, "processing order must be visible");
    }

    #[test]
    fn fingerprint_covers_all_hosts() {
        let mut s1 = vec![HostStats::default(), HostStats::default()];
        let s2 = s1.clone();
        assert_eq!(fingerprint(&s1), fingerprint(&s2));
        s1[1].record(0, &[9; 20]);
        assert_ne!(fingerprint(&s1), fingerprint(&s2));
        assert_eq!(total_processed(&s1), 1);
    }
}
