//! The **Spawn & Merge** simulator — listing 4 of the paper.
//!
//! One task per host; the shared state is a vector of mergeable queues
//! (plus per-host result accumulators and a shutdown flag). Each host round
//! (`spawn_rounds`) is: `Sync()` (merge my changes into the parent, get
//! fresh data), pop my queue, hash, push to the destination queue. The root
//! drives deterministic rounds with `MergeAll`, so **both** routing
//! variants produce identical results on every run — "using Spawn and
//! Merge also the 'non-deterministic' test setup becomes deterministic".
//!
//! Termination (the paper's listing loops forever): messages carry a TTL,
//! so queues eventually drain; the root observes all-empty queues at a
//! round boundary, raises the mergeable `done` flag, and hosts exit after
//! their next sync. At a round boundary no message is "in flight": a
//! host's pop and push from one iteration are merged atomically by the
//! same sync.

use std::time::Instant;

use sm_core::{run_with_pool, Pool, Round, RoundCtx, SyncError, TaskAbort};
use sm_mergeable::{mergeable_struct, MCounter, MQueue, MRegister};
use sm_sha1::Digest;

use crate::message::{Message, SimConfig};
use crate::workload::{fingerprint, process_message, total_processed, HostStats};
use crate::SimResult;

mergeable_struct! {
    /// The simulation's shared mergeable state (the paper's
    /// `messageQueues`, plus result accumulators and a shutdown flag).
    #[derive(Debug, Clone)]
    pub struct SimData {
        /// One inbox per host.
        pub queues: Vec<MQueue<Message>>,
        /// Per-host processed counters.
        pub processed: Vec<MCounter>,
        /// Per-host rolling result digests (each host writes only its own
        /// register, so there are never register conflicts).
        pub digests: Vec<MRegister<Digest>>,
        /// Root → hosts shutdown broadcast.
        pub done: MRegister<bool>,
    }
}

impl SimData {
    /// Initial state for a configuration.
    pub fn initial(cfg: &SimConfig) -> Self {
        SimData {
            queues: cfg
                .initial_queues()
                .into_iter()
                .map(MQueue::from_vec)
                .collect(),
            processed: (0..cfg.hosts).map(|_| MCounter::new(0)).collect(),
            digests: (0..cfg.hosts).map(|_| MRegister::new([0u8; 20])).collect(),
            done: MRegister::new(false),
        }
    }
}

/// One iteration of the host task (the paper's `host(hostID, queues)`).
fn host_round(h: usize, cfg: &SimConfig, ctx: &mut RoundCtx<SimData>) -> Result<Round, TaskAbort> {
    // Sync: merge our previous iteration's changes, receive fresh data.
    match ctx.synced() {
        None => return Ok(Round::Sync), // the first round only syncs
        Some(Ok(())) => {}
        // Shutdown paths: the root is winding the simulation down.
        Some(Err(SyncError::Aborted)) => return Ok(Round::Done),
        Some(Err(e)) => return Err(e.into()),
    }
    if *ctx.data().done.get() {
        return Ok(Round::Done);
    }
    let Some(msg) = ctx.data_mut().queues[h].pop_front() else {
        return Ok(Round::Sync); // empty inbox this round
    };
    let (digest, forwarded) = process_message(&msg, h, cfg);

    let data = ctx.data_mut();
    data.processed[h].inc();
    let mut stats = HostStats {
        processed: 0,
        digest: *data.digests[h].get(),
    };
    stats.record(msg.id, &digest);
    data.digests[h].set(stats.digest);
    if let Some((m, dest)) = forwarded {
        data.queues[dest].push_back(m);
    }
    Ok(Round::Sync)
}

/// Run the Spawn & Merge simulation on the given pool.
pub fn run_spawn_merge_with_pool(cfg: &SimConfig, pool: Pool) -> SimResult {
    let data = SimData::initial(cfg);
    let start = Instant::now();
    let mut rounds: u64 = 0;

    let (final_data, ()) = run_with_pool(data, pool, |ctx| {
        for h in 0..cfg.hosts {
            let cfg = *cfg;
            ctx.spawn_rounds(move |c| host_round(h, &cfg, c));
        }
        // Deterministic simulation rounds: each MergeAll merges every
        // host's sync (or completion) in creation order.
        loop {
            ctx.merge_all();
            rounds += 1;
            ctx.mark(|| format!("netsim round {rounds}"));
            if ctx.live_children() == 0 {
                break;
            }
            let d = ctx.data();
            if !*d.done.get() && d.queues.iter().all(MQueue::is_empty) {
                ctx.data_mut().done.set(true);
            }
        }
    });
    let elapsed = start.elapsed();

    let stats: Vec<HostStats> = (0..cfg.hosts)
        .map(|h| HostStats {
            processed: final_data.processed[h].get() as u64,
            digest: *final_data.digests[h].get(),
        })
        .collect();

    SimResult {
        elapsed,
        fingerprint: fingerprint(&stats),
        total_processed: total_processed(&stats),
        stats,
        rounds,
    }
}

/// Run the Spawn & Merge simulation on a fresh pool.
pub fn run_spawn_merge(cfg: &SimConfig) -> SimResult {
    run_spawn_merge_with_pool(cfg, Pool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Routing;

    #[test]
    fn processes_every_hop() {
        let cfg = SimConfig::small(0, Routing::HashDerived);
        let r = run_spawn_merge(&cfg);
        assert_eq!(r.total_processed, cfg.expected_hops());
    }

    #[test]
    fn hash_routing_is_deterministic_under_spawn_merge() {
        // The headline claim: even the "non-deterministic" simulation
        // content yields identical results every run.
        let cfg = SimConfig::small(1, Routing::HashDerived);
        let a = run_spawn_merge(&cfg);
        let b = run_spawn_merge(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.total_processed, cfg.expected_hops());
    }

    #[test]
    fn ring_routing_is_deterministic_under_spawn_merge() {
        let cfg = SimConfig::small(1, Routing::NextHost);
        let a = run_spawn_merge(&cfg);
        let b = run_spawn_merge(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn rounds_are_counted() {
        let cfg = SimConfig::small(0, Routing::NextHost);
        let r = run_spawn_merge(&cfg);
        assert!(r.rounds > 0);
    }
}
