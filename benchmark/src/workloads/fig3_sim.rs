//! `fig3_sim`: the paper's own measurement — one Spawn & Merge network
//! simulation at paper scale with host workload l = 0, the intercept of
//! Figure 3, where synchronisation is the whole cost.
//!
//! It uses `sm-core` the opposite way to `merge_fanout`: hundreds of
//! narrow `Sync`/`MergeAll` rounds over a composite of queues, counters
//! and registers. A change that speeds wide staged merges by taxing
//! small ones shows here.
//!
//! The simulation has no free input: its messages are fixed by the
//! paper's configuration, so `--seed` does not change this workload.

use std::time::Instant;

use spawn_merge::netsim::{run_setup, Routing, Setup, SimConfig};
use spawn_merge::sha1::sha1;

use crate::gen::{fnv, Fnv};
use crate::harness::{Failures, Layers, Workload};
use crate::stats;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Host workload l: SHA-1 iterations per processed message.
    pub host_workload: usize,
    /// Timed simulations per round.
    pub ops_per_round: usize,
}

pub const PARAMS: Params = Params {
    host_workload: 0,
    ops_per_round: 6,
};

pub struct Fig3Sim {
    p: Params,
    cfg: SimConfig,
    next_op: u64,
    /// `(fingerprint, total_processed, rounds)` of every timed op of the
    /// round, and the ops' durations.
    seen: Vec<([u8; 20], u64, u64, u64)>,
}

impl Fig3Sim {
    pub fn new() -> Self {
        Self::with_params(PARAMS)
    }

    pub fn with_params(p: Params) -> Self {
        Fig3Sim {
            p,
            cfg: SimConfig::paper(p.host_workload, Routing::HashDerived),
            next_op: 0,
            seen: Vec::new(),
        }
    }
}

impl Workload for Fig3Sim {
    fn name(&self) -> &'static str {
        "fig3_sim"
    }

    fn input_digest(&self) -> u64 {
        let c = &self.cfg;
        let mut d = Fnv::default();
        for v in [c.hosts, c.initial_messages, c.ttl as usize, c.workload] {
            d.u64(v as u64);
        }
        d.0
    }

    fn params(&self) -> String {
        format!("{:?} {:?}", self.p, self.cfg)
    }

    /// One warm-up simulation.
    fn setup(&mut self, _t: &mut Tracer, f: &mut Failures) {
        self.seen.clear();
        let warm = run_setup(Setup::SpawnMergeNonDet, &self.cfg);
        if warm.total_processed != self.cfg.expected_hops() {
            f.fail(|| "warm-up simulation lost hops".into());
        }
    }

    fn ops(&mut self, t: &mut Tracer, ops: &mut Vec<u64>, f: &mut Failures) {
        for _ in 0..self.p.ops_per_round {
            t.set_op(self.next_op);
            self.next_op += 1;
            f.attempt();
            let span = t.begin("netsim.run");
            let t0 = Instant::now();
            let r = run_setup(Setup::SpawnMergeNonDet, &self.cfg);
            let took = t0.elapsed().as_nanos() as u64;
            t.end(span);
            if r.total_processed == self.cfg.expected_hops() {
                ops.push(took);
                self.seen
                    .push((r.fingerprint, r.total_processed, r.rounds, took));
            } else {
                f.fail(|| format!("lost hops: {} processed", r.total_processed));
            }
        }
    }

    fn finish(&mut self, _t: &mut Tracer, layers: &mut Layers, f: &mut Failures) -> u64 {
        let Some(&(first, hops, rounds, _)) = self.seen.first() else {
            return 0;
        };
        if self.seen.iter().any(|(fp, ..)| *fp != first) {
            f.fail(|| "the fingerprint changed between simulations".into());
        }
        layers.sample("netsim.hops", hops as f64);
        layers.sample("netsim.rounds", rounds as f64);
        let per_round: Vec<f64> = self
            .seen
            .iter()
            .map(|(_, _, rounds, took)| *took as f64 / (*rounds).max(1) as f64)
            .collect();
        layers.sample("core.round_ns", stats::median(&per_round));
        fnv(&first)
    }

    /// The conventional (threads + locks) simulator on the same
    /// configuration, and the raw digest the hosts compute per hop.
    fn probes(&mut self, layers: &mut Layers) {
        let runs: Vec<u64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(run_setup(Setup::ConventionalNonDet, &self.cfg));
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        layers.sample("netsim.conventional_run_us", stats::median_ns(&runs) / 1e3);

        let mut payload = [7u8; 20];
        let batches: Vec<u64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..10_000 {
                    payload = sha1(std::hint::black_box(&payload));
                }
                t0.elapsed().as_nanos() as u64 / 10_000
            })
            .collect();
        std::hint::black_box(payload);
        layers.sample_median_ns("sha1.digest_ns", &batches);
    }
}
