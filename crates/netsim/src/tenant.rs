//! A third evaluation workload: **multi-tenant session churn** against
//! the sharded session server (`sm-server`).
//!
//! The network simulator stresses queues and the document workload
//! stresses one shared state; this workload stresses *tenancy*: many
//! independent durable sessions in one server process, mixed
//! attach/edit/idle traffic, and broadcast fan-out between subscribers.
//!
//! Client threads partition the session space: a band of **shared**
//! sessions every client subscribes to (exercising fan-out and
//! concurrent-commit rebasing) plus per-client **owned** partitions
//! (exercising scale and eviction/rehydration churn). Every edit
//! position comes from the shared [`Lcg`] streams, so a run's content
//! is reproducible.
//!
//! Convergence is asserted two ways:
//!
//! * every subscriber of a session must end on the same `(seq, state
//!   digest)` — the state witness;
//! * every client's applied-broadcast stream is folded into its own
//!   [`DeterminismAuditor`] and diffed head-for-head against the
//!   server's auditor (when the caller installed one) — the *stream*
//!   witness: equal chain heads mean the subscriber applied exactly the
//!   bytes the server committed, in order.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sm_mergeable::MText;
use sm_net::Network;
use sm_obs::recorder::Recorder;
use sm_obs::{DeterminismAuditor, EventKind, ObsEvent, TaskPath};
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use sm_store::FsyncPolicy;

use crate::workload::Lcg;

/// Configuration of one multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Total distinct sessions (shared band included).
    pub sessions: usize,
    /// Sessions every client subscribes to (fan-out band). The rest are
    /// partitioned round-robin into per-client owned sets.
    pub shared_sessions: usize,
    /// Client threads, each one connection multiplexing its sessions.
    pub clients: usize,
    /// Commit rounds per client.
    pub rounds: usize,
    /// Commits per client per round.
    pub commits_per_round: usize,
    /// Mid-run churn: detach a third of each owned partition, wait out
    /// the idle horizon (forcing eviction), re-attach (forcing
    /// rehydration).
    pub churn: bool,
    /// Seed for the per-client edit streams.
    pub seed: u64,
    /// Server shards.
    pub shards: usize,
    /// Server idle-eviction horizon.
    pub idle_after: Duration,
    /// Root directory for the per-session journals.
    pub dir: PathBuf,
    /// Listener port on the run's private network.
    pub port: u16,
    /// Group-commit factor for the session journals
    /// ([`FsyncPolicy::EveryN`]).
    pub fsync_every_n: u32,
}

impl TenantConfig {
    /// A small correctness-sized run: 48 sessions, 4 clients.
    pub fn small(dir: impl Into<PathBuf>) -> Self {
        TenantConfig {
            sessions: 48,
            shared_sessions: 8,
            clients: 4,
            rounds: 4,
            commits_per_round: 8,
            churn: true,
            seed: 0x007e_4a17,
            shards: 4,
            idle_after: Duration::from_millis(50),
            dir: dir.into(),
            port: 4600,
            fsync_every_n: 64,
        }
    }

    /// The benchmark shape: ≥10⁴ concurrent sessions.
    pub fn bench(dir: impl Into<PathBuf>) -> Self {
        TenantConfig {
            sessions: 10_000,
            shared_sessions: 16,
            clients: 8,
            rounds: 3,
            commits_per_round: 64,
            churn: true,
            seed: 0x007e_4a17,
            shards: 8,
            idle_after: Duration::from_millis(100),
            dir: dir.into(),
            port: 4600,
            fsync_every_n: 1024,
        }
    }
}

/// Result of one multi-tenant run.
#[derive(Debug)]
pub struct TenantReport {
    /// Wall-clock time from building the network to a started server.
    pub build: Duration,
    /// Wall-clock time of the clients' run, attach to the last drain.
    pub elapsed: Duration,
    /// Wall-clock time of `SessionServer::shutdown`.
    pub shutdown: Duration,
    /// Distinct sessions touched.
    pub sessions: usize,
    /// Successful commits across all clients.
    pub commits: u64,
    /// Rejected commits (stale base etc.) across all clients.
    pub rejected: u64,
    /// Attach operations (first attaches plus churn re-attaches).
    pub attaches: u64,
    /// Churn re-attaches that rehydrated an evicted session.
    pub reattaches: u64,
    /// Re-attaches whose sequence did not match the pre-detach mirror
    /// (must be 0: eviction must not lose commits).
    pub seq_regressions: u64,
    /// `(session, seq, digest)` convergence groups checked.
    pub convergence_checks: usize,
    /// Sessions whose subscribers disagreed on `(seq, digest)` — must
    /// be empty.
    pub divergent_sessions: Vec<u64>,
    /// Per-client auditor chains that disagreed with the server's
    /// auditor (only populated when a server auditor was passed) — must
    /// be empty.
    pub divergent_chains: Vec<TaskPath>,
    /// Attach latencies, nanoseconds (includes churn re-attaches).
    pub attach_nanos: Vec<u64>,
    /// Blocking commit→confirmed-broadcast latencies, nanoseconds.
    pub commit_nanos: Vec<u64>,
}

struct ClientOutcome {
    attach_nanos: Vec<u64>,
    commit_nanos: Vec<u64>,
    commits: u64,
    rejected: u64,
    attaches: u64,
    reattaches: u64,
    seq_regressions: u64,
    /// Final `(seq, state digest)` per subscribed session.
    finals: Vec<(u64, u64, u64)>,
    /// Chain heads of this client's applied-broadcast auditor.
    heads: BTreeMap<TaskPath, u64>,
}

/// Run the multi-tenant workload. If the caller installed a
/// [`DeterminismAuditor`] as (part of) the global recorder, pass it as
/// `server_auditor` to also get the stream-level convergence diff.
pub fn run_tenants(
    cfg: &TenantConfig,
    server_auditor: Option<Arc<DeterminismAuditor>>,
) -> TenantReport {
    let built = Instant::now();
    let net = Network::new();
    let mut server_cfg = ServerConfig::new(&cfg.dir);
    server_cfg.shards = cfg.shards;
    server_cfg.idle_after = cfg.idle_after;
    // The workload sleeps through the churn window while other clients
    // keep broadcasting: give connections queue room instead of
    // declaring them slow.
    server_cfg.queue_cap = 1 << 14;
    server_cfg.store.fsync = FsyncPolicy::EveryN(cfg.fsync_every_n.max(1));
    let server = SessionServer::start(&net, cfg.port, server_cfg, || MText::from("doc: "))
        .expect("session server starts");
    let build = built.elapsed();

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(cfg.clients));
    let mut joins = Vec::new();
    for c in 0..cfg.clients {
        let cfg = cfg.clone();
        let net = net.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            client_thread(c, &cfg, &net, &barrier)
        }));
    }
    let outcomes: Vec<ClientOutcome> = joins
        .into_iter()
        .map(|j| j.join().expect("client thread panicked"))
        .collect();
    let elapsed = start.elapsed();
    let stopping = Instant::now();
    server.shutdown();
    let shutdown = stopping.elapsed();

    // State witness: every subscriber of a session ends on the same
    // (seq, digest).
    let mut by_session: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for out in &outcomes {
        for (session, seq, digest) in &out.finals {
            by_session
                .entry(*session)
                .or_default()
                .push((*seq, *digest));
        }
    }
    let mut divergent_sessions = Vec::new();
    for (session, views) in &by_session {
        if views.windows(2).any(|w| w[0] != w[1]) {
            divergent_sessions.push(*session);
        }
    }

    // Stream witness: each client's applied-broadcast chains must equal
    // the server's, on the sessions the client subscribed.
    let mut divergent_chains = Vec::new();
    if let Some(auditor) = &server_auditor {
        let server_heads = auditor.chain_heads();
        for out in &outcomes {
            let relevant: BTreeMap<TaskPath, u64> = out
                .heads
                .keys()
                .filter_map(|p| server_heads.get(p).map(|h| (p.clone(), *h)))
                .collect();
            divergent_chains.extend(DeterminismAuditor::diff_heads(&relevant, &out.heads));
        }
        divergent_chains.sort();
        divergent_chains.dedup();
    }

    let mut report = TenantReport {
        build,
        elapsed,
        shutdown,
        sessions: by_session.len(),
        commits: 0,
        rejected: 0,
        attaches: 0,
        reattaches: 0,
        seq_regressions: 0,
        convergence_checks: by_session.len(),
        divergent_sessions,
        divergent_chains,
        attach_nanos: Vec::new(),
        commit_nanos: Vec::new(),
    };
    for out in outcomes {
        report.commits += out.commits;
        report.rejected += out.rejected;
        report.attaches += out.attaches;
        report.reattaches += out.reattaches;
        report.seq_regressions += out.seq_regressions;
        report.attach_nanos.extend(out.attach_nanos);
        report.commit_nanos.extend(out.commit_nanos);
    }
    report
}

fn client_thread(c: usize, cfg: &TenantConfig, net: &Network, barrier: &Barrier) -> ClientOutcome {
    let shared = cfg.shared_sessions.min(cfg.sessions);
    let owned: Vec<u64> = (shared..cfg.sessions)
        .filter(|s| s % cfg.clients.max(1) == c)
        .map(|s| s as u64)
        .collect();
    let mut sessions: Vec<u64> = (0..shared as u64).chain(owned.iter().copied()).collect();
    sessions.sort_unstable();

    let mut client: SessionClient<MText> =
        SessionClient::connect(net, cfg.port).expect("client connects");
    let mut out = ClientOutcome {
        attach_nanos: Vec::new(),
        commit_nanos: Vec::new(),
        commits: 0,
        rejected: 0,
        attaches: 0,
        reattaches: 0,
        seq_regressions: 0,
        finals: Vec::new(),
        heads: BTreeMap::new(),
    };
    for &s in &sessions {
        let t0 = Instant::now();
        client.attach(s).expect("attach");
        out.attach_nanos.push(t0.elapsed().as_nanos() as u64);
        out.attaches += 1;
    }

    let mut lcg = Lcg::stream(cfg.seed, c);
    for round in 0..cfg.rounds {
        for k in 0..cfg.commits_per_round {
            // One commit in four goes to the shared band (when present).
            let s = if shared > 0 && lcg.next().is_multiple_of(4) {
                lcg.next_below(shared) as u64
            } else if owned.is_empty() {
                lcg.next_below(shared.max(1)) as u64
            } else {
                owned[lcg.next_below(owned.len())]
            };
            let r = lcg.next();
            let tag = format!("[c{c}r{round}k{k}]");
            let t0 = Instant::now();
            let outcome = client
                .commit_with(s, move |t| {
                    let pos = (r as usize) % (t.char_len() + 1);
                    t.insert_str(pos, tag);
                })
                .expect("commit");
            out.commit_nanos.push(t0.elapsed().as_nanos() as u64);
            match outcome {
                CommitOutcome::Committed { .. } => out.commits += 1,
                CommitOutcome::Rejected(_) => out.rejected += 1,
            }
        }
        client.pump_all(Duration::from_millis(1)).expect("pump");

        // Idle churn halfway through: evict a third of the owned
        // partition and take it back.
        if cfg.churn && round + 1 == cfg.rounds / 2 + 1 && !owned.is_empty() {
            let victims: Vec<u64> = owned.iter().copied().step_by(3).collect();
            let mut expected: Vec<(u64, u64)> = Vec::new();
            for &s in &victims {
                expected.push((s, client.seq(s).expect("mirror")));
                client.detach(s).expect("detach");
            }
            std::thread::sleep(cfg.idle_after + Duration::from_millis(150));
            for (s, seq_before) in expected {
                let t0 = Instant::now();
                let seq_after = client.attach(s).expect("re-attach");
                out.attach_nanos.push(t0.elapsed().as_nanos() as u64);
                out.attaches += 1;
                out.reattaches += 1;
                if seq_after < seq_before {
                    out.seq_regressions += 1;
                }
            }
        }
    }

    // Quiesce: once every client has finished committing, a ping's pong
    // is ordered behind all pending broadcasts on this connection.
    barrier.wait();
    client.ping().expect("ping");
    client.pump_all(Duration::from_millis(1)).expect("drain");

    // Fold this client's applied-broadcast stream into its own auditor
    // — the subscriber-side twin of the server's session_committed
    // chains.
    let auditor = DeterminismAuditor::new();
    for ev in client.drain_commit_events() {
        auditor.record(&ObsEvent {
            at: Instant::now(),
            task: TaskPath::root().child(ev.session),
            kind: EventKind::SessionCommitted {
                session: ev.session,
                seq: ev.seq,
                ops: ev.ops,
                digest: ev.digest,
            },
        });
    }
    out.heads = auditor.chain_heads();
    for &s in &sessions {
        if let (Some(seq), Some(digest)) = (client.seq(s), client.state_digest(s)) {
            out.finals.push((s, seq, digest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_obs::{install, uninstall, Recorder};

    /// Forwards only the session commit stream. The simulation tests of
    /// this binary run concurrently without the recorder lock, and their
    /// task paths (`0/1`, `0/2`, …) are this workload's session paths:
    /// unfiltered, their events would fold into the server's chains.
    struct SessionStream(Arc<DeterminismAuditor>);

    impl Recorder for SessionStream {
        fn record(&self, event: &ObsEvent) {
            if matches!(event.kind, EventKind::SessionCommitted { .. }) {
                self.0.record(event);
            }
        }
    }

    #[test]
    fn multi_tenant_workload_converges() {
        let _guard = crate::recorder_lock();
        let dir = std::env::temp_dir().join(format!("sm-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let auditor = Arc::new(DeterminismAuditor::new());
        install(Arc::new(SessionStream(auditor.clone())));

        let cfg = TenantConfig::small(&dir);
        let wall = Instant::now();
        let report = run_tenants(&cfg, Some(auditor));
        let wall = wall.elapsed();
        uninstall();
        let _ = std::fs::remove_dir_all(&dir);

        assert!(report.commits > 0, "workload must commit");
        assert_eq!(report.divergent_sessions, Vec::<u64>::new());
        assert_eq!(report.divergent_chains, Vec::new());
        assert_eq!(report.seq_regressions, 0, "eviction must not lose commits");
        assert!(
            report.reattaches > 0,
            "churn must actually exercise re-attach"
        );
        assert_eq!(report.sessions, cfg.sessions);
        assert_eq!(
            report.commits + report.rejected,
            (cfg.clients * cfg.rounds * cfg.commits_per_round) as u64
        );
        assert!(!report.commit_nanos.is_empty() && !report.attach_nanos.is_empty());
        // Every phase is timed, and none twice.
        let phases = report.build + report.elapsed + report.shutdown;
        assert!(phases <= wall, "{phases:?} of phases in {wall:?}");
        assert!(report.build > Duration::ZERO && report.shutdown > Duration::ZERO);
    }
}
