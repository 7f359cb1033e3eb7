//! Session lifecycle durability (one test body: it owns the process-wide
//! recorder slot):
//!
//! * evict-then-attach rehydrates **bit-identical** state — witnessed by
//!   the `DeterminismAuditor`: a run whose session is evicted and
//!   rehydrated mid-stream produces exactly the same per-session commit
//!   digest chains as a run that never evicted;
//! * a crash between eviction and snapshot publish (modelled by
//!   `snapshot_on_evict = false`: the eviction syncs the WAL but never
//!   writes the snapshot) recovers via the journal suffix alone, again
//!   bit-identically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_mergeable::MText;
use sm_net::Network;
use sm_obs::metrics::MetricsSnapshot;
use sm_obs::{install, uninstall, DeterminismAuditor, Metrics, MultiRecorder, TaskPath};
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use std::collections::BTreeMap;

const SESSION: u64 = 0xC0FFEE;
/// Fork-base ring length. The scenario commits more than two ring
/// lengths before the eviction, so the head's history has been truncated
/// to the ring window (twice) by the time it is evicted and rehydrated.
const RING: usize = 4;
/// Commits before the eviction point / in the whole scenario.
const BEFORE_EVICT: u64 = 2 + 2 * RING as u64 + 1;
const TOTAL: u64 = BEFORE_EVICT + 1;

struct RunResult {
    state_digest: u64,
    final_seq: u64,
    heads: BTreeMap<TaskPath, u64>,
    metrics: MetricsSnapshot,
}

/// Drive [`TOTAL`] commits on one session. `evict` = None: stay attached
/// throughout. `evict` = Some(snapshot_on_evict): detach after
/// [`BEFORE_EVICT`] commits, wait for the idle eviction, re-attach, then
/// make the last commit against the rehydrated state.
fn run_scenario(tag: &str, port: u16, evict: Option<bool>) -> RunResult {
    let dir = std::env::temp_dir().join(format!("sm-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = Arc::new(Metrics::new());
    let auditor = Arc::new(DeterminismAuditor::new());
    install(Arc::new(MultiRecorder::new(vec![
        metrics.clone(),
        auditor.clone(),
    ])));

    let mut cfg = ServerConfig::new(&dir);
    cfg.shards = 2;
    cfg.idle_after = Duration::from_millis(50);
    cfg.ring = RING;
    cfg.snapshot_on_evict = evict.unwrap_or(true);
    let net = Network::new();
    let server =
        SessionServer::start(&net, port, cfg, || MText::from("seed. ")).expect("server starts");

    let mut client: SessionClient<MText> = SessionClient::connect(&net, port).unwrap();
    assert_eq!(client.attach(SESSION).unwrap(), 0);
    assert!(matches!(
        client
            .commit_with(SESSION, |t| t.insert_str(0, "[one]"))
            .unwrap(),
        CommitOutcome::Committed { seq: 1 }
    ));
    assert!(matches!(
        client
            .commit_with(SESSION, |t| {
                let len = t.char_len();
                t.insert_str(len, "[two]")
            })
            .unwrap(),
        CommitOutcome::Committed { seq: 2 }
    ));
    for seq in 3..=BEFORE_EVICT {
        let out = client
            .commit_with(SESSION, |t| t.insert_str(3, format!("<{seq}>")))
            .unwrap();
        assert_eq!(out, CommitOutcome::Committed { seq });
    }

    if evict.is_some() {
        client.detach(SESSION).unwrap();
        // Wait for the idle scan to actually evict the session.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = metrics.snapshot();
            if snap.sessions_evicted >= 1 {
                assert_eq!(snap.sessions_active(), 0, "evicted session still active");
                break;
            }
            assert!(Instant::now() < deadline, "session was never evicted");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Re-attach: the shard must rehydrate from the store.
        assert_eq!(
            client.attach(SESSION).unwrap(),
            BEFORE_EVICT,
            "seq must survive eviction"
        );
        let snap = metrics.snapshot();
        assert!(snap.sessions_rehydrated >= 1, "attach did not rehydrate");
    }

    assert_eq!(
        client
            .commit_with(SESSION, |t| t.insert_str(6, "[last]"))
            .unwrap(),
        CommitOutcome::Committed { seq: TOTAL }
    );

    let result = RunResult {
        state_digest: client.state_digest(SESSION).unwrap(),
        final_seq: client.seq(SESSION).unwrap(),
        heads: auditor.chain_heads(),
        metrics: metrics.snapshot(),
    };
    server.shutdown();
    uninstall();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn eviction_and_crash_rehydration_are_bit_identical() {
    // Baseline: never evicted.
    let baseline = run_scenario("baseline", 4500, None);
    // Evicted with a published snapshot (the fast rehydration path).
    let evicted = run_scenario("evict", 4501, Some(true));
    // "Crashed" between eviction and snapshot publish: the WAL is
    // synced but no snapshot exists, so rehydration replays the
    // journal suffix from the genesis snapshot.
    let crashed = run_scenario("crash", 4502, Some(false));

    for run in [&baseline, &evicted, &crashed] {
        assert_eq!(run.final_seq, TOTAL);
    }

    // The rehydrated runs must be indistinguishable from the baseline:
    // same final state bytes, same commit digest chains.
    assert_eq!(baseline.state_digest, evicted.state_digest);
    assert_eq!(baseline.state_digest, crashed.state_digest);
    assert_eq!(
        DeterminismAuditor::diff_heads(&baseline.heads, &evicted.heads),
        Vec::new(),
        "eviction+rehydration must not perturb the commit digest chains"
    );
    assert_eq!(
        DeterminismAuditor::diff_heads(&baseline.heads, &crashed.heads),
        Vec::new(),
        "journal-only recovery must not perturb the commit digest chains"
    );
    assert!(
        !baseline.heads.is_empty(),
        "the auditor must have seen the session commits"
    );

    // Lifecycle accounting: both evicting runs evicted and rehydrated;
    // the crash run rehydrated by replaying journaled ops (no snapshot
    // to shortcut it).
    assert!(evicted.metrics.sessions_evicted >= 1);
    assert!(crashed.metrics.sessions_evicted >= 1);
    assert!(evicted.metrics.sessions_rehydrated >= 1);
    assert!(crashed.metrics.sessions_rehydrated >= 1);
    assert!(
        crashed.metrics.session_rehydrate_replayed_ops > 0,
        "crash-window rehydration must have replayed the journal suffix"
    );
    assert_eq!(baseline.metrics.sessions_evicted, 0);
    // Every run truncated its head to the ring window along the way.
    for run in [&baseline, &evicted, &crashed] {
        assert!(run.metrics.log_truncations >= 2);
    }
}
