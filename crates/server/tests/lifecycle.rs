//! Session lifecycle durability (one test body: it owns the process-wide
//! recorder slot), stepped on the test's thread:
//!
//! * evict-then-attach rehydrates **bit-identical** state — witnessed by
//!   the `DeterminismAuditor`: a run whose session is evicted and
//!   rehydrated mid-stream produces exactly the same per-session commit
//!   digest chains as a run that never evicted;
//! * a crash with the session resident (the shard dropped without
//!   `stop`, so no eviction snapshot is written) recovers via the journal
//!   suffix alone, again bit-identically.

mod step;

use std::collections::BTreeMap;
use std::sync::Arc;

use sm_mergeable::MText;
use sm_obs::metrics::MetricsSnapshot;
use sm_obs::{install, uninstall, DeterminismAuditor, Metrics, MultiRecorder, TaskPath};
use sm_server::{CommitOutcome, ServerConfig};
use step::{tmpdir, Stepped};

const SESSION: u64 = 0xC0FFEE;
/// Fork-base ring length. The scenario commits more than two ring
/// lengths before the eviction, so the head's history has been truncated
/// to the ring window (twice) by the time it is evicted and rehydrated.
const RING: usize = 4;
/// Commits before the eviction point / in the whole scenario.
const BEFORE_EVICT: u64 = 2 + 2 * RING as u64 + 1;
const TOTAL: u64 = BEFORE_EVICT + 1;

#[derive(Clone, Copy)]
enum Leave {
    /// Stay attached throughout.
    Never,
    /// Detach and let the idle scan evict the session.
    Evicted,
    /// Drop the shard with the session resident, and restart it.
    Crashed,
}

struct RunResult {
    state_digest: u64,
    final_seq: u64,
    heads: BTreeMap<TaskPath, u64>,
    metrics: MetricsSnapshot,
}

/// Drive [`TOTAL`] commits on one session, leaving it after
/// [`BEFORE_EVICT`] commits as `leave` says, then re-attaching for the
/// last commit.
fn run_scenario(tag: &str, leave: Leave) -> RunResult {
    let dir = tmpdir(tag);
    let metrics = Arc::new(Metrics::new());
    let auditor = Arc::new(DeterminismAuditor::new());
    install(Arc::new(MultiRecorder::new(vec![
        metrics.clone(),
        auditor.clone(),
    ])));

    let mut cfg = ServerConfig::new(&dir);
    cfg.ring = RING;
    let mut shard = Stepped::new(cfg, || MText::from("seed. "));
    let client = shard.connect();
    assert_eq!(shard.attach(client, SESSION), 0);
    assert_eq!(
        shard.commit(client, SESSION, |t| t.insert_str(0, "[one]")),
        CommitOutcome::Committed { seq: 1 }
    );
    assert_eq!(
        shard.commit(client, SESSION, |t| {
            let len = t.char_len();
            t.insert_str(len, "[two]")
        }),
        CommitOutcome::Committed { seq: 2 }
    );
    for seq in 3..=BEFORE_EVICT {
        let out = shard.commit(client, SESSION, |t| t.insert_str(3, format!("<{seq}>")));
        assert_eq!(out, CommitOutcome::Committed { seq });
    }

    match leave {
        Leave::Never => {}
        Leave::Evicted => {
            shard.detach(client, SESSION);
            shard.idle();
            let snap = metrics.snapshot();
            assert_eq!(snap.sessions_evicted, 1, "the idle scan evicts");
            assert_eq!(snap.sessions_active(), 0, "evicted session still active");
        }
        Leave::Crashed => shard.crash_and_restart(),
    }
    if !matches!(leave, Leave::Never) {
        // Re-attach: the shard must rehydrate from the store.
        assert_eq!(
            shard.attach(client, SESSION),
            BEFORE_EVICT,
            "seq must survive eviction"
        );
        assert_eq!(
            metrics.snapshot().sessions_rehydrated,
            1,
            "attach did not rehydrate"
        );
    }

    assert_eq!(
        shard.commit(client, SESSION, |t| t.insert_str(6, "[last]")),
        CommitOutcome::Committed { seq: TOTAL }
    );

    let mirrors = shard.mirrors(client);
    let result = RunResult {
        state_digest: mirrors.state_digest(SESSION).unwrap(),
        final_seq: mirrors.seq(SESSION).unwrap(),
        heads: auditor.chain_heads(),
        metrics: metrics.snapshot(),
    };
    shard.stop();
    uninstall();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn eviction_and_crash_rehydration_are_bit_identical() {
    let baseline = run_scenario("lifecycle-baseline", Leave::Never);
    // Evicted with a published snapshot (the fast rehydration path).
    let evicted = run_scenario("lifecycle-evict", Leave::Evicted);
    // Crashed with the session resident: no eviction snapshot exists, so
    // rehydration replays the journal suffix.
    let crashed = run_scenario("lifecycle-crash", Leave::Crashed);

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

    // Lifecycle accounting (read before each run's final stop): only the
    // evicting run evicted; the crash run rehydrated by replaying
    // journaled ops (no snapshot to shortcut it).
    assert_eq!(evicted.metrics.sessions_evicted, 1);
    assert_eq!(
        crashed.metrics.sessions_evicted, 0,
        "a crash evicts nothing"
    );
    assert_eq!(baseline.metrics.sessions_evicted, 0);
    assert!(
        crashed.metrics.session_rehydrate_replayed_ops > 0,
        "crash rehydration must have replayed the journal suffix"
    );
    // Every run truncated its head to the ring window along the way.
    for run in [&baseline, &evicted, &crashed] {
        assert!(run.metrics.log_truncations >= 2);
    }
}
