//! Idle eviction runs on ticks, not on an empty command queue: a session
//! left without subscribers is evicted while another session on the same
//! shard keeps it busy with commits. (One test body: it owns the
//! process-wide recorder slot.)

use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_mergeable::MText;
use sm_net::Network;
use sm_obs::{install, uninstall, Metrics};
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};

const IDLE: u64 = 1;
const BUSY: u64 = 2;

#[test]
fn an_idle_session_is_evicted_while_its_shard_keeps_committing() {
    let dir = std::env::temp_dir().join(format!("sm-eviction-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Arc::new(Metrics::new());
    install(metrics.clone());

    let mut cfg = ServerConfig::new(&dir);
    cfg.shards = 1;
    cfg.idle_after = Duration::from_millis(30);
    let net = Network::new();
    let server =
        SessionServer::start(&net, 4600, cfg, || MText::from("seed. ")).expect("server starts");
    let mut client: SessionClient<MText> = SessionClient::connect(&net, 4600).unwrap();
    assert_eq!(client.attach(IDLE).unwrap(), 0);
    assert_eq!(client.attach(BUSY).unwrap(), 0);
    client.detach(IDLE).unwrap();

    // Back-to-back commits: the shard's queue never stays empty for a
    // whole tick, so only a time-based scan can evict the idle session.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seq = 0;
    while metrics.snapshot().sessions_evicted == 0 {
        assert!(
            Instant::now() < deadline,
            "the idle session was never evicted"
        );
        seq += 1;
        let out = client.commit_with(BUSY, |t| t.insert_str(0, "x")).unwrap();
        assert_eq!(out, CommitOutcome::Committed { seq });
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.sessions_evicted, 1, "only the idle session goes");
    assert_eq!(snap.sessions_active(), 1, "the busy session stays resident");

    server.shutdown();
    uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}
