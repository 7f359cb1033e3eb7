//! Functional validation of the Figure 3 experiment setups (the timing
//! sweep itself lives in `sm-bench`): all four setups conserve work, the
//! Spawn & Merge setups are deterministic, and the two implementations
//! agree exactly where the paper's argument says they must.

use spawn_merge::netsim::{run_setup, Routing, Setup, SimConfig};

#[test]
fn paper_scale_zero_workload_all_setups_conserve_hops() {
    // Full 20 hosts / 100 messages / TTL 100 at l = 0: 10 000 processings.
    let cfg = SimConfig::paper(0, Routing::HashDerived);
    for setup in Setup::ALL {
        let r = run_setup(setup, &cfg);
        assert_eq!(r.total_processed, 10_000, "{}", setup.label());
        assert!(r.stats.iter().any(|s| s.processed > 0));
    }
}

#[test]
fn spawn_merge_hash_routing_identical_across_five_runs() {
    let cfg = SimConfig {
        hosts: 6,
        initial_messages: 18,
        ttl: 12,
        workload: 3,
        routing: Routing::HashDerived,
    };
    let first = run_setup(Setup::SpawnMergeNonDet, &cfg);
    for _ in 0..4 {
        let r = run_setup(Setup::SpawnMergeNonDet, &cfg);
        assert_eq!(r.fingerprint, first.fingerprint);
        assert_eq!(
            r.stats.iter().map(|s| s.processed).collect::<Vec<_>>(),
            first.stats.iter().map(|s| s.processed).collect::<Vec<_>>()
        );
    }
}

#[test]
fn spawn_merge_determinism_independent_of_parallelism() {
    // Same program, pools of different warmth → identical outcome. (The
    // paper: "regardless of the number of cores they are executed on".)
    use spawn_merge::netsim::spawnmerge::run_spawn_merge_with_pool;
    use spawn_merge::Pool;

    let cfg = SimConfig {
        hosts: 5,
        initial_messages: 15,
        ttl: 10,
        workload: 2,
        routing: Routing::HashDerived,
    };
    let cold = run_spawn_merge_with_pool(&cfg, Pool::new());
    let warm_pool = Pool::new();
    for _ in 0..8 {
        warm_pool.execute(|| std::thread::sleep(std::time::Duration::from_millis(1)));
    }
    let warm = run_spawn_merge_with_pool(&cfg, warm_pool);
    assert_eq!(cold.fingerprint, warm.fingerprint);
}

#[test]
fn ring_variants_agree_across_implementations() {
    // With ring routing each queue has a single producer, so both the
    // conventional and the Spawn & Merge implementation process identical
    // per-host sequences: fingerprints must match exactly.
    let cfg = SimConfig {
        hosts: 5,
        initial_messages: 10,
        ttl: 8,
        workload: 1,
        routing: Routing::NextHost,
    };
    let conv = run_setup(Setup::ConventionalDet, &cfg);
    let sm = run_setup(Setup::SpawnMergeDet, &cfg);
    assert_eq!(conv.fingerprint, sm.fingerprint);
    assert_eq!(conv.total_processed, sm.total_processed);
}

#[test]
fn workload_changes_results_but_not_counts() {
    let mk = |l| SimConfig {
        hosts: 4,
        initial_messages: 8,
        ttl: 6,
        workload: l,
        routing: Routing::HashDerived,
    };
    let a = run_setup(Setup::SpawnMergeNonDet, &mk(0));
    let b = run_setup(Setup::SpawnMergeNonDet, &mk(5));
    assert_eq!(a.total_processed, b.total_processed);
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "workload feeds the payload digests"
    );
}

#[test]
fn single_host_single_message_edge_case() {
    // Smallest possible simulation: 1 host, 1 message bouncing to itself.
    let cfg = SimConfig {
        hosts: 1,
        initial_messages: 1,
        ttl: 5,
        workload: 0,
        routing: Routing::NextHost,
    };
    for setup in Setup::ALL {
        let r = run_setup(setup, &cfg);
        assert_eq!(r.total_processed, 5, "{}", setup.label());
        assert_eq!(r.stats[0].processed, 5);
    }
}

#[test]
fn ttl_one_messages_die_immediately() {
    let cfg = SimConfig {
        hosts: 3,
        initial_messages: 9,
        ttl: 1,
        workload: 0,
        routing: Routing::HashDerived,
    };
    for setup in Setup::ALL {
        let r = run_setup(setup, &cfg);
        assert_eq!(r.total_processed, 9, "{}", setup.label());
    }
}

/// The paper-scale l = 0 simulation, pinned: `host_task`'s port to round
/// tasks must reproduce its every hop and round.
#[test]
fn paper_scale_zero_workload_spawn_merge_is_pinned() {
    let r = run_setup(
        Setup::SpawnMergeNonDet,
        &SimConfig::paper(0, Routing::HashDerived),
    );
    let hex: String = r.fingerprint.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "6f7be1da6c5efe409b3d2da8fc5a96cd1177163c");
    assert_eq!(r.rounds, 575);
    assert_eq!(r.total_processed, 10_000);
}
