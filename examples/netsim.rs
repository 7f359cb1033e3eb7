//! The paper's **simulation software** example (listing 4, §II-H): a
//! message-passing network of hosts, run through all four evaluation
//! setups, demonstrating the headline claim — with Spawn & Merge even the
//! "non-deterministic" simulation content produces identical results on
//! every run, while the conventional implementation's results depend on
//! thread timing.
//!
//! ```text
//! cargo run --release --example netsim
//! ```

use spawn_merge::netsim::{run_setup, Routing, Setup, SimConfig};
use spawn_merge::sha1::to_hex;

fn main() {
    // A scaled-down configuration so the example finishes in seconds; the
    // full 20/100/100 evaluation lives in `sm-bench --bin figure3`.
    let cfg = SimConfig {
        hosts: 8,
        initial_messages: 32,
        ttl: 24,
        workload: 50,
        routing: Routing::HashDerived,
    };
    println!(
        "simulating {} hosts, {} messages, TTL {}, workload {} SHA-1 iterations\n",
        cfg.hosts, cfg.initial_messages, cfg.ttl, cfg.workload
    );

    const RUNS: usize = 5;
    for setup in Setup::ALL {
        let mut fingerprints = std::collections::BTreeSet::new();
        let mut elapsed_total = std::time::Duration::ZERO;
        for _ in 0..RUNS {
            let r = run_setup(setup, &cfg);
            assert_eq!(r.total_processed, cfg.expected_hops());
            fingerprints.insert(to_hex(&r.fingerprint));
            elapsed_total += r.elapsed;
        }
        let deterministic = fingerprints.len() == 1;
        println!(
            "{:<28} {} distinct outcome(s) over {} runs — {:<18} avg {:>7.1?}",
            setup.label(),
            fingerprints.len(),
            RUNS,
            if deterministic {
                "deterministic"
            } else {
                "NON-deterministic"
            },
            elapsed_total / RUNS as u32,
        );
        match setup {
            // Spawn & Merge setups must always be deterministic.
            Setup::SpawnMergeDet | Setup::SpawnMergeNonDet => assert!(deterministic),
            // The conventional ring variant is deterministic by topology.
            Setup::ConventionalDet => assert!(deterministic),
            // Hash routing + locks may (and usually does) vary run-to-run;
            // no assertion — non-determinism is not guaranteed, only
            // permitted, which is exactly the problem the paper attacks.
            Setup::ConventionalNonDet => {}
        }
    }

    println!("\nThe Spawn & Merge rows are the paper's point: same program shape,");
    println!("same hash-derived routing, but MergeAll serializes every round —");
    println!("one outcome, every run, on any number of cores.");
}
