//! Scalability sweep — the paper's future-work question: *"We will use
//! these optimizations to reason about the generality and scalability of
//! our approach"* (§VI).
//!
//! Holds the total simulated work constant and sweeps the number of hosts
//! (= tasks), comparing the Spawn & Merge simulator against the
//! conventional one. Reported per point: wall time, Spawn & Merge merge
//! rounds, and the SM/conventional ratio.
//!
//! ```text
//! cargo run --release -p sm-bench --bin scalability [-- --workload N]
//! ```

use sm_bench::{install_metrics, write_metrics_sidecar};
use sm_netsim::{run_setup, Routing, Setup, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Machine-readable sidecar: aggregate runtime telemetry for the run.
    let metrics = install_metrics();
    let workload = args
        .iter()
        .position(|a| a == "--workload")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(100usize);

    // Constant total work: ~4000 hops whatever the host count.
    const TOTAL_HOPS: usize = 4000;

    println!("scalability sweep: ~{TOTAL_HOPS} hops total, workload {workload} SHA-1 iters/hop\n");
    println!(
        "{:>6} {:>10} {:>6}  {:>16} {:>16} {:>10} {:>8}",
        "hosts", "messages", "ttl", "conventional", "spawn-merge", "sm/conv", "rounds"
    );

    for hosts in [1usize, 2, 4, 8, 16, 32] {
        let messages = hosts * 5;
        let ttl = (TOTAL_HOPS / messages).max(1) as u32;
        let cfg = SimConfig {
            hosts,
            initial_messages: messages,
            ttl,
            workload,
            routing: Routing::HashDerived,
        };
        let conv = run_setup(Setup::ConventionalNonDet, &cfg);
        let sm = run_setup(Setup::SpawnMergeNonDet, &cfg);
        assert_eq!(conv.total_processed, sm.total_processed);
        let c_ms = conv.elapsed.as_secs_f64() * 1000.0;
        let s_ms = sm.elapsed.as_secs_f64() * 1000.0;
        println!(
            "{hosts:>6} {messages:>10} {ttl:>6}  {c_ms:>14.1}ms {s_ms:>14.1}ms {:>10.3} {:>8}",
            s_ms / c_ms,
            sm.rounds
        );
    }

    println!("\nNote: per-round Spawn & Merge overhead grows with host count (one\nmerge per host per round), while the conventional setup's lock\ncontention grows with concurrent senders — the crossover is the\ninteresting part.");

    write_metrics_sidecar(&metrics, "scalability", &args);
}
