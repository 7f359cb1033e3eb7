//! Runtime observability demo: record a full Spawn & Merge run with
//! `sm_obs` and export it as a Chrome trace-event / Perfetto timeline
//! plus a metrics snapshot.
//!
//! ```text
//! cargo run --release --example tracing
//! ```
//!
//! The run drives the paper's network simulation (listing 4) with four
//! recorders installed at once: a [`ChromeTracer`] (timeline), a
//! [`Metrics`] aggregator (counters + histograms), a
//! [`DeterminismAuditor`] (content hash of the deterministic event
//! stream), and a [`FlightRecorder`] black box with an anomaly dump
//! directory armed. The trace JSON is validated by round-tripping it
//! through a parser before it is written; afterwards a second, tiny run
//! provokes a merge rejection to show the flight recorder dumping its
//! rings to disk on its own.

use std::sync::Arc;

use spawn_merge::netsim::{run_spawn_merge, Routing, SimConfig};
use spawn_merge::obs::{
    self, ChromeTracer, DeterminismAuditor, FlightRecorder, Metrics, MultiRecorder,
};
use spawn_merge::sha1::to_hex;
use spawn_merge::{run, MCounter};

fn main() {
    let tracer = Arc::new(ChromeTracer::new());
    let metrics = Arc::new(Metrics::new());
    let auditor = Arc::new(DeterminismAuditor::new());
    std::fs::create_dir_all("target").ok();
    let anomaly_dir = "target/tracing-example-anomalies";
    let _ = std::fs::remove_dir_all(anomaly_dir);
    let flight = Arc::new(FlightRecorder::default().with_anomaly_dir(anomaly_dir));
    obs::install(Arc::new(MultiRecorder::new(vec![
        tracer.clone(),
        metrics.clone(),
        auditor.clone(),
        flight.clone(),
    ])));

    // A scaled-down deterministic simulation: every run of this program
    // produces the same fingerprint AND the same auditor digest.
    let cfg = SimConfig {
        hosts: 6,
        initial_messages: 18,
        ttl: 12,
        workload: 20,
        routing: Routing::HashDerived,
    };
    let result = run_spawn_merge(&cfg);

    // The flight recorder's reason to exist: when an anomaly strikes,
    // the black box dumps its rings without anyone asking. Provoke a
    // merge rejection (a child violating the parent's merge condition)
    // and watch the dump land.
    let (_, ()) = run(MCounter::new(0), |ctx| {
        ctx.spawn(|child| {
            child.data_mut().add(50); // violates the condition below
            let _ = child.sync(); // rejected -> MergeRejected anomaly
            child.data_mut().add(-45);
            child.sync()?;
            Ok(())
        });
        ctx.merge_all_with(&|d: &MCounter| d.get() < 10);
        ctx.merge_all();
        ctx.merge_all();
    });
    obs::uninstall();

    assert!(
        flight.anomaly_dump_count() >= 1,
        "the rejection must auto-dump the flight rings"
    );
    let dump_files: Vec<_> = std::fs::read_dir(anomaly_dir)
        .expect("anomaly dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    println!(
        "flight recorder    : {} events in rings, anomaly auto-dump -> {}",
        flight.recorded(),
        dump_files[0].display()
    );

    println!(
        "simulated {} hosts / {} hops in {:?} over {} merge rounds",
        cfg.hosts, result.total_processed, result.elapsed, result.rounds
    );
    println!("result fingerprint : {}", to_hex(&result.fingerprint));
    println!("determinism digest : {:016x}", auditor.digest());

    // Validate the trace before writing: it must round-trip through a
    // JSON parser and look like a Chrome trace-event document.
    let trace = tracer.json_string();
    let doc = obs::json::parse(&trace).expect("exported trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("trace must contain a traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    println!(
        "trace events       : {} (validated by JSON round-trip)",
        events.len()
    );

    let trace_path = "target/tracing-example.trace.json";
    let metrics_path = "target/tracing-example.metrics.json";
    std::fs::create_dir_all("target").ok();
    std::fs::write(trace_path, &trace).expect("write trace");
    std::fs::write(metrics_path, metrics.json_string()).expect("write metrics");

    let snapshot = metrics.snapshot();
    println!(
        "metrics            : {} spawns, {} merges, {} ops transformed, mean merge {:.1} µs",
        snapshot.tasks_spawned,
        snapshot.merges_finished,
        snapshot.ops_child_total,
        snapshot.merge_latency_nanos.mean() / 1000.0
    );

    println!("\nwrote {trace_path}");
    println!("wrote {metrics_path}");
    println!("\nTo view the timeline, open https://ui.perfetto.dev (or");
    println!("chrome://tracing) and load {trace_path}:");
    println!("one track per task, merge spans annotated with their OT op counts.");
}
