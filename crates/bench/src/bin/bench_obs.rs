//! Emit `BENCH_obs.json`: the cost of the live telemetry plane on the
//! merge/apply hot loops, in three instrumentation configurations.
//!
//! - **uninstalled** — no recorder: every emission site pays one relaxed
//!   atomic load, no event is constructed, no phase timer starts.
//! - **metrics** — a [`Metrics`] aggregator installed: events flow,
//!   counters and the per-phase log₂ histograms fill.
//! - **flight** — the full always-on plane: metrics **plus** the
//!   [`FlightRecorder`] ring buffers **plus** the
//!   [`DeterminismAuditor`] digest chains, composed by `MultiRecorder`
//!   (what `SM_TELEMETRY=1 cargo run --example server` serves).
//!
//! The workload runs the same end-to-end `MList::merge` hot loops as
//! `bench_merge` (a contiguous append merge and a scattered insert
//! merge — the delta and compacted paths), best-of-`iters` per config.
//! The flight-recorder-on overhead versus uninstalled is the headline
//! number; CI runs with `--assert-overhead 5` and fails the build when
//! the always-on plane costs more than 5%.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin bench_obs \
//!     [-- --quick] [-- --out PATH] [-- --assert-overhead PCT]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use sm_mergeable::{MList, Mergeable};
use sm_netsim::workload::lcg_positions;
use sm_obs::{
    emit, DeterminismAuditor, EventKind, FlightRecorder, MergeOpStats, Metrics, MultiRecorder,
    Phase, Recorder, TaskPath,
};

/// Best-of-`iters` wall time of `f`, in nanoseconds.
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// A contiguous-append fork pair: the delta fast path.
fn contiguous_pair() -> (MList<u64>, MList<u64>) {
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for i in 0..300u64 {
        child.push(i);
        parent.push(1000 + i);
    }
    (parent, child)
}

/// A scattered-insert fork pair: the path record-time fusion cannot
/// collapse.
fn scattered_pair() -> (MList<u64>, MList<u64>) {
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for (i, p) in lcg_positions(200, 64).into_iter().enumerate() {
        child.insert(p, i as u64);
        parent.insert(63 - p, 1000 + i as u64);
    }
    (parent, child)
}

struct ConfigResult {
    name: &'static str,
    contiguous_ns: u64,
    scattered_ns: u64,
}

impl ConfigResult {
    fn total_ns(&self) -> u64 {
        self.contiguous_ns + self.scattered_ns
    }
}

/// One instrumented merge, emitting exactly what the core runtime's
/// `merge_child` emits around `Versioned::merge`: the `MergeStarted` /
/// `MergeFinished` pair plus the four phase-timer observations. This is
/// the per-merge event traffic a real run generates, so the measured
/// delta between configs is the true cost of the installed plane.
fn instrumented_merge(parent: &MList<u64>, child: &MList<u64>, path: &TaskPath) {
    emit(path, || EventKind::MergeStarted {
        child: path.clone(),
    });
    let t0 = sm_obs::is_enabled().then(Instant::now);
    let mut p = parent.clone();
    let stats = std::hint::black_box(p.merge(child).unwrap());
    if let Some(t0) = t0 {
        let merge_nanos = t0.elapsed().as_nanos() as u64;
        emit(path, || EventKind::MergeFinished {
            child: path.clone(),
            child_continues: false,
            ops: MergeOpStats::from(&stats),
            merge_nanos,
            oplog_len: stats.applied_ops,
        });
        sm_obs::timer::observe(path, Phase::RebaseDelta, stats.delta_nanos);
        sm_obs::timer::observe(path, Phase::RebaseCompact, stats.compact_nanos);
        sm_obs::timer::observe(path, Phase::RebaseGrid, stats.grid_nanos);
        sm_obs::timer::observe(path, Phase::StateApply, stats.apply_nanos);
    }
}

/// Time both merge loops under whatever recorder is currently
/// installed.
fn measure(name: &'static str, iters: usize, inner: usize) -> ConfigResult {
    let path = TaskPath::root().child(1);
    let (parent, child) = contiguous_pair();
    let contiguous_ns = time_ns(iters, || {
        for _ in 0..inner {
            instrumented_merge(&parent, &child, &path);
        }
    });
    let (parent, child) = scattered_pair();
    let scattered_ns = time_ns(iters, || {
        for _ in 0..inner {
            instrumented_merge(&parent, &child, &path);
        }
    });
    ConfigResult {
        name,
        contiguous_ns,
        scattered_ns,
    }
}

fn overhead_percent(ours: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (ours as f64 - baseline as f64) / baseline as f64 * 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let assert_overhead: Option<f64> = args
        .iter()
        .position(|a| a == "--assert-overhead")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let (iters, inner) = if quick { (5, 3) } else { (25, 10) };

    // Uninstalled: the zero-overhead baseline.
    sm_obs::uninstall();
    let uninstalled = measure("uninstalled", iters, inner);

    // Metrics only.
    let metrics = Arc::new(Metrics::new());
    sm_obs::install(metrics.clone());
    let metrics_only = measure("metrics", iters, inner);
    sm_obs::uninstall();

    // The full always-on plane: metrics + flight rings + audit chains.
    let metrics = Arc::new(Metrics::new());
    let flight = Arc::new(FlightRecorder::default());
    let auditor = Arc::new(DeterminismAuditor::new());
    sm_obs::install(Arc::new(MultiRecorder::new(vec![
        metrics.clone() as Arc<dyn Recorder>,
        flight.clone() as Arc<dyn Recorder>,
        auditor as Arc<dyn Recorder>,
    ])));
    let flight_on = measure("flight", iters, inner);
    sm_obs::uninstall();
    assert!(
        flight.recorded() > 0,
        "flight config must actually record events"
    );
    assert!(
        metrics.snapshot().phase_nanos.total_count() > 0,
        "flight config must fill phase histograms"
    );

    let baseline = uninstalled.total_ns();
    let mut json = String::from("{\n  \"bench\": \"obs\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"inner_merges_per_iter\": {inner},");
    json.push_str("  \"configs\": [\n");
    for (i, c) in [&uninstalled, &metrics_only, &flight_on].iter().enumerate() {
        let oh = overhead_percent(c.total_ns(), baseline);
        eprintln!(
            "{:<12} contiguous {:>9} ns  scattered {:>9} ns  total {:>9} ns  overhead {:+.2}%",
            c.name,
            c.contiguous_ns,
            c.scattered_ns,
            c.total_ns(),
            oh
        );
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"contiguous_ns\": {}, \"scattered_ns\": {}, \
             \"total_ns\": {}, \"overhead_percent\": {:.3}}}",
            c.name,
            c.contiguous_ns,
            c.scattered_ns,
            c.total_ns(),
            oh
        );
    }
    json.push_str("\n  ],\n");
    let flight_overhead = overhead_percent(flight_on.total_ns(), baseline);
    let metrics_overhead = overhead_percent(metrics_only.total_ns(), baseline);
    let _ = writeln!(
        json,
        "  \"metrics_overhead_percent\": {metrics_overhead:.3},"
    );
    let _ = writeln!(json, "  \"flight_overhead_percent\": {flight_overhead:.3},");
    let _ = writeln!(json, "  \"flight_events_recorded\": {},", flight.recorded());
    let _ = writeln!(
        json,
        "  \"overhead_ceiling_percent\": {}",
        assert_overhead.unwrap_or(5.0)
    );
    json.push_str("}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("bench_obs: wrote {out_path}"),
        Err(e) => {
            eprintln!("bench_obs: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(ceiling) = assert_overhead {
        if flight_overhead > ceiling {
            eprintln!(
                "bench_obs: FLIGHT OVERHEAD {flight_overhead:.2}% exceeds the {ceiling:.2}% ceiling"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_obs: flight-recorder overhead {flight_overhead:.2}% within the {ceiling:.2}% ceiling"
        );
    }
}
