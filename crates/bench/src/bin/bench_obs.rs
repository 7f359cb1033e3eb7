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
//! merge — the delta and compacted paths). Each of `iters` iterations
//! times one pass of both loops under each configuration in turn, the
//! order rotating from one iteration to the next, so a drift of the
//! machine's speed falls on the three alike. An overhead is the median
//! over the iterations of each iteration's ratio to its uninstalled pass,
//! printed with its spread. The flight-recorder-on overhead is the
//! headline number; CI runs with `--assert-overhead 5` and fails the
//! build when the always-on plane costs more than 5%.
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

/// A contiguous-append fork pair: the delta fast path.
fn contiguous_pair() -> Pair {
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
fn scattered_pair() -> Pair {
    let mut parent = MList::from_vec((0..64u64).collect());
    let mut child = parent.fork();
    for (i, p) in lcg_positions(200, 64).into_iter().enumerate() {
        child.insert(p, i as u64);
        parent.insert(63 - p, 1000 + i as u64);
    }
    (parent, child)
}

/// A fork pair to merge: `(parent, child)`.
type Pair = (MList<u64>, MList<u64>);

/// The `q`-quantile of `values` (nearest rank), which must not be empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
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

/// One pass of both merge loops (contiguous, scattered), `inner` merges
/// each, under whatever recorder is currently installed: nanoseconds.
fn measure(pairs: &[Pair; 2], inner: usize) -> [f64; 2] {
    let path = TaskPath::root().child(1);
    pairs.each_ref().map(|(parent, child)| {
        let t = Instant::now();
        for _ in 0..inner {
            instrumented_merge(parent, child, &path);
        }
        t.elapsed().as_nanos() as f64
    })
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
    let (iters, inner) = if quick { (101, 3) } else { (401, 10) };

    // Metrics only, and the full always-on plane: metrics + flight rings
    // + audit chains. `None` is uninstalled, the zero-overhead baseline.
    let metrics = Arc::new(Metrics::new());
    let plane_metrics = Arc::new(Metrics::new());
    let flight = Arc::new(FlightRecorder::default());
    let plane: Arc<dyn Recorder> = Arc::new(MultiRecorder::new(vec![
        plane_metrics.clone() as Arc<dyn Recorder>,
        flight.clone() as Arc<dyn Recorder>,
        Arc::new(DeterminismAuditor::new()) as Arc<dyn Recorder>,
    ]));
    let configs: [(&str, Option<Arc<dyn Recorder>>); 3] = [
        ("uninstalled", None),
        ("metrics", Some(metrics as Arc<dyn Recorder>)),
        ("flight", Some(plane)),
    ];
    let pairs = [contiguous_pair(), scattered_pair()];
    let mut passes: [Vec<[f64; 2]>; 3] = Default::default();
    for i in 0..iters {
        for k in 0..configs.len() {
            let c = (i + k) % configs.len();
            sm_obs::uninstall();
            if let Some(recorder) = &configs[c].1 {
                sm_obs::install(recorder.clone());
            }
            passes[c].push(measure(&pairs, inner));
        }
    }
    sm_obs::uninstall();
    assert!(
        flight.recorded() > 0,
        "flight config must actually record events"
    );
    assert!(
        plane_metrics.snapshot().phase_nanos.total_count() > 0,
        "flight config must fill phase histograms"
    );

    // Each iteration's overhead over its own uninstalled pass.
    let total = |pass: &[f64; 2]| pass[0] + pass[1];
    let overheads: Vec<Vec<f64>> = passes
        .iter()
        .map(|config| {
            config
                .iter()
                .zip(&passes[0])
                .map(|(pass, base)| (total(pass) / total(base) - 1.0) * 100.0)
                .collect()
        })
        .collect();
    let mut json = String::from("{\n  \"bench\": \"obs\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"inner_merges_per_iter\": {inner},");
    json.push_str("  \"configs\": [\n");
    for (c, (name, _)) in configs.iter().enumerate() {
        let of = |part: fn(&[f64; 2]) -> f64| {
            quantile(&passes[c].iter().map(part).collect::<Vec<_>>(), 0.5)
        };
        let (contiguous_ns, scattered_ns) = (of(|p| p[0]), of(|p| p[1]));
        let total_ns = of(total);
        let oh = quantile(&overheads[c], 0.5);
        eprintln!(
            "{name:<12} contiguous {contiguous_ns:>9.0} ns  scattered {scattered_ns:>9.0} ns  \
             total {total_ns:>9.0} ns  overhead {oh:+.2}% (medians of {iters} passes)"
        );
        if c > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"contiguous_ns\": {contiguous_ns:.0}, \
             \"scattered_ns\": {scattered_ns:.0}, \"total_ns\": {total_ns:.0}, \
             \"overhead_percent\": {oh:.3}}}"
        );
    }
    json.push_str("\n  ],\n");
    let metrics_overhead = quantile(&overheads[1], 0.5);
    let flight_overhead = quantile(&overheads[2], 0.5);
    let spread = [0.0, 0.25, 0.75, 1.0].map(|q| quantile(&overheads[2], q));
    eprintln!(
        "flight overhead per iteration: min {:+.2}%, quartiles {:+.2}% / {:+.2}%, max {:+.2}%",
        spread[0], spread[1], spread[2], spread[3]
    );
    let _ = writeln!(
        json,
        "  \"metrics_overhead_percent\": {metrics_overhead:.3},"
    );
    let _ = writeln!(json, "  \"flight_overhead_percent\": {flight_overhead:.3},");
    let _ = writeln!(
        json,
        "  \"flight_overhead_spread_percent\": {{\"min\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}, \"max\": {:.3}}},",
        spread[0], spread[1], spread[2], spread[3]
    );
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
