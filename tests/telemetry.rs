//! The live telemetry plane, end to end:
//!
//! 1. **Endpoints under load** — `/metrics`, `/flight` and `/health`
//!    answer while a netsim Spawn & Merge run is in flight, and the
//!    scraped bodies carry nonzero hot-path phase counters.
//! 2. **Live desync sentinel** — two replicas serving `/health` can be
//!    diffed at runtime; an injected divergence is detected and
//!    localized to the task whose digest chain differs.
//! 3. **Flight recorder black box** — rings overwrite oldest-first and
//!    an anomaly (merge rejection) triggers an automatic dump to disk
//!    mid-run, without anyone calling dump().
//!
//! The recorder slot is process-global, so every test here serializes on
//! one mutex (same pattern as `tests/observability.rs`).

use std::sync::{Arc, Mutex, PoisonError};

use spawn_merge::net::Network;
use spawn_merge::netsim::{run_live, Routing, SimConfig};
use spawn_merge::obs::{
    self, health_divergence, http_get, DeterminismAuditor, FlightRecorder, Metrics, MultiRecorder,
    ObsServer, Recorder, TelemetrySources,
};
use spawn_merge::{run, MCounter, MList};

/// All tests share the process-wide recorder slot; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Value of a plain (unlabelled) counter in a Prometheus text body.
fn counter_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
}

/// Value of one labelled sample, matched by substring of the label block.
fn labelled_value(body: &str, name: &str, label_part: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (metric, value) = l.rsplit_once(' ')?;
        (metric.starts_with(&format!("{name}{{")) && metric.contains(label_part))
            .then(|| value.parse().ok())?
    })
}

#[test]
fn endpoints_answer_during_a_netsim_run_with_phase_counters() {
    let _guard = serial();
    let cfg = SimConfig {
        hosts: 4,
        initial_messages: 12,
        ttl: 8,
        workload: 20,
        routing: Routing::NextHost,
    };
    let report = run_live(&cfg, 9400);
    assert_eq!(report.result.total_processed, cfg.expected_hops());

    // /metrics: well-formed exposition with live hot-path phase counters.
    let spawned = counter_value(&report.metrics_body, "sm_tasks_spawned_total")
        .expect("spawned counter exposed");
    assert!(spawned >= cfg.hosts as f64);
    let apply_count = labelled_value(&report.metrics_body, "sm_phase_nanos_count", "state_apply")
        .expect("state_apply histogram exposed");
    assert!(apply_count > 0.0, "merges must feed the phase histograms");

    // /flight: a JSON ring dump holding recent events.
    let flight = spawn_merge::obs::json::parse(&report.flight_body).expect("flight JSON parses");
    assert!(flight.get("retained").unwrap().as_num().unwrap() > 0.0);
    assert!(flight.get("threads").unwrap().as_num().unwrap() >= 1.0);

    // /health: digest chains present and OK.
    let health = spawn_merge::obs::json::parse(&report.health_body).expect("health JSON parses");
    assert!(health.get("digest").unwrap().as_str().is_some());
    assert!(health.get("chain_count").unwrap().as_num().unwrap() > 0.0);
    assert_eq!(
        health.get("tasks").unwrap().get("live").unwrap().as_num(),
        Some(0.0),
        "after the run, no live tasks remain"
    );
}

/// Run a deterministic program with a fresh auditor installed, spawning
/// `children` children, and return the sources serving its state.
fn replica_after_run(name: &str, children: u64) -> TelemetrySources {
    let mut sources = TelemetrySources::named(name);
    sources.metrics = Some(Arc::new(Metrics::new()));
    sources.auditor = Some(Arc::new(DeterminismAuditor::new()));
    let sinks: Vec<Arc<dyn Recorder>> = vec![
        sources.metrics.clone().unwrap() as Arc<dyn Recorder>,
        sources.auditor.clone().unwrap() as Arc<dyn Recorder>,
    ];
    obs::install(Arc::new(MultiRecorder::new(sinks)));
    let (_, ()) = run(MList::<u64>::new(), |ctx| {
        for i in 0..children {
            ctx.spawn(move |child| {
                child.data_mut().push(i);
                Ok(())
            });
        }
        ctx.merge_all();
        ctx.merge_all();
    });
    obs::uninstall();
    sources
}

#[test]
fn two_replica_health_diff_detects_injected_divergence() {
    let _guard = serial();
    let net = Network::new();

    // Identical replicas first: the sentinel must stay silent.
    let a = replica_after_run("replica-a", 3);
    let b = replica_after_run("replica-b", 3);
    let sa = ObsServer::start(&net, 9410, a).unwrap();
    let sb = ObsServer::start(&net, 9411, b).unwrap();
    let ha = http_get(&net, 9410, "/health").unwrap().1;
    let hb = http_get(&net, 9411, "/health").unwrap().1;
    assert_eq!(
        health_divergence(&ha, &hb).unwrap(),
        Vec::<String>::new(),
        "identical programs must agree"
    );
    sa.stop();
    sb.stop();

    // Injected divergence: replica c spawns one extra child.
    let c = replica_after_run("replica-c", 4);
    let sc = ObsServer::start(&net, 9412, c).unwrap();
    let hc = http_get(&net, 9412, "/health").unwrap().1;
    let diverged = health_divergence(&ha, &hc).unwrap();
    assert!(
        diverged.contains(&"0".to_string()),
        "divergence must localize to the root's merge chain, got {diverged:?}"
    );
    sc.stop();
}

#[test]
fn flight_recorder_dumps_to_disk_on_merge_rejection() {
    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("sm-telemetry-anomaly-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flight = Arc::new(FlightRecorder::new(256).with_anomaly_dir(&dir));
    obs::install(flight.clone());

    let (counter, ()) = run(MCounter::new(0), |ctx| {
        ctx.spawn(|child| {
            child.data_mut().add(50);
            // Rejected by the parent's condition: the anomaly.
            assert!(child.sync().is_err());
            child.data_mut().add(-45);
            child.sync()?;
            Ok(())
        });
        ctx.merge_all_with(&|d: &MCounter| d.get() < 10);
        ctx.merge_all();
        ctx.merge_all();
    });
    obs::uninstall();
    assert_eq!(counter.get(), 5);

    assert!(
        flight.anomaly_dump_count() >= 1,
        "the merge rejection must trigger an automatic dump"
    );
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("anomaly dir created")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        dumps.iter().any(|f| f.starts_with("flight-anomaly-")),
        "dump file must land on disk, found {dumps:?}"
    );
    let body = std::fs::read_to_string(dir.join(&dumps[0])).unwrap();
    assert!(
        body.contains("merge_rejected"),
        "the dump must contain the anomaly event itself"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_ring_keeps_only_the_most_recent_events() {
    let _guard = serial();
    let flight = Arc::new(FlightRecorder::new(8));
    obs::install(flight.clone());
    let (list, ()) = run(MList::<u64>::new(), |ctx| {
        for i in 0..20 {
            ctx.spawn(move |child| {
                child.data_mut().push(i);
                Ok(())
            });
            ctx.merge_all();
        }
        ctx.merge_all();
    });
    obs::uninstall();
    assert_eq!(list.len(), 20);
    assert!(
        flight.recorded() > 8,
        "the run must overflow an 8-slot ring"
    );
    let entries = flight.dump();
    // Bounded: never more than capacity per thread; and the retained
    // entries are the newest (their seq stamps sit at the top end).
    let max_seq = entries.iter().map(|e| e.seq).max().unwrap();
    assert_eq!(max_seq + 1, flight.recorded(), "newest event retained");
}
