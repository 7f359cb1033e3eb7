//! Live telemetry over a running simulation: the netsim workload with
//! the full observability plane attached and scraped **while it runs**.
//!
//! [`run_live`] installs the three standard recorders ([`Metrics`],
//! [`FlightRecorder`], [`DeterminismAuditor`]), serves them on an
//! in-memory [`Network`] through [`ObsServer`], and polls `/metrics`
//! from a scraper thread for the whole duration of a Spawn & Merge
//! simulation — proving the endpoint answers under real concurrent
//! load, not just before/after. The final bodies of all three routes
//! come back in the report for callers (tests, `examples/server.rs`,
//! the CI smoke job) to assert on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sm_net::Network;
use sm_obs::{
    http_get, DeterminismAuditor, FlightRecorder, Metrics, MultiRecorder, ObsServer, Recorder,
    TelemetrySources,
};

use crate::message::SimConfig;
use crate::spawnmerge::run_spawn_merge;
use crate::SimResult;

/// How often the scraper thread polls `/metrics` during the run.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(5);

/// What [`run_live`] observed: the simulation result plus the telemetry
/// plane's outputs.
#[derive(Debug)]
pub struct LiveReport {
    /// The simulation outcome (same as [`crate::run_setup`] would give).
    pub result: SimResult,
    /// Successful `/metrics` scrapes completed **while the simulation
    /// was still running**.
    pub scrapes_during_run: usize,
    /// Final `/metrics` body (Prometheus text exposition).
    pub metrics_body: String,
    /// Final `/flight` body (flight-recorder ring dump, JSON).
    pub flight_body: String,
    /// Final `/health` body (replica digest chains + task counts, JSON).
    pub health_body: String,
}

/// Run the Spawn & Merge simulator for `cfg` with the live telemetry
/// endpoint bound to `port` of a fresh in-memory network, scraping it
/// concurrently for the whole run.
///
/// Installs a process-wide recorder for the duration and uninstalls it
/// before returning; callers that share the global recorder slot across
/// tests must serialize (see `tests/telemetry.rs`).
pub fn run_live(cfg: &SimConfig, port: u16) -> LiveReport {
    let net = Network::new();
    let mut sources = TelemetrySources::named(format!("netsim-{port}"));
    sources.metrics = Some(Arc::new(Metrics::new()));
    sources.flight = Some(Arc::new(FlightRecorder::default()));
    sources.auditor = Some(Arc::new(DeterminismAuditor::new()));
    let sinks: Vec<Arc<dyn Recorder>> = vec![
        sources.metrics.clone().expect("metrics set") as Arc<dyn Recorder>,
        sources.flight.clone().expect("flight set") as Arc<dyn Recorder>,
        sources.auditor.clone().expect("auditor set") as Arc<dyn Recorder>,
    ];
    sm_obs::install(Arc::new(MultiRecorder::new(sinks)));
    let server = ObsServer::start(&net, port, sources).expect("telemetry port free");

    // The concurrent scraper: poll /metrics until the simulation ends.
    let running = Arc::new(AtomicBool::new(true));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let scraper = {
        let net = net.clone();
        let running = running.clone();
        let scrapes = scrapes.clone();
        std::thread::Builder::new()
            .name("sm-netsim-scraper".into())
            .spawn(move || {
                while running.load(Ordering::Acquire) {
                    if let Ok((200, body)) = http_get(&net, port, "/metrics") {
                        if !body.is_empty() {
                            scrapes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
            })
            .expect("spawn scraper")
    };

    let result = run_spawn_merge(cfg);

    running.store(false, Ordering::Release);
    let _ = scraper.join();
    let scrapes_during_run = scrapes.load(Ordering::Relaxed);

    let metrics_body = http_get(&net, port, "/metrics").expect("final scrape").1;
    let flight_body = http_get(&net, port, "/flight").expect("final scrape").1;
    let health_body = http_get(&net, port, "/health").expect("final scrape").1;
    server.stop();
    sm_obs::uninstall();

    LiveReport {
        result,
        scrapes_during_run,
        metrics_body,
        flight_body,
        health_body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Routing;
    use crate::run_setup;
    use crate::Setup;

    #[test]
    fn endpoint_serves_while_simulation_runs() {
        let _guard = crate::recorder_lock();
        let cfg = SimConfig::small(2, Routing::NextHost);
        let report = run_live(&cfg, 9310);
        assert_eq!(report.result.total_processed, cfg.expected_hops());
        // The run is short; at least the final scrapes must be whole, and
        // the counters must show the run actually flowed through the
        // recorder.
        assert!(report.metrics_body.contains("sm_tasks_spawned_total"));
        assert!(report.metrics_body.contains("sm_phase_nanos_count"));
        assert!(report.flight_body.contains("\"retained\""));
        assert!(report.health_body.contains("\"digest\""));
        let spawned = report
            .metrics_body
            .lines()
            .find_map(|l| l.strip_prefix("sm_tasks_spawned_total "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("spawned counter present");
        assert!(spawned >= cfg.hosts as f64, "all host tasks counted");
    }

    #[test]
    fn live_telemetry_does_not_change_the_simulation_result() {
        let _guard = crate::recorder_lock();
        let cfg = SimConfig::small(1, Routing::HashDerived);
        let bare = run_setup(Setup::SpawnMergeNonDet, &cfg);
        let cfg = SimConfig {
            routing: Routing::HashDerived,
            ..cfg
        };
        let live = run_live(&cfg, 9311);
        assert_eq!(
            bare.fingerprint, live.result.fingerprint,
            "recorders are passive: identical outcome with telemetry on"
        );
    }
}
