//! The live telemetry endpoint: a minimal HTTP/1.0 text server over the
//! [`sm_net`] loopback network.
//!
//! [`ObsServer::start`] binds a port on an in-memory [`Network`] and
//! serves three routes while the program is still running:
//!
//! - **`/metrics`** — the current [`Metrics`] state in the Prometheus
//!   text exposition format (counters, histograms, the labelled
//!   `sm_phase_nanos` family);
//! - **`/flight`** — a JSON dump of the [`FlightRecorder`] rings: the
//!   most recent sequence-stamped events per thread;
//! - **`/health`** — replica identity, the [`DeterminismAuditor`]
//!   combined digest and per-task chain heads, and live task counts.
//!
//! Because `/health` carries the *per-task chain heads*, two replicas of
//! the same program can be diffed while both are still serving traffic:
//! [`health_divergence`] compares two `/health` bodies and names the
//! first tasks whose chains disagree — the live desync sentinel the OT
//! consistency literature motivates (see PAPERS.md).
//!
//! The substrate is message-oriented: one request is one message, one
//! response is one message, mirroring how `examples/server.rs` already
//! speaks request/response over [`Stream`]s. [`http_get`] is the
//! matching one-call scrape client used by tests, netsim and the CI
//! smoke job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sm_net::{NetError, Network, Stream};

use crate::audit::DeterminismAuditor;
use crate::flight::FlightRecorder;
use crate::json::Json;
use crate::metrics::Metrics;

/// How long the acceptor blocks per wait before re-checking the stop
/// flag.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// How long a handler waits for the request message of an accepted
/// connection before dropping it.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);

/// The data sources a telemetry endpoint serves from. All optional: a
/// route whose source is absent answers `503 Service Unavailable`.
#[derive(Clone, Default)]
pub struct TelemetrySources {
    /// Replica identity reported by `/health` (node name, session id…).
    pub replica: String,
    /// Source for `/metrics`.
    pub metrics: Option<Arc<Metrics>>,
    /// Source for `/flight`.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Source for `/health` digests.
    pub auditor: Option<Arc<DeterminismAuditor>>,
}

impl TelemetrySources {
    /// Sources for replica `replica` with every section unset.
    pub fn named(replica: impl Into<String>) -> Self {
        TelemetrySources {
            replica: replica.into(),
            ..TelemetrySources::default()
        }
    }

    /// Render the `/health` document from the current source state.
    pub fn health_json(&self) -> Json {
        let mut doc = Json::obj([("replica", Json::str(&self.replica))]);
        match &self.auditor {
            Some(auditor) => {
                let heads = auditor.chain_heads();
                doc.set("digest", Json::Str(format!("{:016x}", auditor.digest())));
                doc.set("chain_count", Json::from(heads.len() as u64));
                doc.set(
                    "chains",
                    Json::Obj(
                        heads
                            .iter()
                            .map(|(path, head)| {
                                (path.to_string(), Json::Str(format!("{head:016x}")))
                            })
                            .collect(),
                    ),
                );
            }
            None => doc.set("digest", Json::Null),
        }
        if let Some(metrics) = &self.metrics {
            let s = metrics.snapshot();
            let live = s
                .tasks_spawned
                .saturating_sub(s.tasks_completed)
                .saturating_sub(s.tasks_aborted);
            doc.set(
                "tasks",
                Json::obj([
                    ("spawned", Json::from(s.tasks_spawned)),
                    ("completed", Json::from(s.tasks_completed)),
                    ("aborted", Json::from(s.tasks_aborted)),
                    ("live", Json::from(live)),
                ]),
            );
            doc.set(
                "sessions",
                Json::obj([
                    ("active", Json::from(s.sessions_active())),
                    ("opened", Json::from(s.sessions_opened)),
                    ("evicted", Json::from(s.sessions_evicted)),
                    ("rehydrated", Json::from(s.sessions_rehydrated)),
                    ("commits", Json::from(s.session_commits)),
                    (
                        "slow_consumers_dropped",
                        Json::from(s.slow_consumers_dropped),
                    ),
                ]),
            );
        }
        doc.set("ok", Json::Bool(true));
        doc
    }
}

/// A running telemetry endpoint. Dropping (or [`stop`](ObsServer::stop)-
/// ping) it unbinds the port and joins the acceptor thread.
pub struct ObsServer {
    port: u16,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `port` on `net` and serve `sources` until stopped.
    pub fn start(net: &Network, port: u16, sources: TelemetrySources) -> Result<Self, NetError> {
        let listener = net.listen(port)?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("sm-obs-serve-{port}"))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept_timeout(ACCEPT_TICK) {
                            Ok(stream) => handle_connection(stream, &sources),
                            Err(NetError::Timeout) => {}
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn telemetry acceptor")
        };
        Ok(ObsServer {
            port,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The port the endpoint is bound to.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stop serving: unbind the port and join the acceptor thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one request/response exchange on an accepted stream.
fn handle_connection(stream: Stream, sources: &TelemetrySources) {
    let Ok(request) = stream.recv_timeout(REQUEST_TIMEOUT) else {
        return;
    };
    let request = String::from_utf8_lossy(&request);
    let response = respond(&request, sources);
    let _ = stream.send_str(&response);
}

/// Route a raw HTTP request to its response.
fn respond(request: &str, sources: &TelemetrySources) -> String {
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return http_response(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    match path {
        "/metrics" => match &sources.metrics {
            Some(metrics) => http_response(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &metrics.prometheus_text(),
            ),
            None => unavailable("no metrics recorder installed"),
        },
        "/flight" => match &sources.flight {
            Some(flight) => http_response(200, "application/json", &flight.dump_string()),
            None => unavailable("no flight recorder installed"),
        },
        "/health" => http_response(200, "application/json", &sources.health_json().to_string()),
        _ => http_response(404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn unavailable(reason: &str) -> String {
    http_response(503, "text/plain; charset=utf-8", &format!("{reason}\n"))
}

fn http_response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Scrape `path` from the endpoint on `port`: one connect, one request
/// message, one response message. Returns `(status, body)`.
pub fn http_get(net: &Network, port: u16, path: &str) -> Result<(u16, String), NetError> {
    let stream = net.connect(port)?;
    stream.send_str(&format!(
        "GET {path} HTTP/1.0\r\nHost: localhost\r\nUser-Agent: sm-obs-scrape\r\n\r\n"
    ))?;
    let response = stream.recv_timeout(Duration::from_secs(5))?;
    let response = String::from_utf8_lossy(&response).into_owned();
    let status = response
        .strip_prefix("HTTP/1.0 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Diff two `/health` bodies from replicas of the same program: the
/// sorted task paths whose digest-chain heads disagree. `Ok(vec![])`
/// means the replicas are digest-identical right now; a non-empty list
/// is a live desync, localized to the named tasks.
pub fn health_divergence(a_body: &str, b_body: &str) -> Result<Vec<String>, String> {
    let chains = |body: &str| -> Result<BTreeMap<String, String>, String> {
        let doc = crate::json::parse(body).map_err(|e| e.to_string())?;
        let chains = doc
            .get("chains")
            .ok_or_else(|| "health body has no chains section".to_string())?;
        match chains {
            Json::Obj(fields) => Ok(fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect()),
            _ => Err("chains section is not an object".to_string()),
        }
    };
    Ok(DeterminismAuditor::diff_heads(
        &chains(a_body)?,
        &chains(b_body)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ObsEvent, TaskPath};
    use crate::metrics::parse_exposition;
    use crate::recorder::Recorder;
    use crate::timer::Phase;
    use std::time::Instant;

    fn ev(kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Instant::now(),
            task: TaskPath::root(),
            kind,
        }
    }

    fn full_sources(replica: &str) -> TelemetrySources {
        let mut sources = TelemetrySources::named(replica);
        sources.metrics = Some(Arc::new(Metrics::new()));
        sources.flight = Some(Arc::new(FlightRecorder::new(64)));
        sources.auditor = Some(Arc::new(DeterminismAuditor::new()));
        sources
    }

    fn feed(sources: &TelemetrySources, event: &ObsEvent) {
        if let Some(m) = &sources.metrics {
            m.record(event);
        }
        if let Some(f) = &sources.flight {
            f.record(event);
        }
        if let Some(a) = &sources.auditor {
            a.record(event);
        }
    }

    #[test]
    fn serves_all_three_routes_live() {
        let net = Network::new();
        let sources = full_sources("replica-a");
        feed(&sources, &ev(EventKind::TaskSpawned { spawn_nanos: 120 }));
        feed(
            &sources,
            &ev(EventKind::PhaseTimed {
                phase: Phase::StateApply,
                nanos: 640,
            }),
        );
        let server = ObsServer::start(&net, 9100, sources).unwrap();

        let (status, metrics) = http_get(&net, 9100, "/metrics").unwrap();
        assert_eq!(status, 200);
        let samples = parse_exposition(&metrics).expect("metrics body parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "sm_tasks_spawned_total" && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name == "sm_phase_nanos_count"
            && s.labels.contains("state_apply")
            && s.value == 1.0));

        let (status, flight) = http_get(&net, 9100, "/flight").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&flight).expect("flight body is JSON");
        assert_eq!(doc.get("retained").unwrap().as_num(), Some(2.0));

        let (status, health) = http_get(&net, 9100, "/health").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&health).expect("health body is JSON");
        assert_eq!(doc.get("replica").unwrap().as_str(), Some("replica-a"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("tasks").unwrap().get("spawned").unwrap().as_num(),
            Some(1.0)
        );
        assert!(doc.get("digest").unwrap().as_str().is_some());

        let (status, _) = http_get(&net, 9100, "/nope").unwrap();
        assert_eq!(status, 404);

        server.stop();
        // Port is released after stop.
        assert!(net.listen(9100).is_ok());
    }

    #[test]
    fn missing_sources_answer_503_and_health_stays_up() {
        let net = Network::new();
        let server = ObsServer::start(&net, 9101, TelemetrySources::named("bare")).unwrap();
        let (status, _) = http_get(&net, 9101, "/metrics").unwrap();
        assert_eq!(status, 503);
        let (status, _) = http_get(&net, 9101, "/flight").unwrap();
        assert_eq!(status, 503);
        let (status, body) = http_get(&net, 9101, "/health").unwrap();
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(doc.get("digest"), Some(&Json::Null));
        server.stop();
    }

    #[test]
    fn two_replica_health_diff_detects_divergence() {
        let net = Network::new();
        let a = full_sources("a");
        let b = full_sources("b");
        let shared = ev(EventKind::MergeStarted {
            child: TaskPath::root().child(1),
        });
        feed(&a, &shared);
        feed(&b, &shared);
        let sa = ObsServer::start(&net, 9201, a.clone()).unwrap();
        let sb = ObsServer::start(&net, 9202, b.clone()).unwrap();

        let ha = http_get(&net, 9201, "/health").unwrap().1;
        let hb = http_get(&net, 9202, "/health").unwrap().1;
        assert_eq!(
            health_divergence(&ha, &hb).unwrap(),
            Vec::<String>::new(),
            "identical replicas: no divergence"
        );

        // Replica b sees one extra deterministic event: live desync.
        feed(
            &b,
            &ev(EventKind::MergeStarted {
                child: TaskPath::root().child(2),
            }),
        );
        let ha = http_get(&net, 9201, "/health").unwrap().1;
        let hb = http_get(&net, 9202, "/health").unwrap().1;
        assert_eq!(health_divergence(&ha, &hb).unwrap(), vec!["0".to_string()]);

        sa.stop();
        sb.stop();
    }
}
