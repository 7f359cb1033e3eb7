//! The paper's **server software** example (listing 3, §II-G): a TCP-style
//! key-value server built from `Spawn`, `Clone`, `Sync` and `MergeAny`.
//!
//! Structure, exactly as in the paper:
//!
//! * the root task owns the global data and loops on `MergeAny` —
//!   connections merge on a first-completed-first-merged basis (explicit,
//!   intentional non-determinism);
//! * an `accept` child task blocks on the listener and `Clone`s a sibling
//!   `conn` task per incoming connection;
//! * each `conn` task first calls `Sync()` to replace its (likely stale)
//!   inherited data with a fresh copy, then serves requests, syncing after
//!   each one; a rejected merge is reported on the socket and aborts the
//!   connection.
//!
//! Protocol (one message per request):
//!   `PUT <key> <value>` → `OK`
//!   `GET <key>`         → `<value>` or `NIL`
//!   `DEL <key>`         → `OK`
//!   `BAD`               → provokes a merge-condition rejection
//!
//! ```text
//! cargo run --example server
//! ```
//!
//! Set `SM_TELEMETRY=1` to additionally run the live telemetry plane:
//! the full recorder stack is installed, an [`ObsServer`] serves
//! `/metrics`, `/flight` and `/health` on port 9600 of the same
//! in-memory network the clients use, and the example self-scrapes all
//! three routes while the server is still up, printing marker lines the
//! CI smoke job greps for.

use std::sync::Arc;

use spawn_merge::net::{Network, Stream};
use spawn_merge::obs::{
    self, http_get, DeterminismAuditor, FlightRecorder, Metrics, MultiRecorder, ObsServer,
    Recorder, TelemetrySources,
};
use spawn_merge::{blocking, run, MMap, SyncError, TaskAbort, TaskCtx, TaskResult};

type Db = MMap<String, String>;

const PORT: u16 = 4242;
const CLIENTS: usize = 6;
const FORBIDDEN_KEY: &str = "forbidden";

/// The paper's `conn(socket, data)` function.
fn conn(socket: Stream, ctx: &mut TaskCtx<Db>) -> TaskResult {
    // The inherited data is "most likely outdated": refresh first.
    ctx.sync()?;
    loop {
        // Socket waits are not Spawn & Merge waits: tell the pool.
        let Ok(request) = blocking(|| socket.recv_str()) else {
            return Ok(()); // connection closed
        };
        let reply = handle_request(&request, ctx.data_mut());
        match ctx.sync() {
            Ok(()) => {
                let _ = socket.send_str(&reply);
            }
            Err(SyncError::MergeRejected) => {
                // Listing 3: write the error to the socket and abort.
                let _ = socket.send_str("ERR merge rejected");
                return Err(TaskAbort::new("merge rejected"));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn handle_request(request: &str, db: &mut Db) -> String {
    let mut parts = request.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("PUT"), Some(k), Some(v)) => {
            db.insert(k.to_string(), v.to_string());
            "OK".to_string()
        }
        (Some("GET"), Some(k), None) => db
            .get(&k.to_string())
            .cloned()
            .unwrap_or_else(|| "NIL".to_string()),
        (Some("DEL"), Some(k), None) => {
            db.remove(&k.to_string());
            "OK".to_string()
        }
        (Some("BAD"), _, _) => {
            // Writes a key the server's merge condition refuses.
            db.insert(FORBIDDEN_KEY.to_string(), "x".to_string());
            "?".to_string()
        }
        _ => "ERR bad request".to_string(),
    }
}

/// The paper's `accept(data)` task.
fn accept_task(net: Network, ctx: &mut TaskCtx<Db>) -> TaskResult {
    let listener = net
        .listen(PORT)
        .map_err(|e| TaskAbort::new(e.to_string()))?;
    loop {
        if ctx.is_aborted() {
            return Ok(()); // server shutting down
        }
        match blocking(|| listener.accept_timeout(std::time::Duration::from_millis(10))) {
            Ok(socket) => {
                // Clone(conn, socket, data): a sibling task the ROOT merges.
                ctx.clone_task(move |c| conn(socket, c))?;
            }
            Err(spawn_merge::net::NetError::Timeout) => continue,
            Err(_) => return Ok(()),
        }
    }
}

fn client(net: &Network, i: usize) -> std::thread::JoinHandle<Vec<String>> {
    let net = net.clone();
    std::thread::spawn(move || {
        // The accept task may not be listening yet: retry briefly.
        let sock = loop {
            match net.connect(PORT) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let mut replies = Vec::new();
        let mut send = |msg: String| {
            sock.send_str(&msg).unwrap();
            let r = sock.recv_str().unwrap();
            replies.push(format!("{msg} -> {r}"));
        };
        send(format!("PUT user:{i} client-{i}"));
        send(format!("GET user:{i}"));
        if i == 0 {
            send("BAD poison".to_string()); // provokes the merge condition
        }
        replies
    })
}

/// Port of the opt-in live telemetry endpoint (`SM_TELEMETRY=1`).
const TELEMETRY_PORT: u16 = 9600;

/// Install the full recorder plane and serve it on `net`.
fn start_telemetry(net: &Network) -> (ObsServer, Arc<Metrics>) {
    let mut sources = TelemetrySources::named("server-example");
    let metrics = Arc::new(Metrics::new());
    sources.metrics = Some(metrics.clone());
    sources.flight = Some(Arc::new(FlightRecorder::default()));
    sources.auditor = Some(Arc::new(DeterminismAuditor::new()));
    let sinks: Vec<Arc<dyn Recorder>> = vec![
        metrics.clone() as Arc<dyn Recorder>,
        sources.flight.clone().unwrap() as Arc<dyn Recorder>,
        sources.auditor.clone().unwrap() as Arc<dyn Recorder>,
    ];
    obs::install(Arc::new(MultiRecorder::new(sinks)));
    let server = ObsServer::start(net, TELEMETRY_PORT, sources).expect("telemetry port free");
    (server, metrics)
}

/// Self-scrape all three routes while the endpoint is live, printing the
/// marker lines the CI smoke job greps for.
fn scrape_telemetry(net: &Network) {
    let (status, metrics) = http_get(net, TELEMETRY_PORT, "/metrics").expect("scrape /metrics");
    let spawned = metrics
        .lines()
        .find_map(|l| l.strip_prefix("sm_tasks_spawned_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("spawned counter exposed");
    let nonzero_phases = metrics
        .lines()
        .filter(|l| {
            l.starts_with("sm_phase_nanos_count{")
                && l.rsplit_once(' ').is_some_and(|(_, v)| v.trim() != "0")
        })
        .count();
    assert!(status == 200 && spawned > 0.0 && nonzero_phases > 0);
    println!("TELEMETRY metrics status={status} spawned={spawned} nonzero_phases={nonzero_phases}");

    let (status, flight) = http_get(net, TELEMETRY_PORT, "/flight").expect("scrape /flight");
    assert!(status == 200 && flight.contains("\"retained\""));
    println!("TELEMETRY flight status={status} bytes={}", flight.len());

    let (status, health) = http_get(net, TELEMETRY_PORT, "/health").expect("scrape /health");
    assert!(status == 200 && health.contains("\"ok\":true") && health.contains("\"digest\""));
    println!("TELEMETRY health status={status} replica=server-example");
}

fn main() {
    let net = Network::new();
    let telemetry = std::env::var("SM_TELEMETRY")
        .is_ok_and(|v| v != "0")
        .then(|| start_telemetry(&net));
    let clients: Vec<_> = (0..CLIENTS).map(|i| client(&net, i)).collect();

    let (db, served) = run(Db::new(), |ctx| {
        let accept_net = net.clone();
        let acceptor = ctx.spawn(move |c| accept_task(accept_net, c));

        // Root loop: MergeAny until every client connection completed.
        // The merge condition guards the database invariant.
        let mut completed_conns = 0;
        while completed_conns < CLIENTS {
            if let Some(merged) =
                ctx.merge_any_with(&|db: &Db| !db.contains_key(&FORBIDDEN_KEY.to_string()))
            {
                if merged.completed && merged.task != acceptor.id() {
                    completed_conns += 1;
                }
            }
        }
        // All clients served: wind the acceptor down.
        acceptor.abort();
        while ctx.merge_any().is_some() {}
        completed_conns
    });

    println!("server handled {served} connections");
    for j in clients {
        for line in j.join().unwrap() {
            println!("  client: {line}");
        }
    }
    println!("final database ({} keys):", db.len());
    for (k, v) in db.iter() {
        println!("  {k} = {v}");
    }
    assert_eq!(db.len(), CLIENTS, "one key per client, poison key rejected");
    assert!(!db.contains_key(&FORBIDDEN_KEY.to_string()));

    // With SM_TELEMETRY on, the endpoint outlives the run: scrape it
    // live, then wind it down.
    if let Some((server, _metrics)) = telemetry {
        scrape_telemetry(&net);
        server.stop();
        obs::uninstall();
    }
}
