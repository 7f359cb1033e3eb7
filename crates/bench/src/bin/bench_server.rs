//! Emit `BENCH_server.json`: the multi-tenant session-server scaling
//! measurement (PR: sharded session server tentpole).
//!
//! One `sm-server` process hosts **≥10⁴ concurrent durable sessions**
//! (hash-sharded, each with its own journal) while client threads drive
//! mixed traffic: attach storms, Lcg-randomized edits fanning out as
//! broadcasts, concurrent commits on a shared session band (exercising
//! server-side OT rebasing), and mid-run idle churn (detach → idle
//! eviction → re-attach rehydration). Reported as latency histograms:
//!
//! * `attach` — attach/re-attach round-trip (includes session creation
//!   and, for re-attaches, store rehydration);
//! * `commit` — blocking commit→confirmed-broadcast round-trip (client
//!   encode, shard dispatch, OT rebase, journal append, fan-out, and the
//!   committer's own broadcast application).
//!
//! Convergence is asserted inside the workload itself, two ways: every
//! subscriber of a session must end on the same `(seq, state digest)`,
//! and every client's applied-broadcast digest chains must equal the
//! server-side `DeterminismAuditor`'s — the paper's determinism claim,
//! measured at the wire.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sm-bench --bin bench_server \
//!     [-- --quick] [-- --out PATH] [-- --assert-floors]
//! ```
//!
//! `--quick` keeps the full 10⁴ sessions but trims the commit volume for
//! CI smoke runs; `--out` overrides the default output path
//! `BENCH_server.json`; `--assert-floors` exits non-zero unless the run
//! sustained ≥10⁴ sessions, converged on every one of them, lost no
//! commits to eviction, and stayed under (generous, 1-CPU-calibrated)
//! latency ceilings.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use sm_netsim::tenant::{run_tenants, TenantConfig, TenantReport};
use sm_obs::{install, uninstall, DeterminismAuditor, Metrics, MultiRecorder};

/// Scratch directory under the OS temp root, wiped on entry.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Percentile from a sorted nanosecond vector (nearest-rank).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Render one latency histogram as a JSON object.
fn histogram_json(name: &str, nanos: &mut [u64]) -> String {
    nanos.sort_unstable();
    let count = nanos.len();
    let sum: u128 = nanos.iter().map(|&n| n as u128).sum();
    let mean = if count == 0 {
        0
    } else {
        (sum / count as u128) as u64
    };
    format!(
        "{{\"name\": \"{name}\", \"count\": {count}, \"mean_ns\": {mean}, \
         \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        pct(nanos, 50.0),
        pct(nanos, 90.0),
        pct(nanos, 99.0),
        nanos.last().copied().unwrap_or(0)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_floors = args.iter().any(|a| a == "--assert-floors");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_server.json".to_string());

    let dir = scratch();
    let mut cfg = TenantConfig::bench(&dir);
    if quick {
        // Same tenancy scale, less commit volume: the 10⁴-session floor
        // is the point of the benchmark and must hold in CI smoke too.
        cfg.rounds = 1;
        cfg.commits_per_round = 16;
    }

    let metrics = Arc::new(Metrics::new());
    let auditor = Arc::new(DeterminismAuditor::new());
    install(Arc::new(MultiRecorder::new(vec![
        metrics.clone(),
        auditor.clone(),
    ])));

    eprintln!(
        "bench_server: {} sessions ({} shared) x {} clients, {} shards, \
         {} rounds x {} commits/client",
        cfg.sessions,
        cfg.shared_sessions,
        cfg.clients,
        cfg.shards,
        cfg.rounds,
        cfg.commits_per_round
    );
    let mut report: TenantReport = run_tenants(&cfg, Some(auditor));
    uninstall();
    let snap = metrics.snapshot();

    let elapsed_ns = report.elapsed.as_nanos() as u64;
    let commits_per_sec = report.commits as f64 / (elapsed_ns as f64 / 1e9).max(1e-9);
    let attach_hist = histogram_json("attach", &mut report.attach_nanos);
    let commit_hist = histogram_json("commit", &mut report.commit_nanos);
    let attach_p99 = pct(&report.attach_nanos, 99.0);
    let commit_p99 = pct(&report.commit_nanos, 99.0);
    let build_ns = report.build.as_nanos() as u64;
    let shutdown_ns = report.shutdown.as_nanos() as u64;
    eprintln!(
        "bench_server: {} sessions, {} commits ({} rejected) in {:.2}s \
         ({commits_per_sec:.0} commits/s; server build {:.2}s, shutdown {:.2}s), \
         {} attaches ({} re-attaches), \
         {} evicted / {} rehydrated, attach p99 {:.3}ms, commit p99 {:.3}ms",
        report.sessions,
        report.commits,
        report.rejected,
        elapsed_ns as f64 / 1e9,
        build_ns as f64 / 1e9,
        shutdown_ns as f64 / 1e9,
        report.attaches,
        report.reattaches,
        snap.sessions_evicted,
        snap.sessions_rehydrated,
        attach_p99 as f64 / 1e6,
        commit_p99 as f64 / 1e6,
    );

    // ------------------------------------------------------------------
    // Floors. Latency ceilings are deliberately generous — this is a
    // correctness-shaped regression gate on a 1-CPU CI box, not a
    // performance contest.
    // ------------------------------------------------------------------
    const SESSION_FLOOR: usize = 10_000;
    let latency_ceiling_ns: u64 = 5_000_000_000; // 5 s p99
    let sessions_ok = report.sessions >= SESSION_FLOOR;
    let converged = report.divergent_sessions.is_empty() && report.divergent_chains.is_empty();
    let durable = report.seq_regressions == 0;
    let churned = report.reattaches > 0 && snap.sessions_rehydrated > 0;
    let attach_ok = attach_p99 <= latency_ceiling_ns;
    let commit_ok = commit_p99 <= latency_ceiling_ns;
    let floors_hold = sessions_ok && converged && durable && churned && attach_ok && commit_ok;

    let mut json = String::from("{\n  \"bench\": \"server\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"config\": {{\"sessions\": {}, \"shared_sessions\": {}, \"clients\": {}, \
         \"shards\": {}, \"rounds\": {}, \"commits_per_round\": {}, \"fsync_every_n\": {}}},",
        cfg.sessions,
        cfg.shared_sessions,
        cfg.clients,
        cfg.shards,
        cfg.rounds,
        cfg.commits_per_round,
        cfg.fsync_every_n
    );
    let _ = writeln!(
        json,
        "  \"run\": {{\"build_ns\": {build_ns}, \"elapsed_ns\": {elapsed_ns}, \
         \"shutdown_ns\": {shutdown_ns}, \"sessions\": {}, \"commits\": {}, \
         \"rejected\": {}, \"commits_per_sec\": {commits_per_sec:.0}, \"attaches\": {}, \
         \"reattaches\": {}, \"seq_regressions\": {}, \"divergent_sessions\": {}, \
         \"divergent_chains\": {}, \"convergence_checks\": {}}},",
        report.sessions,
        report.commits,
        report.rejected,
        report.attaches,
        report.reattaches,
        report.seq_regressions,
        report.divergent_sessions.len(),
        report.divergent_chains.len(),
        report.convergence_checks
    );
    let _ = writeln!(
        json,
        "  \"histograms\": [\n    {attach_hist},\n    {commit_hist}\n  ],"
    );
    let _ = writeln!(
        json,
        "  \"server_metrics\": {{\"sessions_opened\": {}, \"sessions_attached\": {}, \
         \"sessions_evicted\": {}, \"sessions_rehydrated\": {}, \
         \"rehydrate_replayed_ops\": {}, \"session_commits\": {}, \
         \"session_commit_ops\": {}, \"slow_consumers_dropped\": {}}},",
        snap.sessions_opened,
        snap.sessions_attached,
        snap.sessions_evicted,
        snap.sessions_rehydrated,
        snap.session_rehydrate_replayed_ops,
        snap.session_commits,
        snap.session_commit_ops,
        snap.slow_consumers_dropped
    );
    let _ = writeln!(
        json,
        "  \"floors\": {{\"session_floor\": {SESSION_FLOOR}, \"sessions_ok\": {sessions_ok}, \
         \"converged\": {converged}, \"durable\": {durable}, \"churned\": {churned}, \
         \"latency_ceiling_ns\": {latency_ceiling_ns}, \"attach_p99_ok\": {attach_ok}, \
         \"commit_p99_ok\": {commit_ok}}}\n}}"
    );

    let mut failed = match std::fs::write(&out_path, &json) {
        Ok(()) => {
            eprintln!("bench_server: wrote {out_path}");
            false
        }
        Err(e) => {
            eprintln!("bench_server: could not write {out_path}: {e}");
            true
        }
    };

    if assert_floors {
        if !sessions_ok {
            eprintln!(
                "bench_server: FLOOR VIOLATION: only {} concurrent sessions < {SESSION_FLOOR}",
                report.sessions
            );
        }
        if !converged {
            eprintln!(
                "bench_server: FLOOR VIOLATION: {} divergent sessions, {} divergent chains \
                 (must both be 0)",
                report.divergent_sessions.len(),
                report.divergent_chains.len()
            );
        }
        if !durable {
            eprintln!(
                "bench_server: FLOOR VIOLATION: {} re-attaches regressed their sequence \
                 (eviction lost commits)",
                report.seq_regressions
            );
        }
        if !churned {
            eprintln!(
                "bench_server: FLOOR VIOLATION: churn did not exercise eviction/rehydration \
                 ({} re-attaches, {} rehydrated)",
                report.reattaches, snap.sessions_rehydrated
            );
        }
        if !attach_ok || !commit_ok {
            eprintln!(
                "bench_server: FLOOR VIOLATION: p99 latency over {latency_ceiling_ns} ns \
                 (attach {attach_p99}, commit {commit_p99})"
            );
        }
        if floors_hold {
            eprintln!(
                "bench_server: floors hold ({} sessions >= {SESSION_FLOOR}, converged, durable, \
                 churned, p99 attach/commit {attach_p99}/{commit_p99} ns)",
                report.sessions
            );
        } else {
            failed = true;
        }
    }

    // The session directories go last, after the verdict is printed:
    // deleting 10⁴ of them can take longer than the measurement did.
    eprintln!("bench_server: removing {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        std::process::exit(1);
    }
}
