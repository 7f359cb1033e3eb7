//! The program's own counters, read **by name** at run time.
//!
//! The traced run installs an `sm_obs::Metrics` around the timed ops of
//! some rounds and reads `Metrics::json_string()` back through dotted
//! paths. A name that no longer exists yields no sample (the metric
//! then prints as `null`), never a build break — the benchmark must not
//! stand in the way of a change that renames or removes a counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spawn_merge::obs::json::{self, Json};
use spawn_merge::obs::{install, uninstall, Metrics, ObsEvent, Recorder};

use crate::harness::Layers;

/// `Metrics` plus a count of every event it was handed.
#[derive(Default)]
pub struct Counting {
    metrics: Metrics,
    events: AtomicU64,
}

impl Recorder for Counting {
    fn record(&self, event: &ObsEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.metrics.record(event);
    }
}

impl Counting {
    pub fn install(self: &Arc<Self>) {
        install(Arc::clone(self) as Arc<dyn Recorder>);
    }

    pub fn uninstall() {
        uninstall();
    }

    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    pub fn json(&self) -> Json {
        json::parse(&self.metrics.json_string()).unwrap_or(Json::Null)
    }
}

/// Per-op rates and ratios of named counters. `missing` collects the
/// dotted paths that were not found.
pub fn by_name(metrics: &Json, ops: u64, layers: &mut Layers, missing: &mut Vec<String>) {
    let ops = ops.max(1) as f64;
    let mut get = |path: &str| {
        // A dotted path of object keys: `"merges.rebases_delta_total"`.
        let node = path.split('.').try_fold(metrics, |node, key| node.get(key));
        let found = node.and_then(Json::as_num);
        if found.is_none() {
            missing.push(path.to_string());
        }
        found
    };
    for (metric, path) in [
        ("ot.delta_rebases", "merges.rebases_delta_total"),
        ("ot.grid_rebases", "merges.rebases_grid_total"),
        ("ot.grid_cells", "merges.grid_cells_total"),
        ("ot.screen_rejects", "merges.rebase_screen_rejects_total"),
        ("ot.ops_transformed", "merges.ops_child_total"),
        ("core.staged_merges", "merges.staged"),
    ] {
        if let Some(total) = get(path) {
            layers.sample(metric, total / ops);
        }
    }
    let rebase: Option<f64> = ["rebase_compact", "rebase_delta", "rebase_grid"]
        .iter()
        .map(|phase| get(&format!("phases.{phase}.sum")))
        .sum();
    if let Some(nanos) = rebase {
        layers.sample("ot.rebase_ns", nanos / ops);
    }
    if get("phases.server_dispatch.count").is_some_and(|n| n > 0.0) {
        if let Some(p50) = get("phases.server_dispatch.p50") {
            layers.sample("server.dispatch_p50_ns", p50);
        }
    }
    if let Some(appends) = get("store.wal_appends").filter(|n| *n > 0.0) {
        if let Some(bytes) = get("store.wal_bytes") {
            layers.sample("store.journal_bytes_per_commit", bytes / appends);
        }
        if let Some(fsyncs) = get("store.wal_fsyncs") {
            layers.sample("store.fsyncs_per_commit", fsyncs / appends);
        }
    }
    // A workload that owns its pool reads `Pool::stats()`; `fig3_sim`'s
    // pool is inside `run_setup`, so its workers are read by name.
    if layers.get("core.pool_peak_workers").is_none() {
        if let Some(peak) = get("pool.workers_peak").filter(|n| *n > 0.0) {
            layers.sample("core.pool_peak_workers", peak);
        }
        if let Some(started) = get("pool.workers_started").filter(|n| *n > 0.0) {
            layers.sample("core.pool_threads_created", started / ops);
        }
    }
}
